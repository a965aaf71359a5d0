"""Hazard-rate specifications and exact samplers for event timing.

Every intensity-governed process in the simulator (requisition renewals,
processing delays) draws its event times through this module.  Sampling is
exact: constant rates invert the exponential in closed form, time-varying
rates use thinning against a provable dominating rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConstantBaseline",
    "WeibullBaseline",
    "CovariateTerm",
    "HazardSpec",
    "hazard_value",
    "sample_gap",
    "sample_exponential_delay",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ConstantBaseline:
    """Flat baseline hazard (homogeneous renewal stream)."""

    rate: float  # events/day


@dataclass(frozen=True)
class WeibullBaseline:
    """Weibull baseline hazard in shape/scale form.

    shape > 1 gives an increasing hazard since the last event, shape < 1 a
    decreasing one, shape == 1 reduces to a constant rate 1/scale.
    """

    shape: float
    scale: float


@dataclass(frozen=True)
class CovariateTerm:
    """One periodic log-linear modifier of the baseline hazard.

    Contributes ``coefficient * amplitude * cos(2*pi*t/period + phase)`` to
    the log intensity, with t in absolute simulation days.
    """

    coefficient: float
    amplitude: float
    period: float
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.amplitude * math.cos(_TWO_PI * t / self.period + self.phase)


@dataclass(frozen=True)
class HazardSpec:
    baseline: ConstantBaseline | WeibullBaseline
    covariates: tuple[CovariateTerm, ...] = ()

    def modulation_bound(self) -> float:
        """Upper bound of exp(sum of covariate terms); finite because the terms are bounded cosines."""
        return math.exp(sum(abs(c.coefficient) * abs(c.amplitude) for c in self.covariates))

    def log_modulation(self, t: float) -> float:
        return sum(c.coefficient * c.value(t) for c in self.covariates)


def _baseline_value(baseline: ConstantBaseline | WeibullBaseline, elapsed: float) -> float:
    if isinstance(baseline, ConstantBaseline):
        return baseline.rate
    shape, scale = baseline.shape, baseline.scale
    if elapsed == 0.0:
        if shape < 1.0:
            raise ValueError("Weibull hazard diverges at zero elapsed time for shape < 1")
        return 1.0 / scale if shape == 1.0 else 0.0
    return (shape / scale) * (elapsed / scale) ** (shape - 1.0)


def hazard_value(spec: HazardSpec, elapsed: float, t_abs: float) -> float:
    """Instantaneous event rate at `elapsed` days since the last event, absolute time `t_abs`."""
    if elapsed < 0.0:
        raise ValueError("elapsed time must be non-negative")
    rate = _baseline_value(spec.baseline, elapsed)
    if spec.covariates:
        rate *= math.exp(spec.log_modulation(t_abs))
    return rate


def _unit_exponential(rng) -> float:
    """A mean-1 exponential draw, by inverse transform on U in (0, 1]."""
    return -math.log(1.0 - rng.random())


def sample_exponential_delay(mean: float, rng) -> float:
    """Exponential waiting time with the given mean."""
    if mean <= 0.0:
        raise ValueError("delay mean must be positive")
    return mean * _unit_exponential(rng)


def _check_dominated(rate: float, dominating: float) -> None:
    # thinning is exact only while the dominating rate bounds the hazard
    if rate > dominating * (1.0 + 1e-9):
        raise RuntimeError(f"hazard {rate!r} exceeds its thinning bound {dominating!r}")


def sample_gap(spec: HazardSpec, t_last: float, horizon: float, rng) -> float | None:
    """Draw the next event time in (t_last, horizon] for a renewal clock reset at t_last.

    Returns None when the sampled time falls beyond the horizon.  Constant
    baselines without covariates invert the exponential directly.  A Weibull
    baseline with shape < 1 is thinned against the bare Weibull hazard scaled
    by the covariate bound, since no finite piecewise-constant bound exists
    near zero.  Every other baseline is non-decreasing and is thinned window
    by window against its value at the window's right edge, scaled by the
    covariate bound: a Weibull window is scale/4 wide, and a constant
    baseline has one unbounded window.  Thinning is exact whatever the window
    width (Lewis & Shedler 1979).
    """
    if t_last >= horizon:
        return None
    baseline = spec.baseline
    bound = spec.modulation_bound()

    if isinstance(baseline, ConstantBaseline):
        if not spec.covariates:
            t = t_last + sample_exponential_delay(1.0 / baseline.rate, rng)
            return t if t <= horizon else None
        width = math.inf
    elif baseline.shape < 1.0:
        shape, scale = baseline.shape, baseline.scale
        cum = 0.0  # accumulated (elapsed/scale)**shape of the dominating process
        while True:
            cum += _unit_exponential(rng) / bound
            elapsed = scale * cum ** (1.0 / shape)
            t = t_last + elapsed
            if t > horizon:
                return None
            rate = hazard_value(spec, elapsed, t)
            dominating = _baseline_value(baseline, elapsed) * bound
            _check_dominated(rate, dominating)
            if rng.random() * dominating <= rate:
                return t
    else:
        width = baseline.scale / 4.0

    elapsed = 0.0
    win_end = width
    while True:
        # non-decreasing baseline peaks at the window's right edge
        dominating = _baseline_value(baseline, win_end) * bound
        while True:
            elapsed += _unit_exponential(rng) / dominating
            if elapsed > win_end:
                elapsed = win_end
                win_end += width
                if t_last + elapsed > horizon:
                    return None
                break
            t = t_last + elapsed
            if t > horizon:
                return None
            rate = hazard_value(spec, elapsed, t)
            _check_dominated(rate, dominating)
            if rng.random() * dominating <= rate:
                return t
