"""Hazard-rate specifications and exact samplers for event timing.

Every intensity-governed process in the simulator (requisition renewals,
processing delays) draws its event times through this module.  Sampling is
exact: a renewal gap inverts the baseline's cumulative hazard and thins only
the covariate modulation, against its provable bound.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

__all__ = [
    "ConstantBaseline",
    "WeibullBaseline",
    "CovariateTerm",
    "HazardSpec",
    "sample_gap",
    "exponential_delay",
    "sample_exponential_delay",
]

_TWO_PI = 2.0 * math.pi
PROPOSAL_BUDGET = 1_000_000  # thinning proposals per gap before sample_gap gives up
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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


@dataclass(frozen=True)
class HazardSpec:
    baseline: ConstantBaseline | WeibullBaseline
    covariates: tuple[CovariateTerm, ...] = ()

    def modulation_bound(self) -> float:
        """Upper bound of exp(sum of covariate terms); finite because the terms are bounded cosines."""
        return self._modulation_bound

    # both sums add left to right, as sum() did before Python 3.12 compensated
    # its rounding, so a scenario draws the same gaps on every Python version
    @functools.cached_property
    def _modulation_bound(self) -> float:  # sample_gap reads it on every gap
        total = 0.0
        for c in self.covariates:
            total += abs(c.coefficient) * abs(c.amplitude)
        return math.exp(total)

    @functools.cached_property
    def _terms(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple((c.coefficient, c.amplitude, c.period, c.phase) for c in self.covariates)

    def log_modulation(self, t: float) -> float:
        total = 0.0
        for coefficient, amplitude, period, phase in self._terms:
            total += coefficient * (amplitude * math.cos(_TWO_PI * t / period + phase))
        return total


def exponential_delay(mean: float, u: float) -> float:
    """Exponential waiting time with the given mean, by inverse transform of a uniform draw u in [0, 1)."""
    if mean <= 0.0:
        raise ValueError("delay mean must be positive")
    return mean * -math.log(1.0 - u)


def sample_exponential_delay(mean: float, rng) -> float:
    """Exponential waiting time with the given mean, from the stream's next uniform."""
    return exponential_delay(mean, rng.random())


def _inverse_cumulative(baseline: ConstantBaseline | WeibullBaseline, cum: float) -> float:
    """Elapsed time at which the baseline's cumulative hazard reaches `cum`; inf beyond every float."""
    if isinstance(baseline, ConstantBaseline):
        return (1.0 / baseline.rate) * cum
    try:
        return baseline.scale * cum ** (1.0 / baseline.shape)
    except OverflowError:
        # a float ** raises where it should give inf, as a tiny shape makes it
        # do at cum > 1; in log space the time either lies beyond every float,
        # so past any horizon, or is the product of a tiny scale and the power
        log_time = math.log(baseline.scale) + math.log(cum) / baseline.shape
        return math.exp(log_time) if log_time < _LOG_FLOAT_MAX else math.inf


def _check_dominated(modulation: float, bound: float) -> None:
    # thinning is exact only while the bound dominates the covariate modulation
    if modulation > bound * (1.0 + 1e-9):
        raise RuntimeError(f"covariate modulation {modulation!r} exceeds its thinning bound {bound!r}")


def sample_gap(spec: HazardSpec, t_last: float, horizon: float, rng) -> float | None:
    """Draw the next event time in (t_last, horizon] for a renewal clock reset at t_last.

    Returns None when the sampled time falls beyond the horizon.  Proposals
    invert the baseline's cumulative hazard at a running sum of unit
    exponentials divided by the covariate bound, and each is kept with
    probability modulation/bound (a time change plus Lewis & Shedler 1979
    thinning).  Without covariates the first proposal is the event.  A gap
    still without one after PROPOSAL_BUDGET proposals raises RuntimeError.
    """
    if t_last >= horizon:
        return None
    bound, baseline, covariates = spec._modulation_bound, spec.baseline, spec.covariates
    random = rng.random
    cum = 0.0  # baseline cumulative hazard at the latest proposal; the proposals' own is bound * cum
    for _ in range(PROPOSAL_BUDGET):
        cum += -math.log(1.0 - random()) / bound  # a unit exponential, as exponential_delay draws it
        t = t_last + _inverse_cumulative(baseline, cum)
        if t > horizon:
            return None
        if not covariates:
            return t
        modulation = math.exp(spec.log_modulation(t))
        _check_dominated(modulation, bound)
        if random() * bound <= modulation:
            return t
    raise RuntimeError(f"thinning found no event in {PROPOSAL_BUDGET} proposals under covariate bound {bound!r}")
