"""Hazard evaluation and sampler distribution tests."""

import decimal
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import StubRng, U_MEAN
from oracles import hazard_value, weibull_cdf
from rto_sim.hazards import (
    PROPOSAL_BUDGET,
    ConstantBaseline,
    CovariateTerm,
    HazardSpec,
    WeibullBaseline,
    sample_exponential_delay,
    sample_gap,
)


def stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestHazardValue:
    def test_shape_one_reduces_to_constant_rate(self):
        spec = HazardSpec(WeibullBaseline(shape=1.0, scale=5.0))
        for elapsed in (0.0, 0.1, 3.0, 50.0):
            assert hazard_value(spec, elapsed, 0.0) == pytest.approx(0.2)

    def test_elapsed_equal_to_scale(self):
        spec = HazardSpec(WeibullBaseline(shape=2.0, scale=10.0))
        assert hazard_value(spec, 10.0, 0.0) == pytest.approx(0.2)

    def test_covariate_modulation_hand_evaluated(self):
        # (1.5/20) * 1 * e^0.3 with a unit covariate value
        spec = HazardSpec(
            WeibullBaseline(shape=1.5, scale=20.0),
            covariates=(CovariateTerm(coefficient=0.3, amplitude=1.0, period=40.0, phase=0.0),),
        )
        assert hazard_value(spec, 20.0, 40.0) == pytest.approx(0.075 * math.exp(0.3))
        assert hazard_value(spec, 20.0, 40.0) == pytest.approx(0.10124, abs=5e-6)

    def test_diverging_hazard_rejected(self):
        spec = HazardSpec(WeibullBaseline(shape=0.5, scale=5.0))
        with pytest.raises(ValueError):
            hazard_value(spec, 0.0, 0.0)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            hazard_value(HazardSpec(ConstantBaseline(1.0)), -0.1, 0.0)

    @given(
        shape=st.floats(min_value=1.05, max_value=5.0),
        scale=st.floats(min_value=0.5, max_value=50.0),
        e1=st.floats(min_value=0.01, max_value=100.0),
        factor=st.floats(min_value=1.01, max_value=10.0),
    )
    def test_monotone_increasing_for_shape_above_one(self, shape, scale, e1, factor):
        spec = HazardSpec(WeibullBaseline(shape=shape, scale=scale))
        assert hazard_value(spec, e1, 0.0) < hazard_value(spec, e1 * factor, 0.0)

    @given(
        shape=st.floats(min_value=0.2, max_value=0.95),
        scale=st.floats(min_value=0.5, max_value=50.0),
        e1=st.floats(min_value=0.01, max_value=100.0),
        factor=st.floats(min_value=1.01, max_value=10.0),
    )
    def test_monotone_decreasing_for_shape_below_one(self, shape, scale, e1, factor):
        spec = HazardSpec(WeibullBaseline(shape=shape, scale=scale))
        assert hazard_value(spec, e1, 0.0) > hazard_value(spec, e1 * factor, 0.0)


class TestExponentialDelay:
    def test_forced_draw_hits_mean(self):
        assert sample_exponential_delay(2.0, StubRng([U_MEAN])) == pytest.approx(2.0)

    def test_boundary_draw_gives_zero(self):
        assert sample_exponential_delay(5.0, StubRng([0.0])) == 0.0

    def test_law_of_large_numbers(self):
        rng = stream(123)
        draws = [sample_exponential_delay(0.1, rng) for _ in range(100_000)]
        assert 0.099 <= np.mean(draws) <= 0.101

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_exponential_delay(0.0, StubRng([0.5]))


class TestCovariateSums:
    def test_terms_add_left_to_right_on_every_python(self):
        # from Python 3.12 on, sum() compensates float rounding and would give
        # 0.6 here, so the same scenario would draw other gaps there
        spec = HazardSpec(ConstantBaseline(rate=1.0),
                          covariates=tuple(CovariateTerm(c, 1.0, 365.0) for c in (0.1, 0.2, 0.3)))
        assert spec.log_modulation(0.0) == (0.1 + 0.2) + 0.3
        assert spec.modulation_bound() == math.exp((0.1 + 0.2) + 0.3)


class TestSampleGap:
    def test_constant_rate_closed_form(self):
        spec = HazardSpec(ConstantBaseline(rate=0.5))
        t = sample_gap(spec, 0.0, 1e9, StubRng([0.5]))
        assert t == pytest.approx(-math.log(0.5) / 0.5)
        assert t == pytest.approx(1.38629, abs=5e-6)

    def test_negligible_rate_yields_none(self):
        spec = HazardSpec(ConstantBaseline(rate=1e-12))
        assert sample_gap(spec, 0.0, 365.0, stream(7)) is None

    def test_past_horizon_returns_none(self):
        spec = HazardSpec(ConstantBaseline(rate=1.0))
        assert sample_gap(spec, 10.0, 10.0, stream(7)) is None

    def test_weibull_mean_gap(self):
        # mean of Weibull(2, 10) is 10*Gamma(1.5)
        spec = HazardSpec(WeibullBaseline(shape=2.0, scale=10.0))
        rng = stream(42)
        gaps = [sample_gap(spec, 0.0, 1e9, rng) for _ in range(10_000)]
        assert np.mean(gaps) == pytest.approx(10.0 * math.gamma(1.5), rel=0.02)

    def test_thinning_matches_weibull_cdf(self):
        spec = HazardSpec(WeibullBaseline(shape=2.0, scale=10.0))
        rng = stream(1)
        gaps = [sample_gap(spec, 0.0, 1e9, rng) for _ in range(3000)]
        result = stats.kstest(gaps, lambda x: np.vectorize(weibull_cdf)(2.0, 10.0, x))
        assert result.pvalue > 0.01

    def test_decreasing_hazard_matches_weibull_cdf(self):
        # shape < 1 exercises the closed-form dominating-process path
        spec = HazardSpec(WeibullBaseline(shape=0.7, scale=5.0))
        rng = stream(2)
        gaps = [sample_gap(spec, 0.0, 1e12, rng) for _ in range(3000)]
        result = stats.kstest(gaps, lambda x: np.vectorize(weibull_cdf)(0.7, 5.0, x))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("baseline, covariate", [
        *((WeibullBaseline(shape=shape, scale=8.0), CovariateTerm(0.5, 1.0, 50.0, phase=0.3))
          for shape in (0.8, 1.0, 1.4)),
        (WeibullBaseline(shape=1.5, scale=12.0), CovariateTerm(0.35, 1.0, 365.0)),
        (ConstantBaseline(rate=0.2), CovariateTerm(0.5, 1.0, 50.0, phase=0.3)),
    ], ids=["0.8", "1.0", "1.4", "paper_s5", "constant"])
    def test_covariate_sampler_matches_quadrature_cdf(self, baseline, covariate):
        # oracle CDF: 1 - exp(-integral of the modulated hazard), on a dense grid
        spec = HazardSpec(baseline, covariates=(covariate,))
        t_last = 13.7
        grid = np.linspace(1e-9, 200.0, 40_001)
        lam = np.array([hazard_value(spec, e, t_last + e) for e in grid])
        cum = integrate.cumulative_trapezoid(lam, grid, initial=0.0)
        cdf_grid = 1.0 - np.exp(-cum)

        rng = stream(3)
        gaps = [sample_gap(spec, t_last, 1e9, rng) - t_last for _ in range(2000)]
        assert max(gaps) < 200.0
        result = stats.kstest(gaps, lambda x: np.interp(x, grid, cdf_grid))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("baseline, inverse", [
        (ConstantBaseline(rate=0.5), lambda cum: cum / 0.5),
        (WeibullBaseline(shape=1.5, scale=12.0), lambda cum: 12.0 * cum ** (1.0 / 1.5)),
    ], ids=["constant", "weibull"])
    def test_without_covariates_one_draw_inverts_the_baseline(self, baseline, inverse):
        uniforms = [0.2, U_MEAN, 0.9]
        rng = StubRng(uniforms)
        t = 3.0
        for left, u in enumerate(uniforms, start=1):
            gap = sample_gap(HazardSpec(baseline), t, 1e9, rng) - t
            assert gap == pytest.approx(inverse(-math.log(1.0 - u)), rel=1e-12)
            assert len(rng.uniforms) == len(uniforms) - left
            t += gap

    def test_a_tiny_shape_never_overflows(self):
        # at shape 1e-3, cum ** 1000 exceeds every float once cum > e^0.71,
        # about one draw in eight: such a gap lies past the horizon
        spec = HazardSpec(WeibullBaseline(shape=1e-3, scale=1.0))
        rng = stream(11)
        gaps = [sample_gap(spec, 0.0, 365.0, rng) for _ in range(300)]
        assert all(t is None or 0.0 <= t <= 365.0 for t in gaps)
        assert 0 < gaps.count(None) < len(gaps)

    def test_an_overflowing_power_still_gives_a_representable_gap(self):
        # a unit exponential of about 2.1: 2.1 ** 1000 is past every float, but
        # 1e-300 times it is about 1.6e22
        u = 1.0 - math.exp(-2.1)
        cum = -math.log(1.0 - u)
        assert math.log(cum) * 1000 > math.log(sys.float_info.max)
        spec = HazardSpec(WeibullBaseline(shape=1e-3, scale=1e-300))
        t = sample_gap(spec, 0.0, 1e30, StubRng([u]))
        with decimal.localcontext() as context:
            context.prec = 50
            exact = decimal.Decimal(1e-300) * decimal.Decimal(cum) ** (1 / decimal.Decimal(1e-3))
        assert t == pytest.approx(float(exact), rel=1e-12)
        assert sample_gap(spec, 0.0, 1e21, StubRng([u])) is None

    def test_gap_respects_renewal_offset(self):
        # absolute event times start from t_last, not zero
        spec = HazardSpec(WeibullBaseline(shape=1.5, scale=4.0))
        rng = stream(4)
        for _ in range(100):
            t = sample_gap(spec, 50.0, 1e9, rng)
            assert t > 50.0

    @pytest.mark.parametrize("baseline", [ConstantBaseline(rate=0.5),
                                          WeibullBaseline(shape=0.7, scale=5.0),
                                          WeibullBaseline(shape=2.0, scale=10.0)])
    def test_hazard_above_dominating_rate_raises(self, baseline, monkeypatch):
        # an explicit raise, not an assert, so it also holds under python -O
        spec = HazardSpec(baseline, covariates=(CovariateTerm(0.3, 1.0, 365.0),))
        monkeypatch.setattr(HazardSpec, "log_modulation", lambda self, t: 50.0)
        with pytest.raises(RuntimeError, match="thinning bound"):
            sample_gap(spec, 0.0, 1e9, stream(0))

    def test_pathological_modulation_exhausts_a_bounded_budget(self):
        # a valid spec whose modulation near t=0 is e^-40 of its bound: at the
        # proposal rate that bound implies, the first acceptance is ~1e10 draws away
        spec = HazardSpec(WeibullBaseline(shape=1.5, scale=12.0),
                          covariates=(CovariateTerm(20.0, 1.0, 365.0, phase=math.pi),))
        message = f"{PROPOSAL_BUDGET} proposals under covariate bound {spec.modulation_bound()!r}"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            sample_gap(spec, 0.0, 365.0, stream(0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sampler_times_always_inside_window(seed):
    spec = HazardSpec(
        WeibullBaseline(shape=1.8, scale=12.0),
        covariates=(CovariateTerm(coefficient=0.4, amplitude=1.0, period=365.0),),
    )
    rng = stream(seed)
    t = sample_gap(spec, 3.0, 60.0, rng)
    assert t is None or 3.0 < t <= 60.0
