"""Hazard evaluation and sampler distribution tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import StubRng, U_MEAN
from oracles import weibull_cdf
from rto_sim.hazards import (
    ConstantBaseline,
    CovariateTerm,
    HazardSpec,
    WeibullBaseline,
    hazard_value,
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

    @pytest.mark.parametrize("shape", [0.8, 1.0, 1.4])
    def test_covariate_sampler_matches_quadrature_cdf(self, shape):
        # oracle CDF: 1 - exp(-integral of the modulated hazard), on a dense grid
        spec = HazardSpec(
            WeibullBaseline(shape=shape, scale=8.0),
            covariates=(CovariateTerm(coefficient=0.5, amplitude=1.0, period=50.0, phase=0.3),),
        )
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

    def test_gap_respects_renewal_offset(self):
        # absolute event times start from t_last, not zero
        spec = HazardSpec(WeibullBaseline(shape=1.5, scale=4.0))
        rng = stream(4)
        for _ in range(100):
            t = sample_gap(spec, 50.0, 1e9, rng)
            assert t > 50.0

    def test_window_width_override_preserves_distribution(self):
        spec = HazardSpec(WeibullBaseline(shape=2.0, scale=10.0))
        rng = stream(5)
        gaps = [sample_gap(spec, 0.0, 1e9, rng, window_width=0.8) for _ in range(2000)]
        result = stats.kstest(gaps, lambda x: np.vectorize(weibull_cdf)(2.0, 10.0, x))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("baseline", [ConstantBaseline(rate=0.5),
                                          WeibullBaseline(shape=0.7, scale=5.0),
                                          WeibullBaseline(shape=2.0, scale=10.0)])
    def test_hazard_above_dominating_rate_raises(self, baseline, monkeypatch):
        # an explicit raise, not an assert, so it also holds under python -O
        import rto_sim.hazards as hazards

        spec = HazardSpec(baseline, covariates=(CovariateTerm(0.3, 1.0, 365.0),))
        monkeypatch.setattr(hazards, "hazard_value", lambda spec, elapsed, t_abs: 1e9)
        with pytest.raises(RuntimeError, match="thinning bound"):
            sample_gap(spec, 0.0, 1e9, stream(0))


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
