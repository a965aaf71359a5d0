"""Contract lookup, spot pricing, and quote synthesis tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import StubRng
from rto_sim.domain import Requisition, SpotModel, SpotRate
from rto_sim.market import (
    ContractBook,
    competition_adjust,
    make_quote,
    scope_quote,
)


@pytest.fixture
def book(paper_scenario):
    return ContractBook(paper_scenario.contracts)


class TestContractLookup:
    def test_active_six_month_contract(self, book):
        assert book.lookup("P1", "A", 30.0) == 11.0

    def test_expired_after_half_year(self, book):
        assert book.lookup("P1", "A", 200.0) is None

    def test_uncovered_pair(self, book):
        assert book.lookup("P1", "B", 30.0) is None

    def test_empty_book(self):
        assert ContractBook([]).lookup("P1", "A", 1.0) is None

    def test_full_year_contract(self, book):
        assert book.lookup("P3", "C", 360.0) == 12.0

    def test_snapshot_contains_only_active_terms(self, book):
        snap = book.terms_snapshot(["P1", "P2", "P3"], ["A", "B", "C"], 200.0)
        assert snap == {"P3": {"C": 12.0}}


def flat_model(baseline=10.0, amplitude=0.0, phase=0.0, noise_sd=0.0, **kwargs):
    return SpotModel(rates={("P", "S"): SpotRate(baseline, amplitude, phase)},
                     period=365.0, noise_sd=noise_sd, **kwargs)


def requisition(items):
    return Requisition(id="r", vessel_id="V", category_id="cat", created_at=1.0, items=items)


def spot_rate(model, t, rng):
    """One spot unit-rate draw: supplier S's quote for a one-item requisition of product P."""
    quote = make_quote(model, requisition({"P": 1}), "S", t, rng,
                       category_product_ids=("P",), lead_time=0.0)
    return quote.unit_rates["P"]


class TestSpotRate:
    def test_degenerate_model_returns_baseline(self):
        model = flat_model()
        assert spot_rate(model, 123.4, StubRng()) == 10.0

    def test_seasonal_trough(self):
        # amplitude 3 at phase pi/2 evaluated a quarter period in
        model = flat_model(baseline=10.0, amplitude=3.0, phase=math.pi / 2)
        assert spot_rate(model, 365.0 / 4, StubRng()) == pytest.approx(7.0)

    def test_phase_shift_cancels_at_origin(self):
        model = flat_model(baseline=10.0, amplitude=2.0, phase=-math.pi / 2)
        assert spot_rate(model, 0.0, StubRng()) == pytest.approx(10.0)

    def test_noise_floor(self):
        model = flat_model(baseline=0.5, noise_sd=1.0)
        assert spot_rate(model, 0.0, StubRng(normals=[-5.0])) == 0.01

    @given(t=st.floats(min_value=0.0, max_value=2000.0),
           amplitude=st.floats(min_value=0.0, max_value=5.0),
           phase=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_noise_free_periodicity(self, t, amplitude, phase):
        model = flat_model(baseline=10.0, amplitude=amplitude, phase=phase)
        a = spot_rate(model, t, StubRng())
        b = spot_rate(model, t + 365.0, StubRng())
        assert a == pytest.approx(b, abs=1e-9)

    def test_unbiasedness(self):
        model = flat_model(baseline=10.0, amplitude=2.0, phase=0.3, noise_sd=1.0)
        rng = np.random.Generator(np.random.PCG64(5))
        n = 100_000
        draws = [spot_rate(model, 40.0, rng) for _ in range(n)]
        expected = 10.0 + 2.0 * math.cos(2 * math.pi * 40.0 / 365.0 + 0.3)
        assert abs(np.mean(draws) - expected) <= 3.0 / math.sqrt(n)


class TestCompetitionAdjust:
    def test_zero_slope_unchanged(self):
        assert competition_adjust(10.0, 0.0, 50) == 10.0

    def test_mild_competition(self):
        assert competition_adjust(10.0, 0.01, 50) == pytest.approx(10.5)

    def test_high_competition(self):
        assert competition_adjust(10.0, 0.10, 50) == pytest.approx(15.0)

    def test_quantity_below_one_rejected(self):
        with pytest.raises(ValueError):
            competition_adjust(10.0, 0.01, 0)

    @given(q1=st.integers(min_value=1, max_value=1000),
           extra=st.integers(min_value=1, max_value=1000),
           slope=st.floats(min_value=1e-6, max_value=1.0))
    def test_strictly_increasing_in_quantity(self, q1, extra, slope):
        assert competition_adjust(10.0, slope, q1) < competition_adjust(10.0, slope, q1 + extra)


class TestMakeQuote:
    def test_deterministic_reduction_to_seasonal_curve(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0)
        req = requisition({"P1": 4})
        quote = make_quote(spot, req, "B", 365.0 / 4, StubRng(),
                           category_product_ids=("P1", "P2", "P3"), lead_time=3.0)
        assert quote.unit_rates == {"P1": pytest.approx(7.0)}
        assert quote.lead_time == 3.0

    def test_golden_quote_vector(self, paper_scenario):
        # frozen from a hand-verified run: seasonal curve at t=20 plus the
        # first three standard normals of PCG64 seed 77
        req = requisition({"P1": 10, "P2": 5, "P3": 50})
        rng = np.random.Generator(np.random.PCG64(77))
        quote = make_quote(paper_scenario.spot, req, "A", 20.0, rng,
                           category_product_ids=("P1", "P2", "P3"), lead_time=3.0)
        assert quote.unit_rates["P1"] == pytest.approx(11.102815763392954, abs=1e-12)
        assert quote.unit_rates["P2"] == pytest.approx(7.546527808087861, abs=1e-12)
        assert quote.unit_rates["P3"] == pytest.approx(10.845907510589281, abs=1e-12)

    def test_noise_alignment_across_scopes(self, paper_scenario):
        # the same stream gives an item the same rate no matter which other
        # items the requisition holds
        full = make_quote(paper_scenario.spot, requisition({"P1": 10, "P2": 5, "P3": 50}), "A", 20.0,
                          np.random.Generator(np.random.PCG64(123)),
                          category_product_ids=("P1", "P2", "P3"), lead_time=3.0)
        partial = make_quote(paper_scenario.spot, requisition({"P3": 50}), "A", 20.0,
                             np.random.Generator(np.random.PCG64(123)),
                             category_product_ids=("P1", "P2", "P3"), lead_time=3.0)
        assert partial.unit_rates == {"P3": full.unit_rates["P3"]}


class TestScopeQuote:
    @staticmethod
    def base_quote(spot, req):
        # noise-free: a quarter period in, supplier B's P1 rate is 7.0
        return make_quote(spot, req, "B", 365.0 / 4, StubRng(),
                          category_product_ids=("P1", "P2", "P3"), lead_time=3.0)

    def test_cut_to_scope(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0)
        req = requisition({"P1": 10, "P2": 5, "P3": 50})
        base = self.base_quote(spot, req)
        quote = scope_quote(base, req, ("P3",), spot)
        assert quote.unit_rates == {"P3": base.unit_rates["P3"]}
        assert quote.lead_time == 3.0

    def test_empty_scope_rejected(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0)
        req = requisition({"P1": 4})
        with pytest.raises(ValueError, match="empty item scope"):
            scope_quote(self.base_quote(spot, req), req, (), spot)

    def test_per_item_competition_applied(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0, competition_slope=0.10)
        req = requisition({"P1": 50})
        quote = scope_quote(self.base_quote(spot, req), req, ("P1",), spot)
        assert quote.unit_rates["P1"] == pytest.approx(12.0)  # 7.0 + 0.1*50

    def test_supplier_total_basis_leaves_rates_unadjusted(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0, competition_slope=0.10,
                                   competition_basis="per_supplier_total")
        req = requisition({"P1": 50})
        quote = scope_quote(self.base_quote(spot, req), req, ("P1",), spot)
        assert quote.unit_rates["P1"] == pytest.approx(7.0)
