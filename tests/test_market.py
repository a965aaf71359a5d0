"""Contract lookup, spot pricing, and quote synthesis tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rto_sim.domain import Contract, Requisition, SpotModel, SpotRate
from rto_sim.market import (
    ContractBook,
    make_quote,
    scope_quote,
)


PRODUCTS = ("P1", "P2", "P3")


@pytest.fixture
def book(paper_scenario):
    return ContractBook(paper_scenario.contracts)


def contract(rate, valid_from, valid_until):
    return Contract(supplier_id="A", product_rates={"P1": rate}, valid_from=valid_from,
                    valid_until=valid_until)


class TestContractLookup:
    def test_active_six_month_contract(self, book):
        assert book.terms_snapshot(["P1"], ["A"], 30.0) == {"P1": {"A": 11.0}}

    def test_expired_after_half_year(self, book):
        assert book.terms_snapshot(["P1"], ["A"], 200.0) == {}

    def test_uncovered_pair(self, book):
        assert book.terms_snapshot(["P1"], ["B"], 30.0) == {}

    def test_empty_book(self):
        assert ContractBook([]).terms_snapshot(["P1"], ["A"], 1.0) == {}

    def test_full_year_contract(self, book):
        assert book.terms_snapshot(["P3"], ["C"], 360.0) == {"P3": {"C": 12.0}}

    def test_window_is_half_open(self):
        book = ContractBook([contract(5.0, 10.0, 20.0)])
        assert book.terms_snapshot(["P1"], ["A"], math.nextafter(10.0, 0.0)) == {}
        assert book.terms_snapshot(["P1"], ["A"], 10.0) == {"P1": {"A": 5.0}}
        assert book.terms_snapshot(["P1"], ["A"], math.nextafter(20.0, 0.0)) == {"P1": {"A": 5.0}}
        assert book.terms_snapshot(["P1"], ["A"], 20.0) == {}

    def test_back_to_back_contracts_hand_over_at_the_boundary(self):
        # listed out of order: the book finds the active one whatever the input order
        book = ContractBook([contract(7.0, 10.0, 20.0), contract(5.0, 0.0, 10.0)])
        assert book.terms_snapshot(["P1"], ["A"], math.nextafter(10.0, 0.0)) == {"P1": {"A": 5.0}}
        assert book.terms_snapshot(["P1"], ["A"], 10.0) == {"P1": {"A": 7.0}}
        assert book.terms_snapshot(["P1"], ["A"], 20.0) == {}

    def test_snapshot_contains_only_active_terms(self, book):
        snap = book.terms_snapshot(["P1", "P2", "P3"], ["A", "B", "C"], 200.0)
        assert snap == {"P3": {"C": 12.0}}

    @given(draws=st.lists(st.tuples(st.sampled_from("ABC"), st.sets(st.sampled_from(PRODUCTS), min_size=1),
                                    st.integers(0, 40), st.integers(1, 20)), max_size=12),
           times=st.lists(st.floats(-5.0, 70.0), max_size=8), shuffler=st.randoms())
    def test_lookup_does_not_depend_on_contract_order(self, draws, times, shuffler):
        # validate forbids overlapping windows of one (product, supplier), so
        # at most one contract is active at any time, in whatever order listed
        contracts = []
        for supplier, products, start, length in draws:
            if not any(c.supplier_id == supplier and products & c.product_rates.keys()
                       and c.valid_from < start + length and start < c.valid_until for c in contracts):
                rates = {p: len(contracts) + 1 + int(p[1]) / 10 for p in sorted(products)}  # distinct per contract
                contracts.append(Contract(supplier_id=supplier, product_rates=rates, valid_from=float(start),
                                          valid_until=float(start + length)))
        shuffler.shuffle(contracts)
        book = ContractBook(contracts)
        edges = {t for c in contracts for t in (c.valid_from, c.valid_until)}
        for t in [*times, *edges, *(math.nextafter(edge, -math.inf) for edge in edges)]:
            expected = []  # a brute-force scan, in the snapshot's product and supplier order
            for product in PRODUCTS:
                active = [c for supplier in "ABC" for c in contracts if c.supplier_id == supplier
                          and product in c.product_rates and c.valid_from <= t < c.valid_until]
                assert len({c.supplier_id for c in active}) == len(active)
                if active:
                    expected.append((product, [(c.supplier_id, c.product_rates[product]) for c in active]))
            snapshot = book.terms_snapshot(PRODUCTS, "ABC", t)
            assert [(product, list(terms.items())) for product, terms in snapshot.items()] == expected


def flat_model(baseline=10.0, amplitude=0.0, phase=0.0, noise_sd=0.0, **kwargs):
    return SpotModel(rates={("P", "S"): SpotRate(baseline, amplitude, phase)},
                     period=365.0, noise_sd=noise_sd, **kwargs)


def requisition(items):
    return Requisition(id="r", vessel_id="V", category_id="cat", created_at=1.0, items=items)


def spot_rate(model, t, noise=()):
    """One spot unit rate: supplier S's quote for a one-item requisition of product P, given P's normal."""
    return make_quote(model, requisition({"P": 1}), "S", t, noise, category_product_ids=("P",))["P"]


class TestSpotRate:
    def test_degenerate_model_returns_baseline(self):
        model = flat_model()
        assert spot_rate(model, 123.4) == 10.0

    def test_seasonal_trough(self):
        # amplitude 3 at phase pi/2 evaluated a quarter period in
        model = flat_model(baseline=10.0, amplitude=3.0, phase=math.pi / 2)
        assert spot_rate(model, 365.0 / 4) == pytest.approx(7.0)

    def test_phase_shift_cancels_at_origin(self):
        model = flat_model(baseline=10.0, amplitude=2.0, phase=-math.pi / 2)
        assert spot_rate(model, 0.0) == pytest.approx(10.0)

    def test_noise_floor(self):
        model = flat_model(baseline=0.5, noise_sd=1.0)
        assert spot_rate(model, 0.0, [-5.0]) == 0.01

    @given(t=st.floats(min_value=0.0, max_value=2000.0),
           amplitude=st.floats(min_value=0.0, max_value=5.0),
           phase=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_noise_free_periodicity(self, t, amplitude, phase):
        model = flat_model(baseline=10.0, amplitude=amplitude, phase=phase)
        a = spot_rate(model, t)
        b = spot_rate(model, t + 365.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_unbiasedness(self):
        model = flat_model(baseline=10.0, amplitude=2.0, phase=0.3, noise_sd=1.0)
        n = 100_000
        normals = np.random.Generator(np.random.PCG64(5)).standard_normal(n).tolist()
        draws = [spot_rate(model, 40.0, [z]) for z in normals]
        expected = 10.0 + 2.0 * math.cos(2 * math.pi * 40.0 / 365.0 + 0.3)
        assert abs(np.mean(draws) - expected) <= 3.0 / math.sqrt(n)


class TestMakeQuote:
    def test_deterministic_reduction_to_seasonal_curve(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0)
        req = requisition({"P1": 4})
        quote = make_quote(spot, req, "B", 365.0 / 4, (), category_product_ids=("P1", "P2", "P3"))
        assert quote == {"P1": pytest.approx(7.0)}

    def test_golden_quote_vector(self, paper_scenario):
        # frozen from a hand-verified run: seasonal curve at t=20 plus the
        # first three standard normals of PCG64 seed 77
        req = requisition({"P1": 10, "P2": 5, "P3": 50})
        noise = np.random.Generator(np.random.PCG64(77)).standard_normal(3).tolist()
        quote = make_quote(paper_scenario.spot, req, "A", 20.0, noise, category_product_ids=("P1", "P2", "P3"))
        assert quote["P1"] == pytest.approx(11.102815763392954, abs=1e-12)
        assert quote["P2"] == pytest.approx(7.546527808087861, abs=1e-12)
        assert quote["P3"] == pytest.approx(10.845907510589281, abs=1e-12)

    def test_noise_alignment_across_scopes(self, paper_scenario):
        # the same noise gives an item the same rate no matter which other
        # items the requisition holds
        noise = np.random.Generator(np.random.PCG64(123)).standard_normal(3).tolist()
        full = make_quote(paper_scenario.spot, requisition({"P1": 10, "P2": 5, "P3": 50}), "A", 20.0, noise,
                          category_product_ids=("P1", "P2", "P3"))
        partial = make_quote(paper_scenario.spot, requisition({"P3": 50}), "A", 20.0, noise,
                             category_product_ids=("P1", "P2", "P3"))
        assert partial == {"P3": full["P3"]}


class TestScopeQuote:
    @staticmethod
    def base_quote(spot, req):
        # noise-free: a quarter period in, supplier B's P1 rate is 7.0
        return make_quote(spot, req, "B", 365.0 / 4, (), category_product_ids=("P1", "P2", "P3"))

    def test_cut_to_scope(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0)
        req = requisition({"P1": 10, "P2": 5, "P3": 50})
        base = self.base_quote(spot, req)
        quotes = scope_quote({"B": base}, req, ("P3",), spot)
        assert quotes == {"B": {"P3": base["P3"]}}

    def test_empty_scope_rejected(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0)
        req = requisition({"P1": 4})
        with pytest.raises(ValueError, match="empty item scope"):
            scope_quote({"B": self.base_quote(spot, req)}, req, (), spot)

    def test_zero_slope_unchanged(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0, competition_slope=0.0)
        req = requisition({"P1": 50})
        base = self.base_quote(spot, req)
        quote = scope_quote({"B": base}, req, ("P1",), spot)["B"]
        assert quote["P1"] == base["P1"] == pytest.approx(7.0)

    def test_mild_competition(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0, competition_slope=0.01)
        req = requisition({"P1": 50})
        quote = scope_quote({"B": self.base_quote(spot, req)}, req, ("P1",), spot)["B"]
        assert quote["P1"] == pytest.approx(7.5)  # 7.0 + 0.01*50

    def test_per_item_competition_applied(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0, competition_slope=0.10)
        req = requisition({"P1": 50})
        quote = scope_quote({"B": self.base_quote(spot, req)}, req, ("P1",), spot)["B"]
        assert quote["P1"] == pytest.approx(12.0)  # 7.0 + 0.1*50

    def test_high_competition(self):
        spot = flat_model(competition_slope=0.10)
        bases = {"S": {"P": 10.0, "Q": 10.0}, "T": {"P": 12.0, "Q": 11.0}}
        quotes = scope_quote(bases, requisition({"P": 50, "Q": 5}), ("P", "Q"), spot)
        # each line is marked up by its own quantity, every supplier's alike
        assert list(quotes) == ["S", "T"]
        assert quotes["S"] == pytest.approx({"P": 15.0, "Q": 10.5})
        assert quotes["T"] == pytest.approx({"P": 17.0, "Q": 11.5})

    @given(q1=st.integers(min_value=1, max_value=1000),
           extra=st.integers(min_value=1, max_value=1000),
           slope=st.floats(min_value=1e-6, max_value=1.0))
    def test_strictly_increasing_in_quantity(self, q1, extra, slope):
        spot = flat_model(competition_slope=slope)
        base = {"P": 10.0}

        def rate(q):
            return scope_quote({"S": base}, requisition({"P": q}), ("P",), spot)["S"]["P"]

        assert rate(q1) < rate(q1 + extra)

    def test_supplier_total_basis_leaves_rates_unadjusted(self, paper_scenario):
        spot = dataclasses.replace(paper_scenario.spot, noise_sd=0.0, competition_slope=0.10,
                                   competition_basis="per_supplier_total")
        req = requisition({"P1": 50})
        base = self.base_quote(spot, req)
        quote = scope_quote({"B": base}, req, ("P1",), spot)["B"]
        assert quote["P1"] == base["P1"] == pytest.approx(7.0)
