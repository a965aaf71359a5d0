"""Cost-matrix construction and allocation-solver tests."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleInstance, exhaustive_allocation, reference_allocate_min_cost
from rto_sim import policy
from rto_sim.domain import PolicyKind, Requisition
from rto_sim.policy import (
    CONTRACT,
    SPOT,
    CostMatrix,
    InfeasibleAllocationError,
    MatrixEntry,
    allocate_min_cost,
    build_cost_matrix,
    decide_rfq_scope,
)

NAIVE = PolicyKind(kind="naive")
DYNAMIC = PolicyKind(kind="dynamic")


def requisition(items):
    return Requisition(id="r", vessel_id="V", category_id="cat", created_at=1.0, items=items)


class TestBuildCostMatrix:
    def test_naive_contract_only(self):
        req = requisition({"P1": 2, "P2": 3})
        terms = {"P1": {"A": 11.0}, "P2": {"B": 11.0}}
        matrix = build_cost_matrix(req, terms, {})
        assert all(e.provenance == CONTRACT for options in matrix.entries.values() for e in options)
        assert [e.supplier_id for e in matrix.entries["P1"]] == ["A"]

    def test_dynamic_union_of_contract_and_quotes(self):
        req = requisition({"P1": 2})
        terms = {"P1": {"A": 11.0}}
        quotes = {"A": {"P1": 9.5}, "B": {"P1": 10.2}, "C": {"P1": 12.8}}
        matrix = build_cost_matrix(req, terms, quotes)
        assert len(matrix.entries["P1"]) == 4
        costs = sorted(e.unit_cost for e in matrix.entries["P1"])
        assert costs == [9.5, 10.2, 11.0, 12.8]

    def test_naive_after_expiry_mixes_spot_and_contract(self):
        # P1/P2 contracts lapsed, P3 still covered: spot columns for the
        # expired items, a contract column for the covered one
        req = requisition({"P1": 2, "P3": 4})
        terms = {"P3": {"C": 12.0}}
        quotes = {s: {"P1": 10.0 + i} for i, s in enumerate(("A", "B", "C"))}
        matrix = build_cost_matrix(req, terms, quotes)
        assert sorted(e.supplier_id for e in matrix.entries["P1"]) == ["A", "B", "C"]
        assert all(e.provenance == SPOT for e in matrix.entries["P1"])
        assert [(e.supplier_id, e.provenance) for e in matrix.entries["P3"]] == [("C", CONTRACT)]

    def test_unquoted_uncovered_item_has_no_admissible_supplier(self):
        req = requisition({"P1": 2, "P2": 1})
        quotes = {"A": {"P1": 10.0}}  # no contract and no rate for P2
        matrix = build_cost_matrix(req, {}, quotes)
        assert matrix.entries["P2"] == ()
        with pytest.raises(InfeasibleAllocationError, match="no admissible supplier for item 'P2'"):
            allocate_min_cost(matrix, req.items, 10.0)

    @pytest.mark.parametrize("policy", [NAIVE, DYNAMIC], ids=["naive", "dynamic"])
    def test_policy_acts_only_through_the_scope(self, policy):
        # quotes cut to the policy's RFQ scope give each item its spot options
        req = requisition({"P1": 2, "P3": 4})
        terms = {"P3": {"C": 12.0}}
        scope = decide_rfq_scope(req, terms, policy)
        quotes = {s: {item: 10.0 + i for item in scope} for i, s in enumerate(("A", "B", "C"))}
        matrix = build_cost_matrix(req, terms, quotes)
        for item in req.items:
            spot = sorted(e.supplier_id for e in matrix.entries[item] if e.provenance == SPOT)
            assert spot == (["A", "B", "C"] if item in scope else [])
        assert ("C", CONTRACT) in [(e.supplier_id, e.provenance) for e in matrix.entries["P3"]]


class TestAllocateMinCost:
    def test_single_supplier_takes_all(self):
        matrix = CostMatrix(entries={
            "P1": (MatrixEntry("A", 5.0, SPOT),),
            "P2": (MatrixEntry("A", 7.0, SPOT),),
        })
        alloc = allocate_min_cost(matrix, {"P1": 1, "P2": 1}, 10.0)
        assert len(alloc.suppliers_used) == 1
        assert alloc.overhead_cost == 0.0
        assert alloc.total_cost == pytest.approx(12.0)

    def test_split_vs_consolidate(self):
        entries = {
            "P1": (MatrixEntry("X", 5.0, SPOT), MatrixEntry("Y", 20.0, SPOT)),
            "P2": (MatrixEntry("X", 20.0, SPOT), MatrixEntry("Y", 5.0, SPOT)),
        }
        quantities = {"P1": 1, "P2": 1}
        split = allocate_min_cost(CostMatrix(entries=entries), quantities, 10.0)
        assert split.total_cost == pytest.approx(20.0)
        assert split.suppliers_used == ("X", "Y")

        merged = allocate_min_cost(CostMatrix(entries=entries), quantities, 25.0)
        assert merged.total_cost == pytest.approx(25.0)
        assert len(merged.suppliers_used) == 1
        assert merged.suppliers_used == ("X",)  # tie broken to the lexicographically smaller set

    def test_no_admissible_supplier(self):
        matrix = CostMatrix(entries={"P1": ()})
        with pytest.raises(InfeasibleAllocationError):
            allocate_min_cost(matrix, {"P1": 1}, 10.0)

    def test_zero_quantity_rejected(self):
        matrix = CostMatrix(entries={"P1": (MatrixEntry("A", 5.0, SPOT),)})
        with pytest.raises(ValueError):
            allocate_min_cost(matrix, {"P1": 0}, 10.0)

    def test_supplier_pool_bound(self):
        matrix = CostMatrix(entries={
            "P1": tuple(MatrixEntry(f"S{i:02d}", 5.0, SPOT) for i in range(13)),
        })
        with pytest.raises(InfeasibleAllocationError, match="exact-search bound"):
            allocate_min_cost(matrix, {"P1": 1}, 10.0)

    def test_supplier_pool_bound_covers_the_coupled_basis(self):
        options = tuple(MatrixEntry(f"S{i:02d}", 5.0, SPOT) for i in range(13))
        matrix = CostMatrix(entries={"P1": options, "P2": options[::-1]}, competition_slope=0.1,
                            competition_basis="per_supplier_total")
        with pytest.raises(InfeasibleAllocationError, match="supplier pool of 13 exceeds"):
            allocate_min_cost(matrix, {"P1": 1, "P2": 1}, 10.0)

    @pytest.mark.parametrize("overhead", [-50.0, math.nan, math.inf])
    def test_negative_or_non_finite_overhead_rejected(self, overhead):
        # at -50 the subset search would return A, A at 20.0, charging the
        # overhead for every supplier of a set, used or not, while A, B costs
        # -10.0; at NaN it would return a NaN cost
        options = (MatrixEntry("A", 10.0, SPOT), MatrixEntry("B", 30.0, SPOT))
        matrix = CostMatrix(entries={"P1": options, "P2": options})
        with pytest.raises(ValueError, match="po_overhead must be finite and non-negative"):
            allocate_min_cost(matrix, {"P1": 1, "P2": 1}, overhead)

    def test_overflowing_order_totals_are_named(self):
        # each item's cheapest option comes from another supplier, so the
        # subset search runs, and every total overflows
        matrix = CostMatrix(entries={
            "P1": (MatrixEntry("A", 1e308, SPOT), MatrixEntry("B", 1.5e308, SPOT)),
            "P2": (MatrixEntry("A", 1.5e308, SPOT), MatrixEntry("B", 1e308, SPOT)),
        })
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(InfeasibleAllocationError, match="every order total overflows"):
                allocate_min_cost(matrix, {"P1": 10, "P2": 10}, 0.0)

    def test_contract_preferred_on_equal_cost(self):
        matrix = CostMatrix(entries={
            "P1": (MatrixEntry("A", 5.0, SPOT), MatrixEntry("A", 5.0, CONTRACT)),
        })
        alloc = allocate_min_cost(matrix, {"P1": 1}, 10.0)
        assert alloc.items["P1"].provenance == CONTRACT

    def test_determinism(self):
        rng = random.Random(3)
        for _ in range(50):
            matrix, quantities = _random_instance(rng)
            a = allocate_min_cost(matrix, quantities, 10.0)
            b = allocate_min_cost(matrix, quantities, 10.0)
            assert a == b

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(20240601)
        for _ in range(300):
            matrix, quantities = _random_instance(rng)
            for overhead in (0.0, 10.0, 25.0):
                _assert_matches_oracle(matrix, quantities, overhead)

    def test_tie_break_pins_the_minimizer(self):
        # small integer costs make exact ties common; among the minimizers the
        # solver takes the fewest suppliers, then the smallest supplier set,
        # then the smallest per-item supplier tuple
        rng = random.Random(5)
        for _ in range(3000):
            matrix, quantities = _random_instance(rng, cost_range=(1, 3))
            costs = {item: {e.supplier_id: e.unit_cost for e in options}
                     for item, options in matrix.entries.items()}
            for overhead in (0.0, 1.0, 3.0):
                _, minimizers = exhaustive_allocation(OracleInstance(costs, quantities, overhead))
                want = min(minimizers, key=lambda m: (len(set(m.values())), sorted(set(m.values())),
                                                      [m[item] for item in sorted(m)]))
                alloc = allocate_min_cost(matrix, quantities, overhead)
                assert {item: a.supplier_id for item, a in alloc.items.items()} == want

    def test_contract_only_matrices_solve_alike_under_every_basis_and_slope(self):
        # an empty RFQ scope leaves contract rates only, which carry no
        # markup; so run_once shares such a decision across bases and slopes.
        # Integer costs 1-3 make exact ties common
        rng = random.Random(2024)
        markups = [("per_item", 0.1), ("per_supplier_total", 0.0), ("per_supplier_total", 0.05),
                   ("per_supplier_total", 1.0)]
        for _ in range(4000):
            suppliers = [f"S{i}" for i in range(rng.randint(1, 5))]
            entries = {}
            for k in range(rng.randint(1, 4)):
                holders = [s for s in suppliers if rng.random() < 0.6] or [rng.choice(suppliers)]
                entries[f"P{k}"] = tuple(MatrixEntry(s, float(rng.randint(1, 3)), CONTRACT) for s in holders)
            quantities = {item: rng.randint(1, 10) for item in entries}
            for overhead in (0.0, 1.0, 3.0):
                want = allocate_min_cost(CostMatrix(entries=entries), quantities, overhead)
                for basis, slope in markups:
                    matrix = CostMatrix(entries=entries, competition_slope=slope, competition_basis=basis)
                    assert allocate_min_cost(matrix, quantities, overhead) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           h1=st.sampled_from([0.0, 5.0, 10.0]), extra=st.sampled_from([5.0, 15.0, 40.0]))
    def test_overhead_monotonicity(self, seed, h1, extra):
        matrix, quantities = _random_instance(random.Random(seed))
        low = allocate_min_cost(matrix, quantities, h1)
        high = allocate_min_cost(matrix, quantities, h1 + extra)
        assert low.total_cost <= high.total_cost + 1e-9
        assert len(high.suppliers_used) <= len(low.suppliers_used)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_dynamic_superset_never_costs_more(self, seed):
        # column-wise superset of options can only lower the optimal cost
        rng = random.Random(seed)
        matrix, quantities = _random_instance(rng)
        widened = {}
        for item, options in matrix.entries.items():
            extra = MatrixEntry("Z", float(rng.randint(1, 20)), SPOT)
            widened[item] = options + (extra,)
        base = allocate_min_cost(matrix, quantities, 10.0)
        wide = allocate_min_cost(CostMatrix(entries=widened), quantities, 10.0)
        assert wide.total_cost <= base.total_cost + 1e-9


class TestSupplierTotalBasis:
    def test_matches_inline_brute_force(self):
        rng = random.Random(77)
        for _ in range(60):
            matrix, quantities = _random_instance(rng, basis="per_supplier_total", slope=0.1)
            got = allocate_min_cost(matrix, quantities, 10.0)
            want = _total_basis_brute_force(matrix, quantities, 10.0)
            assert got.total_cost == pytest.approx(want, abs=1e-9)

    def test_markup_scales_with_allocated_volume(self):
        matrix = CostMatrix(
            entries={
                "P1": (MatrixEntry("A", 10.0, SPOT),),
                "P2": (MatrixEntry("A", 10.0, SPOT),),
            },
            competition_slope=0.1,
            competition_basis="per_supplier_total",
        )
        alloc = allocate_min_cost(matrix, {"P1": 10, "P2": 30}, 0.0)
        # both items carry the 0.1 * 40 supplier-total markup
        assert alloc.items["P1"].unit_cost == pytest.approx(14.0)
        assert alloc.items["P2"].unit_cost == pytest.approx(14.0)


class TestArraySearches:
    """The array searches and the fast path against the scalar reference solver, bit for bit."""

    def test_matches_the_reference_on_random_matrices(self):
        # integer costs 1-3 make exact ties common; a mixed instance lets one
        # supplier offer an item both under contract and on spot; the
        # instance's options come sorted by supplier, so each is also solved
        # with every item's options shuffled
        rng, shuffler = random.Random(8), random.Random(9)
        for _ in range(20_000):
            basis = rng.choice(("per_item", "per_supplier_total"))
            slope = rng.choice((0.0, 0.05, 0.1))
            matrix, quantities = _random_instance(rng, basis, slope, cost_range=(1, 3), max_items=4,
                                                  max_suppliers=6, mixed=True)
            overhead = rng.choice((0.0, 1.0, 3.0))
            _assert_matches_reference(matrix, quantities, overhead)
            shuffled = {item: tuple(shuffler.sample(options, len(options)))
                        for item, options in matrix.entries.items()}
            _assert_matches_reference(dataclasses.replace(matrix, entries=shuffled), quantities,
                                      overhead)

    def test_spot_first_options_from_one_supplier_still_split(self):
        # both items on A would cost (5 + 0.1 * 20) * 20 = 140; the split
        # costs (5 + 1) * 10 + (5.5 + 1) * 10 = 125
        options = (MatrixEntry("A", 5.0, SPOT), MatrixEntry("B", 5.5, SPOT))
        matrix = CostMatrix(entries={"P1": options, "P2": options}, competition_slope=0.1,
                            competition_basis="per_supplier_total")
        alloc = allocate_min_cost(matrix, {"P1": 10, "P2": 10}, 0.0)
        assert alloc.total_cost == 125.0
        assert {item: a.supplier_id for item, a in alloc.items.items()} == {"P1": "A", "P2": "B"}

    @pytest.mark.parametrize("basis, slope, search", [
        ("per_supplier_total", 0.1, "_allocate_by_assignment_enumeration"),
        ("per_item", 0.0, "_allocate_by_supplier_subsets"),
    ])
    def test_first_options_from_one_supplier_skip_the_search(self, monkeypatch, basis, slope, search):
        # every item's cheapest option is A's contract rate, so no search runs
        def no_search(*args):
            raise AssertionError("the search ran")

        matrix = CostMatrix(entries={
            "P1": (MatrixEntry("A", 5.0, CONTRACT), MatrixEntry("B", 6.0, SPOT)),
            "P2": (MatrixEntry("A", 6.0, CONTRACT), MatrixEntry("B", 6.5, SPOT),
                   MatrixEntry("A", 6.0, SPOT)),
        }, competition_slope=slope, competition_basis=basis)
        quantities = {"P1": 3, "P2": 4}
        want = reference_allocate_min_cost(matrix, quantities, 10.0)
        monkeypatch.setattr(policy, search, no_search)
        alloc = allocate_min_cost(matrix, quantities, 10.0)
        assert alloc == want
        assert {(a.supplier_id, a.provenance) for a in alloc.items.values()} == {("A", CONTRACT)}

    @pytest.mark.parametrize("block", [2, 7])
    def test_small_blocks_match_the_reference(self, monkeypatch, block):
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", block)
        rng = random.Random(block)
        for _ in range(2000):
            matrix, quantities = _random_instance(rng, "per_supplier_total", 0.1, cost_range=(1, 3),
                                                  max_items=4, max_suppliers=4, mixed=True)
            _assert_matches_reference(matrix, quantities, rng.choice((0.0, 1.0, 3.0)))

    def test_tie_straddling_two_blocks(self, monkeypatch):
        # assignments 0 (A, B) and 2 (B, B) both total 2; the second, in the
        # second block, wins on fewer suppliers
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", 2)
        matrix = CostMatrix(entries={
            "P1": (MatrixEntry("A", 1.0, CONTRACT), MatrixEntry("B", 1.0, CONTRACT)),
            "P2": (MatrixEntry("B", 1.0, CONTRACT), MatrixEntry("C", 5.0, SPOT)),
        }, competition_slope=0.1, competition_basis="per_supplier_total")
        alloc = allocate_min_cost(matrix, {"P1": 1, "P2": 1}, 0.0)
        assert alloc.suppliers_used == ("B",)
        assert alloc == reference_allocate_min_cost(matrix, {"P1": 1, "P2": 1}, 0.0)

    def test_full_tie_straddling_two_blocks_keeps_the_earlier_row(self, monkeypatch):
        # in (supplier, provenance) order, assignments 0 (A contract, A
        # contract) and 2 (A spot at 0.5 + 0.5 * 1, A contract) both total 2.0
        # on the set {A}; the first, in the first block, wins
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", 2)
        matrix = CostMatrix(entries={
            "P1": (MatrixEntry("A", 0.5, SPOT), MatrixEntry("A", 1.0, CONTRACT)),
            "P2": (MatrixEntry("B", 5.0, SPOT), MatrixEntry("A", 1.0, CONTRACT)),
        }, competition_slope=0.5, competition_basis="per_supplier_total")
        alloc = allocate_min_cost(matrix, {"P1": 1, "P2": 1}, 0.0)
        assert {item: a.provenance for item, a in alloc.items.items()} == {"P1": CONTRACT,
                                                                           "P2": CONTRACT}
        assert alloc.total_cost == 2.0
        assert alloc == reference_allocate_min_cost(matrix, {"P1": 1, "P2": 1}, 0.0)

    @pytest.mark.parametrize("n_suppliers", range(1, 13))
    def test_supplier_sets_in_tie_break_order(self, n_suppliers):
        member, sizes, rank = policy._supplier_sets(n_suppliers)
        subsets = [subset for size in range(1, n_suppliers + 1)
                   for subset in itertools.combinations(range(n_suppliers), size)]
        assert [tuple(row.nonzero()[0]) for row in member[:, :-1]] == subsets
        assert member[:, -1].all()
        assert (sizes == member.sum(axis=1) - 1).all()
        masks = [sum(1 << index for index in subset) for subset in subsets]
        assert (rank[masks] == range(len(subsets))).all()
        assert not (member.flags.writeable or sizes.flags.writeable or rank.flags.writeable)

    def test_a_million_assignments_stay_within_32_mb(self):
        rng = random.Random(6)
        suppliers = [f"S{i}" for i in range(10)]
        entries = {f"P{k}": tuple(MatrixEntry(s, rng.uniform(5.0, 15.0), SPOT) for s in suppliers)
                   for k in range(6)}
        matrix = CostMatrix(entries=entries, competition_slope=0.01,
                            competition_basis="per_supplier_total")
        quantities = {item: rng.randint(1, 10) for item in entries}
        tracemalloc.start()
        try:
            alloc = allocate_min_cost(matrix, quantities, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert len(alloc.items) == 6


class TestLayoutCache:
    """The enumeration's cached index arrays: read-only, bounded, and never a change in the result."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        policy._enumeration_layout.cache_clear()
        yield
        policy._enumeration_layout.cache_clear()

    def test_layout_arrays_are_read_only(self):
        arrays = policy._enumeration_layout((2, 3), bytes([0, 1, 0, 1, 2]), 3, 0, 6)
        assert not any(array.flags.writeable for array in arrays)

    def test_cold_and_warm_solves_are_bit_identical(self):
        rng = random.Random(15)
        warm_solves = 0
        for _ in range(300):
            matrix, quantities = _sparse_coupled_instance(rng)
            overhead = rng.choice((0.0, 1.0, 3.0))
            allocate_min_cost(matrix, quantities, overhead)
            warm = allocate_min_cost(matrix, quantities, overhead)
            warm_solves += policy._enumeration_layout.cache_info().hits
            policy._enumeration_layout.cache_clear()
            cold = allocate_min_cost(matrix, quantities, overhead)
            assert _bits(cold) == _bits(warm)
        assert warm_solves > 100

    def test_warm_cache_at_a_smaller_block_matches_the_reference(self, monkeypatch):
        rng = random.Random(16)
        instances = [(*_sparse_coupled_instance(rng), rng.choice((0.0, 1.0, 3.0))) for _ in range(300)]
        for matrix, quantities, overhead in instances:
            allocate_min_cost(matrix, quantities, overhead)
        assert policy._enumeration_layout.cache_info().currsize > 0
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", 2)
        for matrix, quantities, overhead in instances:
            _assert_matches_reference(matrix, quantities, overhead)

    @pytest.mark.parametrize("bound, value", [("_ENUMERATION_BLOCK", 4), ("_LAYOUT_CACHE_CELLS", 8)])
    def test_only_a_space_within_the_bounds_is_cached(self, monkeypatch, bound, value):
        # 2 items of 2 options: 4 rows of 8 cells; 2 items of 3 options: 9 rows of 18 cells
        monkeypatch.setattr(policy, bound, value)
        cached = policy._enumeration_layout.cache_info
        for n_options, currsize in ((3, 0), (2, 1)):
            options = tuple(MatrixEntry(f"S{i}", 5.0 + i, SPOT) for i in range(n_options))
            matrix = CostMatrix(entries={"P1": options, "P2": options[::-1]}, competition_slope=0.1,
                                competition_basis="per_supplier_total")
            _assert_matches_reference(matrix, {"P1": 3, "P2": 4}, 1.0)
            assert cached().currsize == currsize

    def test_a_full_cache_of_the_largest_entries_stays_under_34_mb(self):
        # one item of 2**14 options: 2**14 rows and 2**14 cells, the most an
        # entry may hold; a rotated supplier column makes each key distinct
        n = policy._LAYOUT_CACHE_CELLS
        columns = bytes(i % 12 for i in range(n))
        tracemalloc.start()
        try:
            for k in range(policy._LAYOUT_CACHE_ENTRIES + 1):
                policy._enumeration_layout((n,), columns[k:] + columns[:k], 12, 0, n)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert policy._enumeration_layout.cache_info().currsize == policy._LAYOUT_CACHE_ENTRIES
        assert current < 34 * 2 ** 20


class TestDecideRfqScope:
    def test_all_contracted_naive_skips_rfq(self):
        req = requisition({"P1": 1, "P2": 1})
        terms = {"P1": {"A": 11.0}, "P2": {"B": 11.0}}
        assert decide_rfq_scope(req, terms, NAIVE) == ()

    def test_dynamic_full_cross_product(self):
        req = requisition({"P1": 1, "P2": 1, "P3": 1})
        terms = {"P1": {"A": 11.0}}
        assert decide_rfq_scope(req, terms, DYNAMIC) == ("P1", "P2", "P3")

    def test_naive_quotes_expired_items_from_all_suppliers(self):
        # after the half-year contracts lapse, their items go to the full
        # spot round while still-covered items skip it
        req = requisition({"P1": 1, "P2": 1, "P3": 1})
        terms = {"P3": {"C": 12.0}}
        assert decide_rfq_scope(req, terms, NAIVE) == ("P1", "P2")


def _random_instance(rng: random.Random, basis: str = "per_item", slope: float = 0.0,
                     cost_range: tuple[int, int] = (1, 20), max_items: int = 5,
                     max_suppliers: int = 3, mixed: bool = False):
    n_items = rng.randint(1, max_items)
    n_suppliers = rng.randint(1, max_suppliers)
    suppliers = [f"S{i}" for i in range(n_suppliers)]
    entries = {}
    quantities = {}
    for k in range(n_items):
        item = f"P{k}"
        # every item keeps at least one option so instances stay feasible
        available = [s for s in suppliers if rng.random() < 0.8] or [rng.choice(suppliers)]
        options = []
        for s in sorted(available):
            # a mixed instance lets a supplier offer the item under contract,
            # on spot, or both
            kinds = rng.choice(((CONTRACT,), (SPOT,), (CONTRACT, SPOT))) if mixed else (SPOT,)
            options += [MatrixEntry(s, float(rng.randint(*cost_range)), kind) for kind in kinds]
        entries[item] = tuple(options)
        quantities[item] = rng.randint(1, 10)
    return CostMatrix(entries=entries, competition_slope=slope, competition_basis=basis), quantities


def _sparse_coupled_instance(rng: random.Random):
    """1-5 items of 1-4 options each from a pool of up to 12 suppliers, under a coupled markup.

    Integer costs 1-3 make exact ties common; a supplier may offer an item
    under contract, on spot, or both.
    """
    suppliers = [f"S{i:02d}" for i in range(rng.randint(1, 12))]
    pairs = [(s, kind) for s in suppliers for kind in (CONTRACT, SPOT)]
    entries = {f"P{k}": tuple(MatrixEntry(s, float(rng.randint(1, 3)), kind)
                              for s, kind in rng.sample(pairs, min(len(pairs), rng.randint(1, 4))))
               for k in range(rng.randint(1, 5))}
    quantities = {item: rng.randint(1, 10) for item in entries}
    matrix = CostMatrix(entries=entries, competition_slope=rng.choice((0.05, 0.1, 1.0)),
                        competition_basis="per_supplier_total")
    return matrix, quantities


def _bits(alloc):
    return ({item: (a.supplier_id, a.provenance, a.unit_cost.hex(), a.quantity)
             for item, a in alloc.items.items()}, alloc.overhead_cost.hex())


def _assert_matches_reference(matrix, quantities, overhead):
    got = allocate_min_cost(matrix, quantities, overhead)
    want = reference_allocate_min_cost(matrix, quantities, overhead)
    assert ({item: (a.supplier_id, a.provenance, a.unit_cost) for item, a in got.items.items()}
            == {item: (a.supplier_id, a.provenance, a.unit_cost) for item, a in want.items.items()})
    assert got.overhead_cost == want.overhead_cost


def _assert_matches_oracle(matrix, quantities, overhead):
    costs = {
        item: {e.supplier_id: e.unit_cost for e in options}
        for item, options in matrix.entries.items()
    }
    best, minimizers = exhaustive_allocation(OracleInstance(costs, quantities, overhead))
    alloc = allocate_min_cost(matrix, quantities, overhead)
    assert alloc.total_cost == pytest.approx(best, abs=1e-9)
    assignment = {item: a.supplier_id for item, a in alloc.items.items()}
    assert assignment in minimizers


def _total_basis_brute_force(matrix, quantities, overhead):
    import itertools

    items = sorted(matrix.entries)
    best = None
    for combo in itertools.product(*[matrix.entries[i] for i in items]):
        spot_units = {}
        for item, entry in zip(items, combo):
            if entry.provenance == SPOT:
                spot_units[entry.supplier_id] = spot_units.get(entry.supplier_id, 0) + quantities[item]
        total = overhead * (len({e.supplier_id for e in combo}) - 1)
        for item, entry in zip(items, combo):
            rate = entry.unit_cost
            if entry.provenance == SPOT:
                rate += matrix.competition_slope * spot_units[entry.supplier_id]
            total += rate * quantities[item]
        if best is None or total < best:
            best = total
    return best
