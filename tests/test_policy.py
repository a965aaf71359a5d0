"""Cost-matrix construction and allocation-solver tests."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import OracleInstance, exhaustive_allocation, reference_allocate_min_cost
from rto_sim import policy
from rto_sim.domain import PolicyKind, Requisition
from rto_sim.policy import (
    CONTRACT,
    SPOT,
    Decision,
    InfeasibleAllocationError,
    allocate_min_cost,
    build_cost_matrix,
    decide_rfq_scope,
)

NAIVE = PolicyKind(kind="naive")
DYNAMIC = PolicyKind(kind="dynamic")
# an option's rank in a Decision
CONTRACT_RATE, SPOT_QUOTE = 0, 1


def requisition(items):
    """A requisition as build_requisition gives one: items in product order."""
    return Requisition(id="r", vessel_id="V", category_id="cat", created_at=1.0, items=dict(sorted(items.items())))


class TestBuildCostMatrix:
    def test_naive_contract_only(self):
        req = requisition({"P2": 3, "P1": 2})
        terms = {"P1": {"A": 11.0}, "P2": {"B": 11.0}}
        decision = build_cost_matrix(req, terms, {}, 10.0)
        assert decision == Decision(("P1", "P2"), (2, 3), [[(11.0, "A", CONTRACT_RATE)],
                                                           [(11.0, "B", CONTRACT_RATE)]], 10.0, 0.0)

    def test_dynamic_union_of_contract_and_quotes(self):
        req = requisition({"P1": 2})
        terms = {"P1": {"A": 11.0}}
        quotes = {"C": {"P1": 12.8}, "A": {"P1": 9.5}, "B": {"P1": 10.2}}
        decision = build_cost_matrix(req, terms, quotes, 10.0)
        # contract rates first, then quotes, each kind in supplier order
        assert decision.options == [[(11.0, "A", CONTRACT_RATE), (9.5, "A", SPOT_QUOTE),
                                     (10.2, "B", SPOT_QUOTE), (12.8, "C", SPOT_QUOTE)]]

    def test_naive_after_expiry_mixes_spot_and_contract(self):
        # P1/P2 contracts lapsed, P3 still covered: spot options for the
        # expired items, a contract option for the covered one
        req = requisition({"P1": 2, "P3": 4})
        terms = {"P3": {"C": 12.0}}
        quotes = {s: {"P1": 10.0 + i} for i, s in enumerate(("A", "B", "C"))}
        decision = build_cost_matrix(req, terms, quotes, 10.0)
        options = dict(zip(decision.items, decision.options))
        assert [(supplier, rank) for _, supplier, rank in options["P1"]] == [
            ("A", SPOT_QUOTE), ("B", SPOT_QUOTE), ("C", SPOT_QUOTE)]
        assert [(supplier, rank) for _, supplier, rank in options["P3"]] == [("C", CONTRACT_RATE)]

    def test_unquoted_uncovered_item_has_no_admissible_supplier(self):
        req = requisition({"P1": 2, "P2": 1})
        quotes = {"A": {"P1": 10.0}}  # no contract and no rate for P2
        decision = build_cost_matrix(req, {}, quotes, 10.0)
        assert decision.options[1] == []
        with pytest.raises(InfeasibleAllocationError, match="no admissible supplier for item 'P2'"):
            allocate_min_cost(decision)

    @pytest.mark.parametrize("policy", [NAIVE, DYNAMIC], ids=["naive", "dynamic"])
    def test_policy_acts_only_through_the_scope(self, policy):
        # quotes cut to the policy's RFQ scope give each item its spot options
        req = requisition({"P1": 2, "P3": 4})
        terms = {"P3": {"C": 12.0}}
        scope = decide_rfq_scope(req, terms, policy)
        quotes = {s: {item: 10.0 + i for item in scope} for i, s in enumerate(("A", "B", "C"))}
        decision = build_cost_matrix(req, terms, quotes, 10.0)
        options = dict(zip(decision.items, decision.options))
        for item in req.items:
            spot = [supplier for _, supplier, rank in options[item] if rank == SPOT_QUOTE]
            assert spot == (["A", "B", "C"] if item in scope else [])
        assert (12.0, "C", CONTRACT_RATE) in options["P3"]

    @pytest.mark.parametrize("basis, slope, coupled", [
        ("per_item", 0.0, 0.0), ("per_item", 0.1, 0.0),
        ("per_supplier_total", 0.0, 0.0), ("per_supplier_total", 0.1, 0.1),
    ])
    def test_the_slope_couples_the_items_only_under_per_supplier_total(self, basis, slope, coupled):
        # under per_item the quoted rates already carry the markup
        req = requisition({"P1": 2})
        decision = build_cost_matrix(req, {}, {"A": {"P1": 10.0}}, 5.0, competition_slope=slope,
                                     competition_basis=basis)
        assert (decision.po_overhead, decision.slope) == (5.0, coupled)


class TestAllocateMinCost:
    def test_single_supplier_takes_all(self):
        decision = Decision(("P1", "P2"), (1, 1), [[(5.0, "A", SPOT_QUOTE)], [(7.0, "A", SPOT_QUOTE)]], 10.0)
        alloc = allocate_min_cost(decision)
        assert len(alloc.suppliers_used) == 1
        assert alloc.overhead_cost == 0.0
        assert alloc.total_cost == pytest.approx(12.0)

    def test_split_vs_consolidate(self):
        options = [[(5.0, "X", SPOT_QUOTE), (20.0, "Y", SPOT_QUOTE)],
                   [(20.0, "X", SPOT_QUOTE), (5.0, "Y", SPOT_QUOTE)]]
        split = allocate_min_cost(Decision(("P1", "P2"), (1, 1), options, 10.0))
        assert split.total_cost == pytest.approx(20.0)
        assert split.suppliers_used == ("X", "Y")

        merged = allocate_min_cost(Decision(("P1", "P2"), (1, 1), options, 25.0))
        assert merged.total_cost == pytest.approx(25.0)
        assert len(merged.suppliers_used) == 1
        assert merged.suppliers_used == ("X",)  # tie broken to the lexicographically smaller set

    def test_no_admissible_supplier(self):
        with pytest.raises(InfeasibleAllocationError):
            allocate_min_cost(Decision(("P1",), (1,), [[]], 10.0))

    def test_zero_quantity_rejected(self):
        with pytest.raises(ValueError):
            allocate_min_cost(Decision(("P1",), (0,), [[(5.0, "A", SPOT_QUOTE)]], 10.0))

    def test_supplier_pool_bound(self):
        options = [(5.0, f"S{i:02d}", SPOT_QUOTE) for i in range(13)]
        with pytest.raises(InfeasibleAllocationError, match="exact-search bound"):
            allocate_min_cost(Decision(("P1",), (1,), [options], 10.0))

    def test_supplier_pool_bound_covers_the_coupled_basis(self):
        options = [(5.0, f"S{i:02d}", SPOT_QUOTE) for i in range(13)]
        decision = Decision(("P1", "P2"), (1, 1), [options, options[::-1]], 10.0, 0.1)
        with pytest.raises(InfeasibleAllocationError, match="supplier pool of 13 exceeds"):
            allocate_min_cost(decision)

    @pytest.mark.parametrize("overhead", [-50.0, math.nan, math.inf])
    def test_negative_or_non_finite_overhead_rejected(self, overhead):
        # at -50 the subset search would return A, A at 20.0, charging the
        # overhead for every supplier of a set, used or not, while A, B costs
        # -10.0; at NaN it would return a NaN cost
        options = [(10.0, "A", SPOT_QUOTE), (30.0, "B", SPOT_QUOTE)]
        with pytest.raises(ValueError, match="po_overhead must be finite and non-negative"):
            allocate_min_cost(Decision(("P1", "P2"), (1, 1), [options, options], overhead))

    def test_overflowing_order_totals_are_named(self):
        # each item's cheapest option comes from another supplier, so the
        # subset search runs, and every total overflows
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(InfeasibleAllocationError, match="every order total overflows"):
                allocate_min_cost(_overflowing_decision())

    def test_contract_preferred_on_equal_cost(self):
        decision = Decision(("P1",), (1,), [[(5.0, "A", SPOT_QUOTE), (5.0, "A", CONTRACT_RATE)]], 10.0)
        alloc = allocate_min_cost(decision)
        assert alloc.items["P1"].provenance == CONTRACT

    def test_determinism(self):
        rng = random.Random(3)
        for _ in range(50):
            decision = _random_instance(rng)
            assert allocate_min_cost(decision) == allocate_min_cost(decision)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(20240601)
        for _ in range(300):
            decision = _random_instance(rng)
            for overhead in (0.0, 10.0, 25.0):
                _assert_matches_oracle(decision._replace(po_overhead=overhead))

    def test_tie_break_pins_the_minimizer(self):
        # small integer costs make exact ties common; among the minimizers the
        # solver takes the fewest suppliers, then the smallest supplier set,
        # then the smallest per-item supplier tuple
        rng = random.Random(5)
        for _ in range(3000):
            decision = _random_instance(rng, cost_range=(1, 3))
            for overhead in (0.0, 1.0, 3.0):
                _, minimizers = exhaustive_allocation(_oracle_instance(decision, overhead))
                want = min(minimizers, key=lambda m: (len(set(m.values())), sorted(set(m.values())),
                                                      [m[item] for item in sorted(m)]))
                alloc = allocate_min_cost(decision._replace(po_overhead=overhead))
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
            terms = {}
            for k in range(rng.randint(1, 4)):
                holders = [s for s in suppliers if rng.random() < 0.6] or [rng.choice(suppliers)]
                terms[f"P{k}"] = {s: float(rng.randint(1, 3)) for s in holders}
            req = requisition({item: rng.randint(1, 10) for item in terms})
            for overhead in (0.0, 1.0, 3.0):
                want = allocate_min_cost(build_cost_matrix(req, terms, {}, overhead))
                for basis, slope in markups:
                    decision = build_cost_matrix(req, terms, {}, overhead, competition_slope=slope,
                                                 competition_basis=basis)
                    assert allocate_min_cost(decision) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           h1=st.sampled_from([0.0, 5.0, 10.0]), extra=st.sampled_from([5.0, 15.0, 40.0]))
    def test_overhead_monotonicity(self, seed, h1, extra):
        decision = _random_instance(random.Random(seed))
        low = allocate_min_cost(decision._replace(po_overhead=h1))
        high = allocate_min_cost(decision._replace(po_overhead=h1 + extra))
        assert low.total_cost <= high.total_cost + 1e-9
        assert len(high.suppliers_used) <= len(low.suppliers_used)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_dynamic_superset_never_costs_more(self, seed):
        # column-wise superset of options can only lower the optimal cost
        rng = random.Random(seed)
        decision = _random_instance(rng)
        widened = [[*options, (float(rng.randint(1, 20)), "Z", SPOT_QUOTE)] for options in decision.options]
        base = allocate_min_cost(decision)
        wide = allocate_min_cost(decision._replace(options=widened))
        assert wide.total_cost <= base.total_cost + 1e-9


class TestSupplierTotalBasis:
    def test_matches_inline_brute_force(self):
        rng = random.Random(77)
        for _ in range(60):
            decision = _random_instance(rng, basis="per_supplier_total", slope=0.1)
            got = allocate_min_cost(decision)
            assert got.total_cost == pytest.approx(_total_basis_brute_force(decision), abs=1e-9)

    def test_markup_scales_with_allocated_volume(self):
        decision = Decision(("P1", "P2"), (10, 30), [[(10.0, "A", SPOT_QUOTE)], [(10.0, "A", SPOT_QUOTE)]],
                            0.0, 0.1)
        alloc = allocate_min_cost(decision)
        # both items carry the 0.1 * 40 supplier-total markup
        assert alloc.items["P1"].unit_cost == pytest.approx(14.0)
        assert alloc.items["P2"].unit_cost == pytest.approx(14.0)


class TestArraySearches:
    """The array searches and the fast path against the scalar reference solver, bit for bit."""

    def test_matches_the_reference_on_random_matrices(self):
        # integer costs 1-3 make exact ties common; a mixed instance lets one
        # supplier offer an item both under contract and on spot; the
        # builder lists each item's options contract rates first, so each
        # instance is also solved with every item's options shuffled
        rng, shuffler = random.Random(8), random.Random(9)
        for _ in range(20_000):
            basis = rng.choice(("per_item", "per_supplier_total"))
            slope = rng.choice((0.0, 0.05, 0.1))
            decision = _random_instance(rng, basis, slope, cost_range=(1, 3), max_items=4,
                                        max_suppliers=6, mixed=True)
            decision = decision._replace(po_overhead=rng.choice((0.0, 1.0, 3.0)))
            _assert_matches_reference(decision)
            shuffled = [shuffler.sample(options, len(options)) for options in decision.options]
            _assert_matches_reference(decision._replace(options=shuffled))

    def test_spot_first_options_from_one_supplier_still_split(self):
        # both items on A would cost (5 + 0.1 * 20) * 20 = 140; the split
        # costs (5 + 1) * 10 + (5.5 + 1) * 10 = 125
        options = [(5.0, "A", SPOT_QUOTE), (5.5, "B", SPOT_QUOTE)]
        alloc = allocate_min_cost(Decision(("P1", "P2"), (10, 10), [options, options], 0.0, 0.1))
        assert alloc.total_cost == 125.0
        assert {item: a.supplier_id for item, a in alloc.items.items()} == {"P1": "A", "P2": "B"}

    @pytest.mark.parametrize("basis, slope, search", [
        ("per_supplier_total", 0.1, "_enumerate_assignments"),
        ("per_item", 0.0, "_search_supplier_subsets"),
    ])
    def test_first_options_from_one_supplier_skip_the_search(self, monkeypatch, basis, slope, search):
        # every item's cheapest option is A's contract rate, so no search runs
        def no_search(*args):
            raise AssertionError("the search ran")

        terms = {"P1": {"A": 5.0}, "P2": {"A": 6.0}}
        quotes = {"A": {"P2": 6.0}, "B": {"P1": 6.0, "P2": 6.5}}
        decision = build_cost_matrix(requisition({"P1": 3, "P2": 4}), terms, quotes, 10.0,
                                     competition_slope=slope, competition_basis=basis)
        want = reference_allocate_min_cost(decision)
        monkeypatch.setattr(policy, search, no_search)
        alloc = allocate_min_cost(decision)
        assert alloc == want
        assert {(a.supplier_id, a.provenance) for a in alloc.items.values()} == {("A", CONTRACT)}

    @pytest.mark.parametrize("block", [2, 7])
    def test_small_blocks_match_the_reference(self, monkeypatch, block):
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", block)
        rng = random.Random(block)
        for _ in range(2000):
            decision = _random_instance(rng, "per_supplier_total", 0.1, cost_range=(1, 3), max_items=4,
                                        max_suppliers=4, mixed=True)
            _assert_matches_reference(decision._replace(po_overhead=rng.choice((0.0, 1.0, 3.0))))

    def test_tie_straddling_two_blocks(self, monkeypatch):
        # assignments 0 (A, B) and 2 (B, B) both total 2; the second, in the
        # second block, wins on fewer suppliers
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", 2)
        decision = Decision(("P1", "P2"), (1, 1), [[(1.0, "A", CONTRACT_RATE), (1.0, "B", CONTRACT_RATE)],
                                                   [(1.0, "B", CONTRACT_RATE), (5.0, "C", SPOT_QUOTE)]],
                            0.0, 0.1)
        alloc = allocate_min_cost(decision)
        assert alloc.suppliers_used == ("B",)
        assert alloc == reference_allocate_min_cost(decision)

    def test_full_tie_straddling_two_blocks_keeps_the_earlier_row(self, monkeypatch):
        # in (supplier, provenance) order, assignments 0 (A contract, A
        # contract) and 2 (A spot at 0.5 + 0.5 * 1, A contract) both total 2.0
        # on the set {A}; the first, in the first block, wins
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", 2)
        decision = Decision(("P1", "P2"), (1, 1), [[(0.5, "A", SPOT_QUOTE), (1.0, "A", CONTRACT_RATE)],
                                                   [(5.0, "B", SPOT_QUOTE), (1.0, "A", CONTRACT_RATE)]],
                            0.0, 0.5)
        alloc = allocate_min_cost(decision)
        assert {item: a.provenance for item, a in alloc.items.items()} == {"P1": CONTRACT,
                                                                           "P2": CONTRACT}
        assert alloc.total_cost == 2.0
        assert alloc == reference_allocate_min_cost(decision)

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
        items = tuple(f"P{k}" for k in range(6))
        options = [[(rng.uniform(5.0, 15.0), f"S{i}", SPOT_QUOTE) for i in range(10)] for _ in items]
        decision = Decision(items, tuple(rng.randint(1, 10) for _ in items), options, 10.0, 0.01)
        tracemalloc.start()
        try:
            alloc = allocate_min_cost(decision)
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
            decision = _sparse_coupled_instance(rng)
            allocate_min_cost(decision)
            warm = allocate_min_cost(decision)
            warm_solves += policy._enumeration_layout.cache_info().hits
            policy._enumeration_layout.cache_clear()
            cold = allocate_min_cost(decision)
            assert _bits(cold) == _bits(warm)
        assert warm_solves > 100

    def test_warm_cache_at_a_smaller_block_matches_the_reference(self, monkeypatch):
        rng = random.Random(16)
        decisions = [_sparse_coupled_instance(rng) for _ in range(300)]
        for decision in decisions:
            allocate_min_cost(decision)
        assert policy._enumeration_layout.cache_info().currsize > 0
        monkeypatch.setattr(policy, "_ENUMERATION_BLOCK", 2)
        for decision in decisions:
            _assert_matches_reference(decision)

    @pytest.mark.parametrize("bound, value", [("_ENUMERATION_BLOCK", 4), ("_LAYOUT_CACHE_CELLS", 8)])
    def test_only_a_space_within_the_bounds_is_cached(self, monkeypatch, bound, value):
        # 2 items of 2 options: 4 rows of 8 cells; 2 items of 3 options: 9 rows of 18 cells
        monkeypatch.setattr(policy, bound, value)
        cached = policy._enumeration_layout.cache_info
        for n_options, currsize in ((3, 0), (2, 1)):
            options = [(5.0 + i, f"S{i}", SPOT_QUOTE) for i in range(n_options)]
            _assert_matches_reference(Decision(("P1", "P2"), (3, 4), [options, options[::-1]], 1.0, 0.1))
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


class TestAllocateBatch:
    """Many decisions in one call, each against the scalar reference and the one-decision solve."""

    @pytest.fixture
    def searched(self, monkeypatch):
        # the (search, pool size or None, item count, decisions) of every stacked search run
        calls = []
        subsets, enumerate_ = policy._search_supplier_subsets, policy._enumerate_assignments

        def search_supplier_subsets(decisions, n_pool):
            calls.append(("subset", n_pool, len(decisions[0].items), len(decisions)))
            return subsets(decisions, n_pool)

        def enumerate_assignments(decisions):
            calls.append(("enumeration", None, len(decisions[0].items), len(decisions)))
            return enumerate_(decisions)

        monkeypatch.setattr(policy, "_search_supplier_subsets", search_supplier_subsets)
        monkeypatch.setattr(policy, "_enumerate_assignments", enumerate_assignments)
        return calls

    def test_mixed_batch_matches_the_reference(self, searched):
        # integer costs 1-3 make exact price ties common, and a zero overhead
        # ties supplier sets of different sizes
        rng = random.Random(17)
        decisions = []
        for _ in range(1500):
            basis = rng.choice(("per_item", "per_supplier_total"))
            slope = rng.choice((0.0, 0.05, 0.1))
            decision = _random_instance(rng, basis, slope, cost_range=(1, 3), max_items=4,
                                        max_suppliers=6, mixed=True)
            decisions.append(decision._replace(po_overhead=rng.choice((0.0, 1.0, 3.0))))
        got = policy.allocate_batch(decisions)
        for allocation, decision in zip(got, decisions):
            assert _bits(allocation) == _bits(reference_allocate_min_cost(decision))
        # every path ran: the fast path for the rest, one stacked search per structure
        assert {(pool, items) for search, pool, items, _ in searched if search == "subset"} == {
            (pool, items) for pool in range(2, 7) for items in range(2, 5)}
        assert {items for search, _, items, _ in searched if search == "enumeration"} == {1, 2, 3, 4}
        assert sum(n for *_, n in searched) < len(decisions)

    @pytest.mark.parametrize("n_pool", range(1, 7))
    def test_subset_search_at_each_pool_size(self, n_pool):
        # a pool of one never leaves the fast path in a solve, so the search is
        # called directly, once per item count, on every supplier of the pool
        rng = random.Random(n_pool)
        suppliers = [f"S{i}" for i in range(n_pool)]
        kinds = ((CONTRACT_RATE,), (SPOT_QUOTE,), (CONTRACT_RATE, SPOT_QUOTE))
        for n_items in range(1, 5):
            items = tuple(f"P{k}" for k in range(n_items))
            decisions = []
            for _ in range(20):
                options = [[(float(rng.randint(1, 3)), s, rank) for s in suppliers for rank in rng.choice(kinds)]
                           for _ in items]
                decisions.append(Decision(items, tuple(rng.randint(1, 10) for _ in items), options,
                                          rng.choice((0.0, 1.0, 3.0))))
            found = policy._search_supplier_subsets(decisions, n_pool)
            for priced, decision in zip(found, decisions):
                want = reference_allocate_min_cost(decision)
                assert [(option[1], option[2], rate) for option, rate in priced] == [
                    (a.supplier_id, int(a.provenance == SPOT), a.unit_cost) for a in want.items.values()]

    def test_an_overflowing_decision_fails_the_batch(self):
        rng = random.Random(4)
        decisions = [_random_instance(rng, mixed=True, po_overhead=1.0) for _ in range(20)]
        decisions.insert(7, _overflowing_decision())
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(InfeasibleAllocationError, match="every order total overflows"):
                policy.allocate_batch(decisions)

    def test_stacked_cells_beyond_the_chunk_bound_match_single_solves(self, searched):
        # 4-item decisions: 80 coupled over 3 suppliers and 40 subset searches
        # over 8 fill several chunks each; 5 coupled over 6 suppliers and 5
        # subset searches over 12 are each large enough to be evaluated alone
        rng = random.Random(23)
        items = ("P0", "P1", "P2", "P3")

        def decision(n_suppliers, coupled):
            suppliers = [f"S{i:02d}" for i in range(n_suppliers)]
            options = [[(float(rng.randint(1, 3)), s, rank)
                        for s in suppliers for rank in (CONTRACT_RATE, SPOT_QUOTE) if rng.random() < 0.6]
                       or [(2.0, suppliers[0], SPOT_QUOTE)] for _ in items]
            return Decision(items, tuple(rng.randint(1, 10) for _ in items), options, rng.choice((0.0, 1.0)),
                            0.05 if coupled else 0.0)

        groups = ((80, 3, True), (40, 8, False), (5, 6, True), (5, 12, False))
        decisions = [decision(n_suppliers, coupled) for count, n_suppliers, coupled in groups
                     for _ in range(count)]
        batch = policy.allocate_batch(decisions)
        searched_decisions = sum(n for *_, n in searched)
        alone = [allocate_min_cost(decision) for decision in decisions]
        assert [_bits(a) for a in batch] == [_bits(a) for a in alone]
        # a decision's cells: its rows (assignments or supplier sets) times its 4 items
        cells = [4 * (math.prod(map(len, d.options)) if d.slope
                      else 2 ** len({option[1] for options in d.options for option in options}) - 1)
                 for d in decisions]
        for group in (slice(0, 80), slice(80, 120)):
            assert sum(c for c in cells[group] if c < policy._ALONE_CELLS) > policy._STACK_CELLS
        assert min(cells[120:]) >= policy._ALONE_CELLS
        assert searched_decisions > 100  # the rest took the fast path

    @pytest.mark.parametrize("n_items, n_decisions", [(1, 682), (2, 14)])
    def test_a_full_chunk_stays_under_3_mb(self, n_items, n_decisions):
        # every option of 12 suppliers, under contract and on spot: 24 columns
        # an item, 24 ** n_items rows a decision, filling one chunk of at
        # most _STACK_CELLS cells with the largest pool
        rng = random.Random(n_items)
        options = [(float(rng.randint(1, 3)), f"S{i:02d}", rank) for i in range(12) for rank in (0, 1)]
        decisions = [Decision(tuple(f"P{j}" for j in range(n_items)), (3,) * n_items,
                              [rng.sample(options, len(options)) for _ in range(n_items)], 1.0, 0.05)
                     for _ in range(n_decisions)]
        assert n_decisions * 24 ** n_items * n_items <= policy._STACK_CELLS
        policy.allocate_batch(decisions[:1])  # the layout is cached, as in a warm run
        tracemalloc.start()
        try:
            policy.allocate_batch(decisions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


_ONE_ITEM_OPTIONS = st.lists(
    st.tuples(st.one_of(st.sampled_from([1.0, 2.0, 2.5]), st.floats(min_value=0.01, max_value=1e4)),
              st.sampled_from("ABCDEFGHIJKL"), st.sampled_from([CONTRACT_RATE, SPOT_QUOTE])),
    min_size=1, max_size=12, unique_by=lambda option: option[1:])  # one option per (supplier, rank)


class TestOneItemDecisions:
    """A one-item decision is solved with one min, before its supplier pool is built."""

    # rates tied across suppliers; one supplier's contract and spot options at
    # equal rates; the cheapest option a contract rate or a spot quote, at slope
    # 0 and above
    @example(options=[(2.0, "B", SPOT_QUOTE), (2.0, "A", SPOT_QUOTE)], q=3, overhead=10.0, slope=0.0)
    @example(options=[(2.0, "A", SPOT_QUOTE), (2.0, "A", CONTRACT_RATE)], q=3, overhead=10.0, slope=0.0)
    @example(options=[(2.0, "A", SPOT_QUOTE), (2.0, "A", CONTRACT_RATE)], q=3, overhead=10.0, slope=0.1)
    @example(options=[(1.0, "B", SPOT_QUOTE), (2.0, "A", CONTRACT_RATE)], q=20, overhead=0.0, slope=0.1)
    @example(options=[(1.0, "B", SPOT_QUOTE), (2.0, "A", CONTRACT_RATE)], q=5, overhead=0.0, slope=0.1)
    @example(options=[(1.0, "B", CONTRACT_RATE), (2.0, "A", SPOT_QUOTE)], q=5, overhead=0.0, slope=0.1)
    @settings(max_examples=300, deadline=None)
    @given(options=_ONE_ITEM_OPTIONS, q=st.integers(min_value=1, max_value=1000),
           overhead=st.floats(min_value=0.0, max_value=100.0),
           slope=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)))
    def test_matches_the_reference(self, options, q, overhead, slope):
        decision = Decision(("P1",), (q,), [options], overhead, slope)
        (alone,) = policy.allocate_batch([decision])
        assert _bits(alone) == _bits(reference_allocate_min_cost(decision))
        # and alike beside a decision that searches
        _, beside = policy.allocate_batch([_overflow_free_split(), decision])
        assert _bits(beside) == _bits(alone)

    @pytest.mark.parametrize("decision, error, message", [
        (Decision(("P1",), (1,), [[]], 10.0), InfeasibleAllocationError, "no admissible supplier for item 'P1'"),
        (Decision(("P1",), (0,), [[(5.0, "A", SPOT_QUOTE)]], 10.0), ValueError,
         "quantity for item 'P1' must be at least 1"),
        (Decision(("P1",), (0,), [[]], 10.0), InfeasibleAllocationError, "no admissible supplier"),
        (Decision(("P1",), (1,), [[(5.0, "A", SPOT_QUOTE)]], -1.0), ValueError, "po_overhead must be finite"),
        (Decision(("P1",), (0,), [[]], math.nan), ValueError, "po_overhead must be finite"),
    ], ids=["no-option", "zero-quantity", "no-option-before-quantity", "negative-overhead",
            "nan-overhead-first"])
    def test_malformed_decisions_raise_as_before(self, decision, error, message):
        with pytest.raises(error, match=message):
            policy.allocate_batch([decision])


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
                     max_suppliers: int = 3, mixed: bool = False, po_overhead: float = 10.0) -> Decision:
    """A random requisition's decision, built from contract terms and quotes as the engine builds it."""
    n_items = rng.randint(1, max_items)
    n_suppliers = rng.randint(1, max_suppliers)
    suppliers = [f"S{i}" for i in range(n_suppliers)]
    terms, quotes, quantities = {}, {}, {}
    for k in range(n_items):
        item = f"P{k}"
        # every item keeps at least one option so instances stay feasible
        available = [s for s in suppliers if rng.random() < 0.8] or [rng.choice(suppliers)]
        for s in sorted(available):
            # a mixed instance lets a supplier offer the item under contract,
            # on spot, or both
            for kind in rng.choice(((CONTRACT,), (SPOT,), (CONTRACT, SPOT))) if mixed else (SPOT,):
                rate = float(rng.randint(*cost_range))
                if kind == CONTRACT:
                    terms.setdefault(item, {})[s] = rate
                else:
                    quotes.setdefault(s, {})[item] = rate
        quantities[item] = rng.randint(1, 10)
    return build_cost_matrix(requisition(quantities), terms, quotes, po_overhead,
                             competition_slope=slope, competition_basis=basis)


def _sparse_coupled_instance(rng: random.Random) -> Decision:
    """1-5 items of 1-4 options each from a pool of up to 12 suppliers, under a spot slope.

    Integer costs 1-3 make exact ties common; a supplier may offer an item
    under contract, on spot, or both.
    """
    suppliers = [f"S{i:02d}" for i in range(rng.randint(1, 12))]
    pairs = [(s, rank) for s in suppliers for rank in (CONTRACT_RATE, SPOT_QUOTE)]
    options = [[(float(rng.randint(1, 3)), s, rank)
                for s, rank in rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))]
               for _ in range(rng.randint(1, 5))]
    items = tuple(f"P{k}" for k in range(len(options)))
    units = tuple(rng.randint(1, 10) for _ in items)
    slope = rng.choice((0.05, 0.1, 1.0))
    return Decision(items, units, options, rng.choice((0.0, 1.0, 3.0)), slope)


def _overflowing_decision() -> Decision:
    # each item's cheapest option comes from another supplier, and every order total overflows
    return Decision(("P1", "P2"), (10, 10), [[(1e308, "A", SPOT_QUOTE), (1.5e308, "B", SPOT_QUOTE)],
                                             [(1.5e308, "A", SPOT_QUOTE), (1e308, "B", SPOT_QUOTE)]], 0.0)


def _bits(alloc):
    return ({item: (a.supplier_id, a.provenance, a.unit_cost.hex(), a.quantity)
             for item, a in alloc.items.items()}, alloc.overhead_cost.hex())


def _assert_matches_reference(decision):
    got = allocate_min_cost(decision)
    want = reference_allocate_min_cost(decision)
    assert ({item: (a.supplier_id, a.provenance, a.unit_cost) for item, a in got.items.items()}
            == {item: (a.supplier_id, a.provenance, a.unit_cost) for item, a in want.items.items()})
    assert got.overhead_cost == want.overhead_cost


def _oracle_instance(decision, po_overhead):
    costs = {item: {supplier: rate for rate, supplier, _ in options}
             for item, options in zip(decision.items, decision.options)}
    return OracleInstance(costs, dict(zip(decision.items, decision.units)), po_overhead)


def _assert_matches_oracle(decision):
    best, minimizers = exhaustive_allocation(_oracle_instance(decision, decision.po_overhead))
    alloc = allocate_min_cost(decision)
    assert alloc.total_cost == pytest.approx(best, abs=1e-9)
    assignment = {item: a.supplier_id for item, a in alloc.items.items()}
    assert assignment in minimizers


def _total_basis_brute_force(decision):
    items, units, options, overhead, slope = decision
    best = None
    for combo in itertools.product(*options):
        spot_units = {}
        for (_, supplier, rank), q in zip(combo, units):
            if rank == SPOT_QUOTE:
                spot_units[supplier] = spot_units.get(supplier, 0) + q
        total = overhead * (len({supplier for _, supplier, _ in combo}) - 1)
        for (rate, supplier, rank), q in zip(combo, units):
            if rank == SPOT_QUOTE:
                rate += slope * spot_units[supplier]
            total += rate * q
        if best is None or total < best:
            best = total
    return best


def _overflow_free_split() -> Decision:
    # each item's cheapest option comes from another supplier, so the subset search runs
    return Decision(("P1", "P2"), (1, 1), [[(5.0, "X", SPOT_QUOTE), (20.0, "Y", SPOT_QUOTE)],
                                           [(20.0, "X", SPOT_QUOTE), (5.0, "Y", SPOT_QUOTE)]], 10.0)
