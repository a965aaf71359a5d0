"""Data-model invariants and scenario validation."""

import dataclasses
import math
from pathlib import Path

import pytest

from conftest import dump_scenario, single_product_scenario, uniform_market_scenario
from rto_sim import policy
from rto_sim.cli import parse_scenario
from rto_sim.domain import (
    ASSIGNMENT_ENUMERATION_LIMIT,
    POLICY_KINDS,
    Catalog,
    Category,
    Contract,
    Product,
    Requisition,
    ScenarioValidationError,
    Supplier,
    check_spot_order_totals,
    validate_scenario,
)


def _with_spot_rate(scenario, key, **changes):
    rates = dict(scenario.spot.rates)
    rates[key] = dataclasses.replace(rates[key], **changes)
    return dataclasses.replace(scenario, spot=dataclasses.replace(scenario.spot, rates=rates))


def _with_covariate(scenario, **changes):
    vessel = scenario.vessels[0]
    category_id, spec = next(iter(vessel.hazards.items()))
    spec = dataclasses.replace(spec, covariates=(dataclasses.replace(spec.covariates[0], **changes),))
    vessel = dataclasses.replace(vessel, hazards={**vessel.hazards, category_id: spec})
    return dataclasses.replace(scenario, vessels=(vessel,) + scenario.vessels[1:])


def _with_contract(scenario, **changes):
    contract = dataclasses.replace(scenario.contracts[0], **changes)
    return dataclasses.replace(scenario, contracts=(contract,) + scenario.contracts[1:])


def _with_supplier(scenario, **changes):
    supplier = dataclasses.replace(scenario.suppliers[0], **changes)
    return dataclasses.replace(scenario, suppliers=(supplier,) + scenario.suppliers[1:])


def _with_first_id_extended(scenario, kind, suffix):
    """The first vessel, category, product or supplier's id with `suffix` appended.

    References to the id are left as they are; the new id sorts where the old
    one did, so the element keeps its index.
    """
    if kind == "supplier":
        return _with_supplier(scenario, id=scenario.suppliers[0].id + suffix)
    if kind == "vessel":
        vessel = scenario.vessels[0]
        vessel = dataclasses.replace(vessel, id=vessel.id + suffix)
        return dataclasses.replace(scenario, vessels=(vessel,) + scenario.vessels[1:])
    category = scenario.catalog.categories[0]
    if kind == "category":
        category = dataclasses.replace(category, id=category.id + suffix)
    else:
        product = category.products[0]
        product = dataclasses.replace(product, id=product.id + suffix)
        category = dataclasses.replace(category, products=(product,) + category.products[1:])
    categories = (category,) + scenario.catalog.categories[1:]
    return dataclasses.replace(scenario, catalog=Catalog(categories=categories))


_FIRST_ID_PATHS = {
    "vessel": "vessels[0].id",
    "category": "catalog.categories[0].id",
    "product": "catalog.categories[0].products[0].id",
    "supplier": "suppliers[0].id",
}


class TestValidation:
    def test_bundled_scenario_is_valid(self, paper_scenario):
        assert validate_scenario(paper_scenario) is paper_scenario

    def test_empty_validity_window(self, paper_scenario):
        bad = dataclasses.replace(
            paper_scenario.contracts[0], valid_from=50.0, valid_until=50.0
        )
        scenario = dataclasses.replace(paper_scenario, contracts=(bad,) + paper_scenario.contracts[1:])
        with pytest.raises(ScenarioValidationError, match="empty validity window"):
            validate_scenario(scenario)

    def test_zero_quantity_for_included_item(self):
        with pytest.raises(ScenarioValidationError, match="zero quantity for included item"):
            Requisition(id="x", vessel_id="V", category_id="c", created_at=1.0, items={"P": 0})

    def test_nonpositive_horizon(self, paper_scenario):
        with pytest.raises(ScenarioValidationError, match="horizon"):
            validate_scenario(dataclasses.replace(paper_scenario, horizon=0.0))

    def test_product_in_two_categories(self, paper_scenario):
        cat = paper_scenario.catalog.categories[0]
        twin = Category(id="other", products=cat.products[:1], eligible_suppliers=cat.eligible_suppliers)
        scenario = dataclasses.replace(
            paper_scenario, catalog=Catalog(categories=paper_scenario.catalog.categories + (twin,))
        )
        with pytest.raises(ScenarioValidationError, match="appears in two categories"):
            validate_scenario(scenario)

    def test_duplicate_vessel_id_rejected(self, paper_scenario):
        # a second V1 would draw the first one's requisitions again, under the same ids
        twin = paper_scenario.vessels[0]
        scenario = dataclasses.replace(paper_scenario, vessels=paper_scenario.vessels + (twin,))
        with pytest.raises(ScenarioValidationError, match="duplicate vessel id 'V1'") as info:
            validate_scenario(scenario)
        assert info.value.path == "vessels[1].id"

    def test_duplicate_category_id_rejected(self, paper_scenario):
        # even one with no products: a vessel's hazards name a category by
        # id, so two of one id could not be told apart
        cat = paper_scenario.catalog.categories[0]
        twin = Category(id=cat.id, products=(), eligible_suppliers=cat.eligible_suppliers)
        scenario = dataclasses.replace(
            paper_scenario, catalog=Catalog(categories=paper_scenario.catalog.categories + (twin,))
        )
        with pytest.raises(ScenarioValidationError, match="duplicate category id 'consumables'") as info:
            validate_scenario(scenario)
        assert info.value.path == "catalog.categories[1].id"

    def test_unknown_supplier_in_category(self, paper_scenario):
        cat = paper_scenario.catalog.categories[0]
        bad = Category(id=cat.id, products=cat.products,
                       eligible_suppliers=cat.eligible_suppliers + ("ghost",))
        scenario = dataclasses.replace(paper_scenario, catalog=Catalog(categories=(bad,)))
        with pytest.raises(ScenarioValidationError, match="unknown supplier"):
            validate_scenario(scenario)

    def test_overlapping_contracts_rejected(self, paper_scenario):
        overlap = Contract(supplier_id="A", product_rates={"P1": 9.0}, lead_time=1.0,
                           valid_from=100.0, valid_until=250.0, volume_commitment=0)
        scenario = dataclasses.replace(paper_scenario, contracts=paper_scenario.contracts + (overlap,))
        with pytest.raises(ScenarioValidationError, match="overlapping contracts"):
            validate_scenario(scenario)

    def test_adjacent_contract_windows_allowed(self, paper_scenario):
        follow_on = Contract(supplier_id="A", product_rates={"P1": 9.0}, lead_time=1.0,
                             valid_from=182.5, valid_until=300.0, volume_commitment=0)
        scenario = dataclasses.replace(paper_scenario, contracts=paper_scenario.contracts + (follow_on,))
        validate_scenario(scenario)

    def test_contract_for_ineligible_supplier(self, paper_scenario):
        extra = Supplier(id="D")
        contract = Contract(supplier_id="D", product_rates={"P1": 9.0}, lead_time=1.0,
                            valid_from=0.0, valid_until=10.0, volume_commitment=0)
        scenario = dataclasses.replace(
            paper_scenario,
            suppliers=paper_scenario.suppliers + (extra,),
            contracts=paper_scenario.contracts + (contract,),
        )
        with pytest.raises(ScenarioValidationError, match="not eligible"):
            validate_scenario(scenario)

    def test_missing_spot_rate(self, paper_scenario):
        rates = dict(paper_scenario.spot.rates)
        rates.pop(("P1", "A"))
        scenario = dataclasses.replace(
            paper_scenario, spot=dataclasses.replace(paper_scenario.spot, rates=rates)
        )
        with pytest.raises(ScenarioValidationError, match="missing spot rate"):
            validate_scenario(scenario)

    @pytest.mark.parametrize("edit, message, path", [
        (lambda s: dataclasses.replace(s, spot=dataclasses.replace(s.spot, rates={})),
         "missing spot rate", "spot.rates"),
        (lambda s: _with_spot_rate(s, ("P1", "A"), baseline=0.0), "baseline must be positive",
         "spot.rates[('P1', 'A')]"),
        (lambda s: _with_spot_rate(s, ("P1", "A"), amplitude=math.nan), "amplitude and phase must be finite",
         "spot.rates[('P1', 'A')]"),
    ], ids=["missing", "zero-baseline", "amplitude-nan"])
    def test_spot_order_total_check_needs_no_prior_validation(self, paper_scenario, edit, message, path):
        # the flag-slope check of run and compare sees the spot rates as they are
        with pytest.raises(ScenarioValidationError, match=message) as err:
            check_spot_order_totals(edit(paper_scenario), 0.01, "--competition-slope")
        assert err.value.path == path

    def test_zero_vessels_is_valid(self):
        scenario = dataclasses.replace(single_product_scenario(contracted=True), vessels=())
        validate_scenario(scenario)

    @pytest.mark.parametrize("edit, path", [
        (lambda s: dataclasses.replace(s, policy=dataclasses.replace(s.policy, po_overhead=math.inf)),
         "policy.po_overhead"),
        (lambda s: _with_spot_rate(s, ("P1", "A"), amplitude=math.nan), "spot.rates[('P1', 'A')]"),
        (lambda s: _with_spot_rate(s, ("P1", "A"), phase=math.inf), "spot.rates[('P1', 'A')]"),
        (lambda s: _with_covariate(s, phase=math.nan), "vessels[0].hazards[consumables].covariates[0].phase"),
        (lambda s: _with_covariate(s, coefficient=math.inf),
         "vessels[0].hazards[consumables].covariates[0].coefficient"),
        (lambda s: _with_covariate(s, coefficient=710.0, amplitude=1.0),
         "vessels[0].hazards[consumables].covariates"),
        (lambda s: _with_contract(s, lead_time=math.nan), "contracts[0].lead_time"),
        (lambda s: _with_contract(s, lead_time=-1.0), "contracts[0].lead_time"),
        (lambda s: _with_supplier(s, spot_lead_time=math.nan), "suppliers[0].spot_lead_time"),
        (lambda s: _with_supplier(s, spot_lead_time=-1.0), "suppliers[0].spot_lead_time"),
        # finite rates whose order total overflows: rate x baseline stock (40) x category size (3)
        (lambda s: _with_spot_rate(s, ("P1", "A"), baseline=1e308), "spot.rates[('P1', 'A')]"),
        (lambda s: _with_spot_rate(s, ("P1", "A"), amplitude=-1e307), "spot.rates[('P1', 'A')]"),
        (lambda s: _with_contract(s, product_rates={"P1": 1e308}), "contracts[0].product_rates[P1]"),
    ], ids=["overhead-inf", "amplitude-nan", "phase-inf", "covariate-phase-nan", "coefficient-inf",
            "covariate-bound-overflow", "contract-lead-nan", "contract-lead-negative", "spot-lead-nan", "spot-lead-negative",
            "spot-order-overflow", "spot-amplitude-order-overflow", "contract-order-overflow"])
    def test_non_finite_or_negative_parameter_rejected(self, paper_scenario, edit, path):
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(edit(paper_scenario))
        assert err.value.path == path

    @pytest.mark.parametrize("field, value, valid", [
        # 40 SDs of noise times P3's order scale (stock 700 x 3 products): 8.4e307
        ("noise_sd", 1e303, True),
        ("noise_sd", 1e306, False),
        # the slope times the summed stock (770) and P3's order scale: 1.6e306
        ("competition_slope", 1e300, True),
        ("competition_slope", 1e306, False),
    ])
    def test_noise_and_slope_bounded_by_order_totals(self, paper_scenario, field, value, valid):
        scenario = dataclasses.replace(paper_scenario,
                                       spot=dataclasses.replace(paper_scenario.spot, **{field: value}))
        if valid:
            assert validate_scenario(scenario) is scenario
        else:
            with pytest.raises(ScenarioValidationError, match="overflows an order total") as err:
                validate_scenario(scenario)
            assert err.value.path == f"spot.{field}"

    def test_large_rates_with_finite_order_totals_are_valid(self, paper_scenario):
        scenario = _with_contract(_with_spot_rate(paper_scenario, ("P1", "A"), baseline=1e305),
                                  product_rates={"P1": 1e305})
        assert validate_scenario(scenario) is scenario

    @pytest.mark.parametrize("suppliers", [(), ("S1", "S1")], ids=["empty", "duplicate"])
    def test_eligible_suppliers_empty_or_repeated(self, suppliers):
        scenario = single_product_scenario(contracted=False)
        category = dataclasses.replace(scenario.catalog.categories[0], eligible_suppliers=suppliers)
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(dataclasses.replace(scenario, catalog=Catalog(categories=(category,))))
        assert err.value.path == "catalog.categories[0].eligible_suppliers"

    @pytest.mark.parametrize("char", [":", "|", ",", ";", "=", "/", "\\", "\x00", "\t", "\n", "\x7f", "\x9f"])
    @pytest.mark.parametrize("kind", sorted(_FIRST_ID_PATHS))
    def test_reserved_character_in_an_id_rejected(self, paper_scenario, kind, char):
        scenario = _with_first_id_extended(paper_scenario, kind, f"{char}x")
        with pytest.raises(ScenarioValidationError, match="reserved character") as err:
            validate_scenario(scenario)
        assert err.value.path == _FIRST_ID_PATHS[kind]

    @pytest.mark.parametrize("suffix", ["-x", ".x", "_x", " x", "\u00e9", "\u00a0x"])
    def test_other_characters_in_an_id_are_valid(self, paper_scenario, suffix):
        scenario = _with_first_id_extended(paper_scenario, "vessel", suffix)
        assert validate_scenario(scenario) is scenario

    def test_error_carries_path(self, paper_scenario):
        bad = dataclasses.replace(paper_scenario.contracts[0], valid_from=9.0, valid_until=9.0)
        scenario = dataclasses.replace(paper_scenario, contracts=(bad,) + paper_scenario.contracts[1:])
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(scenario)
        assert err.value.path.startswith("contracts[")


class TestAssignmentSpaceBound:
    """The coupled per_supplier_total solver's assignment space is bounded at validate time."""

    def test_space_at_the_bound_accepted(self):
        assert 4 ** 10 == ASSIGNMENT_ENUMERATION_LIMIT == policy.ASSIGNMENT_ENUMERATION_LIMIT
        validate_scenario(uniform_market_scenario(4, 10))

    @pytest.mark.parametrize("n_suppliers, n_products, space", [(4, 11, 4 ** 11), (12, 6, 12 ** 6)])
    def test_space_over_the_bound_rejected(self, n_suppliers, n_products, space):
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(uniform_market_scenario(n_suppliers, n_products))
        assert err.value.path == "catalog.categories[0]"
        assert f"{space} exceeds" in str(err.value) and str(ASSIGNMENT_ENUMERATION_LIMIT) in str(err.value)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("slope", [0.0, 0.05])
    def test_bound_holds_whatever_the_policy_and_slope(self, slope, kind):
        # a run may apply any policy and slope to the file, so the file's own do not matter
        with pytest.raises(ScenarioValidationError, match=f"{4 ** 11} exceeds") as err:
            validate_scenario(uniform_market_scenario(4, 11, slope=slope, kind=kind))
        assert err.value.path == "catalog.categories[0]"

    @pytest.mark.parametrize("changes", [{"basis": "per_item"}, {"basis": "per_item", "kind": "dynamic"}],
                             ids=["per-item", "per-item-dynamic"])
    def test_uncoupled_market_not_bounded(self, changes):
        validate_scenario(uniform_market_scenario(4, 11, **changes))

    def test_dynamic_adds_the_contract_holders(self):
        # 2 eligible suppliers and 20 products: 2^20 with no contract; one
        # contract holder per product makes it 3^20, which dynamic can reach,
        # so the file is rejected under either policy and at any slope
        validate_scenario(uniform_market_scenario(2, 20))
        for kind in POLICY_KINDS:
            for slope in (0.0, 0.05):
                with pytest.raises(ScenarioValidationError, match=f"{3 ** 20} exceeds") as err:
                    validate_scenario(uniform_market_scenario(2, 20, holders=1, kind=kind, slope=slope))
                assert err.value.path == "catalog.categories[0]"

    def test_generated_scenarios_stay_valid(self, paper_scenario, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from conftest import random_scenario
        from workloads import VARIANTS, wide_market_doc

        scenarios = [paper_scenario] + [random_scenario(seed) for seed in range(40)]
        scenarios += [parse_scenario(wide_market_doc(v)).scenario for v in range(VARIANTS)]
        for scenario in scenarios:
            for kind in ("naive", "dynamic"):
                validate_scenario(dataclasses.replace(
                    scenario, policy=dataclasses.replace(scenario.policy, kind=kind),
                    spot=dataclasses.replace(scenario.spot, competition_basis="per_supplier_total",
                                             competition_slope=0.05)))


class TestNormalization:
    def test_categories_products_sorted_on_construction(self):
        p1 = Product(id="Pb", family_id="F", baseline_stock=5, depletion_rate=0.1)
        p2 = Product(id="Pa", family_id="F", baseline_stock=5, depletion_rate=0.1)
        cat = Category(id="c", products=(p1, p2), eligible_suppliers=("Z", "A"))
        assert cat.product_ids == ("Pa", "Pb")
        assert cat.eligible_suppliers == ("A", "Z")

    def test_scenario_sorts_members(self, paper_scenario):
        shuffled = dataclasses.replace(
            paper_scenario,
            vessels=tuple(reversed(paper_scenario.vessels)),
            suppliers=tuple(reversed(paper_scenario.suppliers)),
        )
        assert shuffled.vessels == paper_scenario.vessels
        assert shuffled.suppliers == paper_scenario.suppliers

    def test_requisition_items_sorted_on_construction(self):
        items = {"P3": 1, "P1": 4, "P2": 2}
        req = Requisition(id="r", vessel_id="V", category_id="c", created_at=1.0, items=items)
        assert list(req.items.items()) == [("P1", 4), ("P2", 2), ("P3", 1)]
        items["P4"] = 5  # the requisition holds its own copy
        assert list(req.items) == ["P1", "P2", "P3"]


class TestRoundTrip:
    def test_serialize_parse_round_trip(self, paper_file):
        doc = dump_scenario(paper_file)
        reparsed = parse_scenario(doc)
        assert reparsed == paper_file

    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_round_trip_wide_market(self, variant, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import wide_market_doc

        sf = parse_scenario(wide_market_doc(variant))
        doc = dump_scenario(sf)
        assert parse_scenario(doc) == sf
        assert dump_scenario(parse_scenario(doc)) == doc

    def test_round_trip_random_scenarios(self):
        from conftest import random_scenario
        from rto_sim.cli import OutputConfig, RunsConfig, ScenarioFile

        for seed in range(10):
            sf = ScenarioFile(scenario=random_scenario(seed), runs=RunsConfig(), output=OutputConfig())
            assert parse_scenario(dump_scenario(sf)) == sf


class TestQuoteSet:
    def test_aggregates_per_supplier_responses(self):
        from rto_sim.policy import build_cost_matrix

        quotes = {"A": {"P1": 10.0}, "B": {"P1": 9.0}}
        req = Requisition(id="r", vessel_id="V", category_id="c", created_at=1.0, items={"P1": 2})
        matrix = build_cost_matrix(req, {}, quotes)
        assert sorted(e.supplier_id for e in matrix.entries["P1"]) == ["A", "B"]


class TestAllocationType:
    def test_total_cost_and_suppliers(self):
        from rto_sim.domain import AllocatedItem, Allocation

        alloc = Allocation(
            items={
                "P1": AllocatedItem(supplier_id="A", unit_cost=2.0, quantity=3, provenance="contract"),
                "P2": AllocatedItem(supplier_id="B", unit_cost=1.0, quantity=4, provenance="spot"),
            },
            overhead_cost=10.0,
        )
        assert alloc.total_cost == pytest.approx(20.0)
        assert alloc.suppliers_used == ("A", "B")
