"""Core data model shared by every part of the simulator.

All types are plain dataclasses, immutable after construction, and safe to
share across concurrent replications.  Collections are normalized (sorted by
id) on construction so downstream iteration order never depends on input
order.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .hazards import ConstantBaseline, HazardSpec, WeibullBaseline

__all__ = [
    "ScenarioValidationError",
    "Product",
    "Category",
    "Catalog",
    "Supplier",
    "Vessel",
    "Contract",
    "Requisition",
    "AllocatedItem",
    "Allocation",
    "EventRecord",
    "SpotRate",
    "SpotModel",
    "POLICY_KINDS",
    "PolicyKind",
    "DelayConfig",
    "Scenario",
    "validate_scenario",
    "check_spot_order_totals",
]

MAX_SUPPLIERS_PER_CATEGORY = 12  # exact allocation search enumerates supplier subsets
ASSIGNMENT_ENUMERATION_LIMIT = 2 ** 20  # the coupled per_supplier_total search enumerates assignments
SPOT_NOISE_SDS = 40  # a standard normal draw this far out has probability below 1e-300
# stream keys, requisition ids, CSV fields and file names join ids with these
# unescaped, so no vessel, category, product or supplier id may hold one
_ID_RESERVED = re.compile(r"[:|,;=/\\\x00-\x1f\x7f-\x9f]")


class ScenarioValidationError(ValueError):
    """A scenario (or one of its parts) violates a structural invariant."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class Product:
    id: str
    family_id: str
    baseline_stock: int  # units held when fully replenished
    depletion_rate: float  # units consumed per day


@dataclass(frozen=True)
class Category:
    id: str
    products: tuple[Product, ...]
    eligible_suppliers: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "products", tuple(sorted(self.products, key=lambda p: p.id)))
        object.__setattr__(self, "eligible_suppliers", tuple(sorted(self.eligible_suppliers)))

    @property
    def product_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.products)


@dataclass(frozen=True)
class Catalog:
    categories: tuple[Category, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(sorted(self.categories, key=lambda c: c.id)))


@dataclass(frozen=True)
class Supplier:
    id: str
    spot_lead_time: float = 3.0  # days quoted for spot fulfilment


@dataclass(frozen=True)
class Vessel:
    """One vessel and its per-category requisition timing model."""

    id: str
    hazards: Mapping[str, HazardSpec]  # category id -> timing spec


@dataclass(frozen=True, kw_only=True)
class Contract:
    """Fixed-rate agreement with one supplier over a validity window [start, end)."""

    supplier_id: str
    product_rates: Mapping[str, float]  # product id -> unit price
    lead_time: float = 2.0  # days to deliver at the contracted rate
    valid_from: float
    valid_until: float
    volume_commitment: int = 0  # units owed over the window


@dataclass(frozen=True)
class Requisition:
    """One vessel request: included products of a single category with restock quantities."""

    id: str
    vessel_id: str
    category_id: str
    created_at: float
    items: Mapping[str, int]  # product id -> quantity, present iff included

    def __post_init__(self):
        object.__setattr__(self, "items", dict(sorted(self.items.items())))
        for product_id, quantity in self.items.items():
            if quantity < 1:
                raise ScenarioValidationError(
                    "zero quantity for included item", f"requisition[{self.id}].items[{product_id}]"
                )


@dataclass(frozen=True)
class AllocatedItem:
    supplier_id: str
    unit_cost: float
    quantity: int
    provenance: str  # "contract" | "spot"


@dataclass(frozen=True)
class Allocation:
    """Final supplier assignment for one requisition, one supplier per item; one order per supplier used."""

    items: Mapping[str, AllocatedItem]  # product id -> assignment
    overhead_cost: float

    @property
    def total_cost(self) -> float:
        """The overhead, then each item's cost in item order: the order's share of a run's cost."""
        total = self.overhead_cost
        for a in self.items.values():
            total += a.unit_cost * a.quantity
        return total

    @property
    def suppliers_used(self) -> tuple[str, ...]:
        return tuple(sorted({a.supplier_id for a in self.items.values()}))


@dataclass(frozen=True)
class EventRecord:
    """One executed simulation event; the run log is an append-only list of these."""

    kind: str
    time: float
    pr_id: str | None = None
    vessel_id: str | None = None
    category_id: str | None = None
    supplier_id: str | None = None
    payload: object | None = None


@dataclass(frozen=True)
class SpotRate:
    """Seasonal spot-price curve for one (product, supplier) pair."""

    baseline: float
    amplitude: float = 0.0
    phase: float = 0.0


@dataclass(frozen=True)
class SpotModel:
    """Spot-market price generator parameters shared by all quotes."""

    rates: Mapping[tuple[str, str], SpotRate]  # (product id, supplier id) -> curve
    period: float = 365.0
    noise_sd: float = 1.0
    competition_slope: float = 0.0  # unit-rate increase per unit requested
    competition_basis: str = "per_item"  # or "per_supplier_total"


POLICY_KINDS = ("naive", "dynamic")


@dataclass(frozen=True)
class PolicyKind:
    kind: str  # one of POLICY_KINDS
    po_overhead: float = 10.0  # charged once per purchase order beyond the first


@dataclass(frozen=True)
class DelayConfig:
    """Means of the exponential processing delays, in days."""

    creation_to_approval: float = 2.0
    approval_to_handling: float = 5.0
    rfq_response: float = 2.5
    handling_to_po: float = 0.1
    rfq_response_overrides: Mapping[str, float] = field(default_factory=dict)

    def rfq_mean(self, supplier_id: str) -> float:
        return self.rfq_response_overrides.get(supplier_id, self.rfq_response)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Full parameterization of one simulated world."""

    horizon: float
    catalog: Catalog
    vessels: tuple[Vessel, ...]
    suppliers: tuple[Supplier, ...]
    contracts: tuple[Contract, ...] = ()
    spot: SpotModel
    policy: PolicyKind = PolicyKind(kind="naive")
    delays: DelayConfig = DelayConfig()

    def __post_init__(self):
        object.__setattr__(self, "vessels", tuple(sorted(self.vessels, key=lambda v: v.id)))
        object.__setattr__(self, "suppliers", tuple(sorted(self.suppliers, key=lambda s: s.id)))
        object.__setattr__(
            self,
            "contracts",
            tuple(sorted(self.contracts, key=lambda c: (c.supplier_id, c.valid_from, c.valid_until))),
        )


def _check(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise ScenarioValidationError(message, path)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_id(value: str, path: str) -> None:
    reserved = _ID_RESERVED.search(value)
    if reserved is not None:
        raise ScenarioValidationError(f"id {value!r} holds the reserved character {reserved.group()!r}", path)


def _validate_hazard(spec: HazardSpec, path: str) -> None:
    base = spec.baseline
    if isinstance(base, ConstantBaseline):
        _check(_finite(base.rate) and base.rate > 0, "constant hazard rate must be positive", path)
    elif isinstance(base, WeibullBaseline):
        _check(_finite(base.shape) and base.shape > 0, "Weibull shape must be positive", path)
        _check(_finite(base.scale) and base.scale > 0, "Weibull scale must be positive", path)
    else:
        raise ScenarioValidationError("unknown baseline kind", path)
    for i, cov in enumerate(spec.covariates):
        cpath = f"{path}.covariates[{i}]"
        _check(_finite(cov.period) and cov.period > 0, "covariate period must be positive", cpath)
        for name in ("coefficient", "amplitude", "phase"):
            _check(_finite(getattr(cov, name)), f"covariate {name} must be finite", f"{cpath}.{name}")
    try:
        spec.modulation_bound()
    except OverflowError:
        raise ScenarioValidationError("covariate bound exp(sum |coefficient*amplitude|) overflows",
                                      f"{path}.covariates") from None


def _order_scale(product: Product, category: Category) -> int:
    # a rate times this bounds the rate's share of any order total: an item's
    # quantity is at most its baseline stock, and a requisition holds at most
    # its category's products
    return product.baseline_stock * len(category.products)


def check_spot_order_totals(scenario: Scenario, slope: float, slope_path: str) -> None:
    """Reject a bad spot rate, or spot terms under which an order total can overflow at slope `slope`.

    Every eligible (product, supplier) pair needs a spot rate with a positive
    finite baseline and a finite amplitude and phase.  A quoted rate is at
    most baseline + |amplitude| plus SPOT_NOISE_SDS noise SDs; a competition
    markup adds at most `slope` times the category's summed baseline stock,
    which bounds both an item's quantity and a supplier's spot volume.  The
    error names the term at fault: the rate, `spot.noise_sd`, or
    `slope_path` (a field path or a command-line flag).
    """
    spot = scenario.spot
    for category in scenario.catalog.categories:
        markup = slope * sum(product.baseline_stock for product in category.products)
        for product in category.products:
            scale = _order_scale(product, category)
            for supplier_id in category.eligible_suppliers:
                key = (product.id, supplier_id)
                rate = spot.rates.get(key)
                path = f"spot.rates[{key}]"
                _check(rate is not None, f"missing spot rate for {key}", "spot.rates")
                _check(_finite(rate.baseline) and rate.baseline > 0, "spot baseline must be positive", path)
                _check(_finite(rate.amplitude) and _finite(rate.phase), "spot amplitude and phase must be finite",
                       path)
                bound = rate.baseline + abs(rate.amplitude)
                _check(_finite(bound * scale), "spot rate overflows an order total", path)
                bound += SPOT_NOISE_SDS * spot.noise_sd
                _check(_finite(bound * scale), f"spot noise sd of {spot.noise_sd:g} overflows an order "
                       f"total at {SPOT_NOISE_SDS} SDs", "spot.noise_sd")
                _check(_finite((bound + markup) * scale),
                       f"competition slope of {slope:g} overflows an order total", slope_path)


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every structural invariant; returns the scenario unchanged or raises.

    The error names the first violated invariant and the path of the offending
    element.
    """
    _check(_finite(scenario.horizon) and scenario.horizon > 0, "horizon must be positive", "horizon")

    supplier_ids = [s.id for s in scenario.suppliers]
    _check(len(set(supplier_ids)) == len(supplier_ids), "duplicate supplier id", "suppliers")
    for i, supplier in enumerate(scenario.suppliers):
        _check_id(supplier.id, f"suppliers[{i}].id")
        _check(_finite(supplier.spot_lead_time) and supplier.spot_lead_time >= 0,
               "spot lead time must be finite and non-negative", f"suppliers[{i}].spot_lead_time")
    known_suppliers = set(supplier_ids)

    seen_products: dict[str, str] = {}
    category_of_product: dict[str, str] = {}
    order_scale: dict[str, int] = {}
    category_ids: set[str] = set()
    for c, category in enumerate(scenario.catalog.categories):
        cpath = f"catalog.categories[{c}]"
        _check_id(category.id, f"{cpath}.id")
        _check(category.id not in category_ids, f"duplicate category id {category.id!r}", f"{cpath}.id")
        category_ids.add(category.id)
        _check(
            len(category.eligible_suppliers) <= MAX_SUPPLIERS_PER_CATEGORY,
            f"more than {MAX_SUPPLIERS_PER_CATEGORY} eligible suppliers", cpath,
        )
        listed = category.eligible_suppliers
        _check(len(set(listed)) == len(listed) > 0, "eligible suppliers must be non-empty and distinct",
               f"{cpath}.eligible_suppliers")
        for s in listed:
            _check(s in known_suppliers, f"unknown supplier {s!r}", f"{cpath}.eligible_suppliers")
        for p, product in enumerate(category.products):
            ppath = f"{cpath}.products[{p}]"
            _check_id(product.id, f"{ppath}.id")
            _check(product.id not in seen_products, f"product {product.id!r} appears in two categories", ppath)
            seen_products[product.id] = ppath
            category_of_product[product.id] = category.id
            _check(isinstance(product.baseline_stock, int) and product.baseline_stock >= 1,
                   "baseline stock must be an integer >= 1", ppath)
            _check(_finite(product.depletion_rate) and product.depletion_rate > 0,
                   "depletion rate must be positive", ppath)
            order_scale[product.id] = _order_scale(product, category)

    eligible = {c.id: set(c.eligible_suppliers) for c in scenario.catalog.categories}
    vessel_ids: set[str] = set()
    for v, vessel in enumerate(scenario.vessels):
        vpath = f"vessels[{v}]"
        _check_id(vessel.id, f"{vpath}.id")
        # a second vessel of an id would walk the same keyed streams as the first
        _check(vessel.id not in vessel_ids, f"duplicate vessel id {vessel.id!r}", f"{vpath}.id")
        vessel_ids.add(vessel.id)
        for category_id, spec in vessel.hazards.items():
            _check(category_id in eligible, f"unknown category {category_id!r}", f"{vpath}.hazards")
            _validate_hazard(spec, f"{vpath}.hazards[{category_id}]")

    windows: dict[tuple[str, str], list[tuple[float, float, str]]] = {}
    for i, contract in enumerate(scenario.contracts):
        path = f"contracts[{i}]"
        _check(contract.supplier_id in known_suppliers, f"unknown supplier {contract.supplier_id!r}", path)
        _check(contract.valid_from < contract.valid_until, "empty validity window", path)
        _check(contract.volume_commitment >= 0, "negative volume commitment", path)
        _check(_finite(contract.lead_time) and contract.lead_time >= 0,
               "contract lead time must be finite and non-negative", f"{path}.lead_time")
        _check(len(contract.product_rates) > 0, "contract covers no products", path)
        for product_id, rate in contract.product_rates.items():
            ipath = f"{path}.product_rates[{product_id}]"
            _check(product_id in seen_products, f"unknown product {product_id!r}", ipath)
            _check(_finite(rate) and rate > 0, "contract rate must be positive", ipath)
            _check(_finite(rate * order_scale[product_id]), "contract rate overflows an order total", ipath)
            _check(
                contract.supplier_id in eligible[category_of_product[product_id]],
                f"supplier {contract.supplier_id!r} not eligible for category of {product_id!r}", ipath,
            )
            windows.setdefault((product_id, contract.supplier_id), []).append(
                (contract.valid_from, contract.valid_until, path)
            )

    for (product_id, supplier_id), spans in windows.items():
        spans.sort()
        for (s1, e1, _), (s2, _, path2) in zip(spans, spans[1:]):
            _check(s2 >= e1, f"overlapping contracts for ({product_id}, {supplier_id})", path2)

    spot = scenario.spot
    _check(_finite(spot.period) and spot.period > 0, "spot period must be positive", "spot.period")
    _check(_finite(spot.noise_sd) and spot.noise_sd >= 0, "spot noise sd must be non-negative", "spot.noise_sd")
    _check(_finite(spot.competition_slope) and spot.competition_slope >= 0,
           "competition slope must be non-negative", "spot.competition_slope")
    _check(spot.competition_basis in ("per_item", "per_supplier_total"),
           "competition basis must be per_item or per_supplier_total", "spot.competition_basis")
    check_spot_order_totals(scenario, spot.competition_slope, "spot.competition_slope")

    _check(scenario.policy.kind in POLICY_KINDS, "policy kind must be naive or dynamic", "policy.kind")
    _check(_finite(scenario.policy.po_overhead) and scenario.policy.po_overhead >= 0,
           "order overhead must be finite and non-negative", "policy.po_overhead")
    if spot.competition_basis == "per_supplier_total":
        # the largest space any policy and slope can reach: one option per eligible
        # supplier, plus dynamic's contract rate per supplier holding a contract on it
        holders = Counter(p for p, _ in windows)
        for c, category in enumerate(scenario.catalog.categories):
            space = math.prod(len(category.eligible_suppliers) + holders[p.id] for p in category.products)
            _check(space <= ASSIGNMENT_ENUMERATION_LIMIT, f"per_supplier_total assignment space of {space} "
                   f"exceeds the enumeration bound of {ASSIGNMENT_ENUMERATION_LIMIT}", f"catalog.categories[{c}]")

    d = scenario.delays
    for name in ("creation_to_approval", "approval_to_handling", "rfq_response", "handling_to_po"):
        _check(_finite(getattr(d, name)) and getattr(d, name) > 0, "delay mean must be positive", f"delays.{name}")
    for supplier_id, mean in d.rfq_response_overrides.items():
        _check(supplier_id in known_suppliers, f"unknown supplier {supplier_id!r}", "delays.rfq_response_overrides")
        _check(_finite(mean) and mean > 0, "delay mean must be positive",
               f"delays.rfq_response_overrides[{supplier_id}]")

    return scenario
