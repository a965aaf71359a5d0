"""Order-allocation policies and the exact minimum-cost assignment solver."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .domain import (
    MAX_SUPPLIERS_PER_CATEGORY,
    AllocatedItem,
    Allocation,
    PolicyKind,
    Quote,
    Requisition,
)

__all__ = [
    "CONTRACT",
    "SPOT",
    "InfeasibleAllocationError",
    "MatrixEntry",
    "CostMatrix",
    "build_cost_matrix",
    "allocate_min_cost",
    "decide_rfq_scope",
]

CONTRACT = "contract"
SPOT = "spot"
_PROVENANCE_RANK = {CONTRACT: 0, SPOT: 1}

ASSIGNMENT_ENUMERATION_LIMIT = 2 ** 20


class InfeasibleAllocationError(RuntimeError):
    """No admissible supplier for some item; signals a misconfigured scenario."""


@dataclass(frozen=True)
class MatrixEntry:
    """One admissible (supplier, provenance) option for an item.

    Under the per_item competition basis unit_cost is the effective price;
    under per_supplier_total it is the base spot rate and the solver adds the
    allocation-dependent markup.
    """

    supplier_id: str
    unit_cost: float
    provenance: str


@dataclass(frozen=True)
class CostMatrix:
    entries: Mapping[str, tuple[MatrixEntry, ...]]  # item -> admissible options
    competition_slope: float = 0.0
    competition_basis: str = "per_item"


def build_cost_matrix(requisition: Requisition,
                      contract_terms: Mapping[str, Mapping[str, tuple[float, float]]],
                      quotes: Mapping[str, Quote],
                      policy: PolicyKind,
                      *, competition_slope: float = 0.0,
                      competition_basis: str = "per_item") -> CostMatrix:
    """Admissible supplier options per included item.

    Naive: items with an active contract admit only contracted suppliers at
    their fixed rates; the rest admit the collected spot quotes.  Dynamic:
    every item admits the union of its contract rates and all spot quotes,
    so the same supplier may appear with both provenances.
    """
    entries: dict[str, tuple[MatrixEntry, ...]] = {}
    for item in sorted(requisition.items):
        options: list[MatrixEntry] = []
        terms = contract_terms.get(item, {})
        for supplier_id in sorted(terms):
            options.append(MatrixEntry(supplier_id, terms[supplier_id][0], CONTRACT))
        wants_spot = policy.kind == "dynamic" or not terms
        if wants_spot:
            for supplier_id in sorted(quotes):
                quote = quotes[supplier_id]
                if item not in quote.unit_rates:
                    raise InfeasibleAllocationError(
                        f"missing quote for item {item!r} from supplier {supplier_id!r}"
                    )
                options.append(MatrixEntry(supplier_id, quote.unit_rates[item], SPOT))
        entries[item] = tuple(options)
    return CostMatrix(entries=entries, competition_slope=competition_slope,
                      competition_basis=competition_basis)


def _entry_sort_key(entry: MatrixEntry) -> tuple:
    return (entry.unit_cost, entry.supplier_id, _PROVENANCE_RANK[entry.provenance])


def _allocate_by_supplier_subsets(matrix: CostMatrix, quantities: Mapping[str, int],
                                  po_overhead: float) -> dict[str, MatrixEntry]:
    items = sorted(matrix.entries)
    # cheapest option per (item, supplier); provenance ties prefer contract
    best: dict[str, dict[str, MatrixEntry]] = {}
    suppliers: set[str] = set()
    for item in items:
        per_supplier: dict[str, MatrixEntry] = {}
        for entry in sorted(matrix.entries[item], key=_entry_sort_key):
            per_supplier.setdefault(entry.supplier_id, entry)
        best[item] = per_supplier
        suppliers.update(per_supplier)
    pool = sorted(suppliers)
    if len(pool) > MAX_SUPPLIERS_PER_CATEGORY:
        raise InfeasibleAllocationError(
            f"supplier pool of {len(pool)} exceeds the exact-search bound of {MAX_SUPPLIERS_PER_CATEGORY}"
        )

    best_key: tuple | None = None
    best_choice: dict[str, MatrixEntry] | None = None
    for mask in range(1, 1 << len(pool)):
        subset = tuple(pool[i] for i in range(len(pool)) if mask >> i & 1)
        total = po_overhead * (len(subset) - 1)
        choice: dict[str, MatrixEntry] = {}
        feasible = True
        for item in items:
            candidates = [best[item][s] for s in subset if s in best[item]]
            if not candidates:
                feasible = False
                break
            entry = min(candidates, key=_entry_sort_key)
            choice[item] = entry
            total += entry.unit_cost * quantities[item]
        if not feasible:
            continue
        key = (total, len(subset), subset)
        if best_key is None or key < best_key:
            best_key = key
            best_choice = choice
    if best_choice is None:
        raise InfeasibleAllocationError("no feasible supplier subset")
    return best_choice


def _allocate_by_assignment_enumeration(matrix: CostMatrix, quantities: Mapping[str, int],
                                        po_overhead: float) -> dict[str, MatrixEntry]:
    # per_supplier_total markup couples the items, so the subset search does
    # not apply; enumerate full assignments instead
    items = sorted(matrix.entries)
    option_lists = [sorted(matrix.entries[item], key=_entry_sort_key) for item in items]
    size = 1
    for options in option_lists:
        size *= len(options)
        if size > ASSIGNMENT_ENUMERATION_LIMIT:
            raise InfeasibleAllocationError(
                f"assignment space exceeds enumeration bound of {ASSIGNMENT_ENUMERATION_LIMIT}"
            )
    slope = matrix.competition_slope
    best_key: tuple | None = None
    best_choice: dict[str, MatrixEntry] | None = None
    for combo in itertools.product(*option_lists):
        spot_units: dict[str, int] = {}
        for item, entry in zip(items, combo):
            if entry.provenance == SPOT:
                spot_units[entry.supplier_id] = spot_units.get(entry.supplier_id, 0) + quantities[item]
        used = sorted({entry.supplier_id for entry in combo})
        total = po_overhead * (len(used) - 1)
        for item, entry in zip(items, combo):
            rate = entry.unit_cost
            if entry.provenance == SPOT:
                rate += slope * spot_units[entry.supplier_id]
            total += rate * quantities[item]
        key = (total, len(used), tuple(used),
               tuple((e.supplier_id, e.provenance) for e in combo))
        if best_key is None or key < best_key:
            best_key = key
            best_choice = dict(zip(items, combo))
    if best_choice is None:
        raise InfeasibleAllocationError("no feasible assignment")
    return best_choice


def allocate_min_cost(matrix: CostMatrix, quantities: Mapping[str, int],
                      po_overhead: float) -> Allocation:
    """Exact minimum-cost single-supplier-per-item assignment.

    Minimizes sum(unit cost * quantity) plus `po_overhead` for every distinct
    supplier beyond the first.  Ties break toward fewer suppliers, then the
    lexicographically smallest supplier set.  The search enumerates supplier
    subsets (items decouple given the subset); the per_supplier_total
    competition basis falls back to full assignment enumeration.
    """
    if not matrix.entries:
        raise ValueError("empty cost matrix")
    for item, options in matrix.entries.items():
        if not options:
            raise InfeasibleAllocationError(f"no admissible supplier for item {item!r}")
        if quantities[item] < 1:
            raise ValueError(f"quantity for item {item!r} must be at least 1")

    coupled = matrix.competition_basis == "per_supplier_total" and matrix.competition_slope > 0.0
    if coupled:
        choice = _allocate_by_assignment_enumeration(matrix, quantities, po_overhead)
    else:
        choice = _allocate_by_supplier_subsets(matrix, quantities, po_overhead)

    spot_units: dict[str, int] = {}
    if coupled:
        for item, entry in choice.items():
            if entry.provenance == SPOT:
                spot_units[entry.supplier_id] = spot_units.get(entry.supplier_id, 0) + quantities[item]

    allocated: dict[str, AllocatedItem] = {}
    for item in sorted(choice):
        entry = choice[item]
        rate = entry.unit_cost
        if coupled and entry.provenance == SPOT:
            rate += matrix.competition_slope * spot_units[entry.supplier_id]
        allocated[item] = AllocatedItem(supplier_id=entry.supplier_id, unit_cost=rate,
                                        quantity=quantities[item], provenance=entry.provenance)
    used = sorted({a.supplier_id for a in allocated.values()})
    return Allocation(pr_id="", items=allocated, po_count=len(used),
                      overhead_cost=po_overhead * (len(used) - 1))


def decide_rfq_scope(requisition: Requisition,
                     contract_terms: Mapping[str, Mapping[str, tuple[float, float]]],
                     policy: PolicyKind,
                     eligible_suppliers: Iterable[str]) -> set[tuple[str, str]]:
    """(item, supplier) pairs to quote; empty means the order is issued directly.

    Naive quotes only items with no active contract; dynamic quotes every item
    regardless of contract status.  All eligible suppliers participate in the
    spot round, contract holders included.
    """
    if policy.kind == "dynamic":
        items = sorted(requisition.items)
    else:
        items = [i for i in sorted(requisition.items) if not contract_terms.get(i)]
    return {(item, supplier) for item in items for supplier in eligible_suppliers}
