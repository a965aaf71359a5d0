"""Order-allocation policies and the exact minimum-cost assignment solver."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

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
                      contract_terms: Mapping[str, Mapping[str, float]],
                      quotes: Mapping[str, Quote],
                      *, competition_slope: float = 0.0,
                      competition_basis: str = "per_item") -> CostMatrix:
    """Admissible supplier options per included item.

    An item admits its active contract rates and every collected quote that
    prices it.  Quotes cover exactly the RFQ scope, so the policy acts only
    through `decide_rfq_scope`: under naive a contracted item admits only its
    contract holders, under dynamic the same supplier may appear with both
    provenances.
    """
    entries: dict[str, tuple[MatrixEntry, ...]] = {}
    for item in sorted(requisition.items):
        terms = contract_terms.get(item, {})
        options = [MatrixEntry(supplier_id, terms[supplier_id], CONTRACT) for supplier_id in sorted(terms)]
        for supplier_id in sorted(quotes):
            rate = quotes[supplier_id].unit_rates.get(item)
            if rate is not None:
                options.append(MatrixEntry(supplier_id, rate, SPOT))
        entries[item] = tuple(options)
    return CostMatrix(entries=entries, competition_slope=competition_slope,
                      competition_basis=competition_basis)


def _entry_sort_key(entry: MatrixEntry) -> tuple:
    return (entry.unit_cost, entry.supplier_id, _PROVENANCE_RANK[entry.provenance])


# each search takes the items' options in _entry_sort_key order and their
# quantities, and returns each item's (chosen option, final unit rate)
_Priced = list[tuple[MatrixEntry, float]]


def _allocate_by_supplier_subsets(option_lists: list[list[MatrixEntry]], units: list[int],
                                  po_overhead: float) -> _Priced:
    # given the supplier subset, each item independently takes its first
    # option from a supplier in the subset
    pool = sorted({entry.supplier_id for options in option_lists for entry in options})
    if len(pool) > MAX_SUPPLIERS_PER_CATEGORY:
        raise InfeasibleAllocationError(
            f"supplier pool of {len(pool)} exceeds the exact-search bound of {MAX_SUPPLIERS_PER_CATEGORY}"
        )
    # subsets come in increasing size, each size in lexicographic order, so
    # accepting only a strictly smaller total breaks ties toward fewer
    # suppliers, then the smallest supplier set
    best_total: float | None = None
    best_choice: list[MatrixEntry] | None = None
    for size in range(1, len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            total = po_overhead * (size - 1)
            choice = []
            for options, q in zip(option_lists, units):
                entry = next((e for e in options if e.supplier_id in subset), None)
                if entry is None:
                    break
                choice.append(entry)
                total += entry.unit_cost * q
            else:
                if best_total is None or total < best_total:
                    best_total, best_choice = total, choice
    if best_choice is None:
        raise InfeasibleAllocationError("no feasible supplier subset")
    return [(entry, entry.unit_cost) for entry in best_choice]


def _allocate_by_assignment_enumeration(option_lists: list[list[MatrixEntry]], units: list[int],
                                        po_overhead: float, slope: float) -> _Priced:
    # per_supplier_total markup couples the items, so the subset search does
    # not apply; enumerate full assignments instead
    if math.prod(len(options) for options in option_lists) > ASSIGNMENT_ENUMERATION_LIMIT:
        raise InfeasibleAllocationError(
            f"assignment space exceeds enumeration bound of {ASSIGNMENT_ENUMERATION_LIMIT}"
        )
    best_key: tuple | None = None
    best_choice: _Priced | None = None
    for combo in itertools.product(*option_lists):
        spot_units: dict[str, int] = {}
        for entry, q in zip(combo, units):
            if entry.provenance == SPOT:
                spot_units[entry.supplier_id] = spot_units.get(entry.supplier_id, 0) + q
        rates = [e.unit_cost + slope * spot_units[e.supplier_id] if e.provenance == SPOT else e.unit_cost
                 for e in combo]
        used = sorted({entry.supplier_id for entry in combo})
        total = po_overhead * (len(used) - 1)
        for rate, q in zip(rates, units):
            total += rate * q
        if best_key is not None and total > best_key[0]:
            continue  # the key leads with the total, so it cannot win
        key = (total, len(used), tuple(used),
               tuple((e.supplier_id, e.provenance) for e in combo))
        if best_key is None or key < best_key:
            best_key = key
            best_choice = list(zip(combo, rates))
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

    items = sorted(matrix.entries)
    option_lists = [sorted(matrix.entries[item], key=_entry_sort_key) for item in items]
    units = [quantities[item] for item in items]
    if matrix.competition_basis == "per_supplier_total" and matrix.competition_slope > 0.0:
        priced = _allocate_by_assignment_enumeration(option_lists, units, po_overhead,
                                                     matrix.competition_slope)
    else:
        priced = _allocate_by_supplier_subsets(option_lists, units, po_overhead)
    allocated = {item: AllocatedItem(supplier_id=entry.supplier_id, unit_cost=rate, quantity=q,
                                     provenance=entry.provenance)
                 for item, (entry, rate), q in zip(items, priced, units)}
    n_orders = len({entry.supplier_id for entry, _ in priced})
    return Allocation(items=allocated, overhead_cost=po_overhead * (n_orders - 1))


def decide_rfq_scope(requisition: Requisition,
                     contract_terms: Mapping[str, Mapping[str, float]],
                     policy: PolicyKind) -> tuple[str, ...]:
    """Items to quote, sorted; empty means the order is issued directly.

    The one place the policies differ.  Naive quotes only items with no
    active contract; dynamic quotes every item regardless of contract status.
    Every eligible supplier of the category is asked for a quote, contract
    holders included.
    """
    if policy.kind == "dynamic":
        return tuple(sorted(requisition.items))
    return tuple(i for i in sorted(requisition.items) if not contract_terms.get(i))
