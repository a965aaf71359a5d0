"""Order-allocation policies and the exact minimum-cost assignment solver."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    ASSIGNMENT_ENUMERATION_LIMIT,
    MAX_SUPPLIERS_PER_CATEGORY,
    AllocatedItem,
    Allocation,
    PolicyKind,
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
                      quotes: Mapping[str, Mapping[str, float]],
                      *, competition_slope: float = 0.0,
                      competition_basis: str = "per_item") -> CostMatrix:
    """Admissible supplier options per included item.

    An item admits its active contract rates and every collected quote
    (supplier -> item -> unit rate) that prices it.  Quotes cover exactly
    the RFQ scope, so the policy acts only through `decide_rfq_scope`: under
    naive a contracted item admits only its contract holders, under dynamic
    the same supplier may appear with both provenances.
    """
    entries: dict[str, tuple[MatrixEntry, ...]] = {}
    for item in requisition.items:
        terms = contract_terms.get(item, {})
        options = [MatrixEntry(supplier_id, terms[supplier_id], CONTRACT) for supplier_id in sorted(terms)]
        for supplier_id in sorted(quotes):
            rate = quotes[supplier_id].get(item)
            if rate is not None:
                options.append(MatrixEntry(supplier_id, rate, SPOT))
        entries[item] = tuple(options)
    return CostMatrix(entries=entries, competition_slope=competition_slope,
                      competition_basis=competition_basis)


def _entry_sort_key(entry: MatrixEntry) -> tuple:
    return (entry.unit_cost, entry.supplier_id, _PROVENANCE_RANK[entry.provenance])


# each search takes the items' options (the subset search in _entry_sort_key
# order, the enumeration in any order), their quantities, the overhead and
# every supplier's index in the sorted pool, and returns each item's (chosen
# option, final unit rate)
_Priced = list[tuple[MatrixEntry, float]]

# assignments evaluated per array block: bounds the enumeration's working
# memory at a few MB whatever the size of the assignment space
_ENUMERATION_BLOCK = 1 << 14


@functools.lru_cache(maxsize=None)
def _supplier_sets(n_suppliers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every non-empty subset of range(n_suppliers) in the tie-break order of supplier sets.

    That is by size, each size in `combinations` order.  Returns the membership
    rows, with a last column every set offers, the sizes, and the row of each
    set's bit mask (bit i for supplier i).
    """
    masks = np.array([sum(1 << index for index in subset) for size in range(1, n_suppliers + 1)
                      for subset in itertools.combinations(range(n_suppliers), size)])
    member = np.ones((len(masks), n_suppliers + 1), dtype=bool)
    member[:, :-1] = (masks[:, None] >> np.arange(n_suppliers)) & 1
    sizes = member.sum(axis=1) - 1
    rank = np.zeros(1 << n_suppliers, dtype=np.intp)
    rank[masks] = np.arange(len(masks))
    member.flags.writeable = sizes.flags.writeable = rank.flags.writeable = False
    return member, sizes, rank


def _allocate_by_supplier_subsets(option_lists: list[list[MatrixEntry]], units: list[int],
                                  po_overhead: float, code: Mapping[str, int]) -> _Priced:
    # given the supplier subset, each item independently takes its first
    # option from a supplier in the subset; every subset is one array row,
    # and an item no supplier of the subset offers falls to the last column,
    # priced at inf
    member, sizes, _ = _supplier_sets(len(code))
    total = po_overhead * (sizes - 1)
    choices = []
    for options, q in zip(option_lists, units):
        offers = member[:, [code[entry.supplier_id] for entry in options] + [-1]]
        choice = offers.argmax(axis=1)  # the first offering option
        total = total + np.array([entry.unit_cost for entry in options] + [math.inf])[choice] * q
        choices.append(choice)
    # argmin takes the first minimum: ties break toward fewer suppliers, then
    # the smallest supplier set
    best = int(np.argmin(total))
    if total[best] == math.inf:  # the full set offers every item, so only an overflow gets here
        raise InfeasibleAllocationError("no feasible supplier subset: every order total overflows")
    chosen = [options[choice[best]] for options, choice in zip(option_lists, choices)]
    return [(entry, entry.unit_cost) for entry in chosen]


# the enumeration's price-free index arrays are cached per option structure
# for a space of one block with at most _LAYOUT_CACHE_CELLS (item, row)
# cells.  An entry holds two intp arrays per cell and two per row, and its
# key one byte per option column and eight per item: with its bookkeeping,
# under 34 bytes per cell at 2^14 cells, 544 KiB, so a full cache holds
# under 34 MiB.  A larger space builds each block's arrays afresh and caches
# none
_LAYOUT_CACHE_CELLS = 1 << 14
_LAYOUT_CACHE_ENTRIES = 64


@functools.lru_cache(maxsize=_LAYOUT_CACHE_ENTRIES)
def _enumeration_layout(shape: tuple[int, ...], suppliers: bytes, n_pool: int, start: int,
                        stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index arrays of assignments start..stop-1, in itertools.product order.

    `shape` holds each item's option count and `suppliers` each option
    column's supplier index in a pool of `n_pool`, items in order.  Returns,
    read-only: each (item, row)'s option column; its (row, supplier) volume
    cell, flattened; each row's position in the supplier-set order; and the
    row's orders beyond the first.
    """
    rows = np.arange(start, stop)
    offsets = np.array([0, *itertools.accumulate(shape[:-1])])[:, None]
    option = np.stack(np.unravel_index(rows, shape)) + offsets  # (item, row)
    supplier = np.frombuffer(suppliers, dtype=np.uint8).astype(np.intp)[option]
    cell = (supplier + np.arange(len(rows)) * n_pool).ravel()
    _, sizes, rank = _supplier_sets(n_pool)
    position = rank[np.bitwise_or.reduce(1 << supplier, axis=0)]
    extra_orders = sizes[position] - 1
    for array in (option, cell, position, extra_orders):
        array.flags.writeable = False
    return option, cell, position, extra_orders


def _allocate_by_assignment_enumeration(option_lists: list[Sequence[MatrixEntry]], units: list[int],
                                        po_overhead: float, code: Mapping[str, int],
                                        slope: float) -> _Priced:
    # per_supplier_total markup couples the items, so the subset search does
    # not apply; evaluate every full assignment, in itertools.product order,
    # one block of rows at a time.  With each item's options in (supplier,
    # provenance) order ("contract" < "spot"), that is the per-item tie-break
    option_lists = [sorted(options, key=operator.attrgetter("supplier_id", "provenance"))
                    for options in option_lists]
    shape = tuple(len(options) for options in option_lists)
    n_assignments = math.prod(shape)
    if n_assignments > ASSIGNMENT_ENUMERATION_LIMIT:
        raise InfeasibleAllocationError("assignment space exceeds enumeration bound of "
                                        f"{ASSIGNMENT_ENUMERATION_LIMIT}")
    # one column per option of every item, items in order: the base rate, the
    # markup per spot unit (exactly 0.0 on a contract rate) and the spot units
    # the option adds to its supplier
    flat = [entry for options in option_lists for entry in options]
    columns = [(entry.unit_cost,) + ((slope, q) if entry.provenance == SPOT else (0.0, 0))
               for options, q in zip(option_lists, units) for entry in options]
    cost, markup, spot_units = np.array(columns).T
    quantity = np.array(units)[:, None]
    suppliers = bytes(code[entry.supplier_id] for entry in flat)  # a pool holds at most 12
    cached = (n_assignments <= _ENUMERATION_BLOCK
              and n_assignments * len(shape) <= _LAYOUT_CACHE_CELLS)
    layout = _enumeration_layout if cached else _enumeration_layout.__wrapped__

    best_key = best_choice = None
    for start in range(0, n_assignments, _ENUMERATION_BLOCK):
        option, cell, position, extra_orders = layout(shape, suppliers, len(code), start,
                                                      min(start + _ENUMERATION_BLOCK, n_assignments))
        # each row's spot volume per (row, supplier) cell
        volume = np.bincount(cell, weights=spot_units[option].ravel(),
                             minlength=option.shape[1] * len(code))
        rate = cost[option] + markup[option] * volume[cell].reshape(option.shape)
        # bit-identical to a scalar loop: the overhead first, then each
        # item's rate * q in item order
        total = po_overhead * extra_orders
        for item_total in rate * quantity:
            total = total + item_total
        # among rows at the minimum, argmin takes the first of the earliest set
        tied = np.flatnonzero(total == total.min())
        row = tied[np.argmin(position[tied])]
        key = (float(total[row]), int(position[row]))
        if best_key is None or key < best_key:
            best_key = key
            best_choice = [(flat[column], float(r)) for column, r in zip(option[:, row], rate[:, row])]
    return best_choice


def allocate_min_cost(matrix: CostMatrix, quantities: Mapping[str, int],
                      po_overhead: float) -> Allocation:
    """Exact minimum-cost single-supplier-per-item assignment.

    Minimizes sum(unit cost * quantity) plus `po_overhead` for every distinct
    supplier beyond the first.  Ties break toward fewer suppliers, then the
    lexicographically smallest supplier set, then the smallest per-item
    (supplier, provenance) tuple.  When every item's cheapest option comes
    from one supplier, that assignment is returned directly; otherwise the
    search evaluates supplier subsets (items decouple given the subset), and
    the per_supplier_total competition basis evaluates full assignments.
    """
    if not matrix.entries:
        raise ValueError("empty cost matrix")
    if not (math.isfinite(po_overhead) and po_overhead >= 0):
        raise ValueError(f"po_overhead must be finite and non-negative, got {po_overhead!r}")
    for item, options in matrix.entries.items():
        if not options:
            raise InfeasibleAllocationError(f"no admissible supplier for item {item!r}")
        if quantities[item] < 1:
            raise ValueError(f"quantity for item {item!r} must be at least 1")

    items = sorted(matrix.entries)
    units = [quantities[item] for item in items]
    coupled = matrix.competition_basis == "per_supplier_total" and matrix.competition_slope > 0.0
    pool = sorted({entry.supplier_id for options in matrix.entries.values() for entry in options})
    if len(pool) > MAX_SUPPLIERS_PER_CATEGORY:
        raise InfeasibleAllocationError(f"supplier pool of {len(pool)} exceeds the exact-search bound "
                                        f"of {MAX_SUPPLIERS_PER_CATEGORY}")
    # min takes the first minimum, so each is the head of its sorted option list
    firsts = [min(matrix.entries[item], key=_entry_sort_key) for item in items]
    # every item at its cheapest rate with one order costs no more than any
    # other assignment and wins the tie-break, unless a spot markup depends
    # on the allocation
    if (len({entry.supplier_id for entry in firsts}) == 1
            and not (coupled and any(entry.provenance == SPOT for entry in firsts))):
        priced = [(entry, entry.unit_cost) for entry in firsts]
    else:
        code = {supplier_id: index for index, supplier_id in enumerate(pool)}
        if coupled:
            priced = _allocate_by_assignment_enumeration([matrix.entries[item] for item in items], units,
                                                         po_overhead, code, matrix.competition_slope)
        else:
            option_lists = [sorted(matrix.entries[item], key=_entry_sort_key) for item in items]
            priced = _allocate_by_supplier_subsets(option_lists, units, po_overhead, code)
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
        return tuple(requisition.items)
    return tuple(i for i in requisition.items if not contract_terms.get(i))
