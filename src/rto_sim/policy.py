"""Order-allocation policies and the exact minimum-cost assignment solver."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    "admissible_options",
    "build_cost_matrix",
    "Decision",
    "allocate_batch",
    "allocate_min_cost",
    "decide_rfq_scope",
]

CONTRACT = "contract"
SPOT = "spot"
_PROVENANCES = (CONTRACT, SPOT)  # by an option's rank
_BY_SUPPLIER = itemgetter(1, 2)  # an option's (supplier, rank)


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


def admissible_options(items: Iterable[str], contract_terms: Mapping[str, Mapping[str, float]],
                       quotes: Mapping[str, Mapping[str, float]]) -> list[list[tuple[float, str, int]]]:
    """Each item's admissible options as (unit rate, supplier id, rank), as a `Decision` holds them.

    An item admits its active contract rates (rank 0) and every collected
    quote (supplier -> item -> unit rate) that prices it (rank 1), each kind
    in supplier order.  Quotes cover exactly the RFQ scope, so the policy
    acts only through `decide_rfq_scope`: under naive a contracted item admits
    only its contract holders, under dynamic the same supplier may appear
    with both provenances.
    """
    quoted = sorted(quotes.items())
    return [[(rate, supplier_id, 0) for supplier_id, rate in sorted(contract_terms.get(item, {}).items())]
            + [(quote[item], supplier_id, 1) for supplier_id, quote in quoted if item in quote]
            for item in items]


def build_cost_matrix(requisition: Requisition,
                      contract_terms: Mapping[str, Mapping[str, float]],
                      quotes: Mapping[str, Mapping[str, float]],
                      *, competition_slope: float = 0.0,
                      competition_basis: str = "per_item") -> CostMatrix:
    """The admissible options of each included item (`admissible_options`) as a cost matrix."""
    options = admissible_options(requisition.items, contract_terms, quotes)
    entries = {item: tuple(MatrixEntry(supplier_id, rate, _PROVENANCES[rank]) for rate, supplier_id, rank in row)
               for item, row in zip(requisition.items, options)}
    return CostMatrix(entries=entries, competition_slope=competition_slope,
                      competition_basis=competition_basis)


class Decision(NamedTuple):
    """One requisition's allocation problem as plain option rows.

    `options` holds, per item of `items` (the order the allocation totals
    them in), each admissible option as (unit rate, supplier id, rank), rank
    0 for a contract rate and 1 for a spot quote, in any order.  `slope` is
    the per_supplier_total markup per spot unit, 0.0 unless it couples the
    items.
    """

    items: tuple[str, ...]
    units: tuple[int, ...]
    options: Sequence[Sequence[tuple[float, str, int]]]
    po_overhead: float
    slope: float = 0.0


# each search returns, per decision, each item's (chosen option, final unit rate)
_Priced = list[tuple[tuple[float, str, int], float]]

# assignments per block of one decision's enumeration: the unit a search
# stacks, and the granularity of the layout cache
_ENUMERATION_BLOCK = 1 << 14

# (row, item) cells per stacked chunk, where a row is one supplier set of a
# subset search or one assignment of an enumeration.  A chunk takes whole
# decisions (subset search) or blocks (enumeration) until the next would take
# it past this count, so it holds at most 2^14 rows; a lone decision or block
# of more cells is evaluated alone, as a one-decision solve always was.  A
# cell's working arrays take at most ~180 bytes: the enumeration's six of 8
# bytes, plus per row 8 bytes per supplier of the pool (at most 12) for the
# spot volumes and four more of 8 bytes, all on one cell at one item; the
# subset search's offer flag per option column (at most 25), a choice and a
# price.  So a chunk's working arrays stay under 3 MB (1.5 MB measured at
# one item, 2.4 MB at two, from a pool of 12)
_STACK_CELLS = 1 << 14
# a block or decision of this many cells is evaluated alone, an enumeration
# block on its cached arrays as they are: stacking would save one call's fixed
# cost of some 25 us, but copy and offset each of its cells
_ALONE_CELLS = _STACK_CELLS // 4


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


def _chunks(cells: Sequence[int]) -> Iterator[slice]:
    """Runs of consecutive pieces, given each piece's cells, of at most _STACK_CELLS cells.

    A piece of _ALONE_CELLS or more, or of more than _STACK_CELLS, forms a run of its own.
    """
    start = total = 0
    for index, size in enumerate(cells):
        weight = size if size < _ALONE_CELLS else _STACK_CELLS + 1
        if total and total + weight > _STACK_CELLS:
            yield slice(start, index)
            start, total = index, 0
        total += weight
    if total:
        yield slice(start, len(cells))


def _search_supplier_subsets(decisions: Sequence[Decision], n_pool: int) -> list[_Priced]:
    """The subset search of decisions with one pool size and one item count.

    Given the supplier subset, each item independently takes its first option
    (in (rate, supplier, rank) order) from a supplier in the subset.  Each
    (subset, decision) is one array row, and an item no supplier of the
    subset offers falls to a column every subset offers, priced at inf.
    """
    member, sizes, _ = _supplier_sets(n_pool)
    n_items = len(decisions[0].items)
    option_lists = [[sorted(options) for options in decision.options] for decision in decisions]
    width = 1 + max(len(options) for lists in option_lists for options in lists)
    pad_codes, pad_rates = [n_pool] * width, [math.inf] * width
    found: list[_Priced] = []
    for part in _chunks([len(sizes) * n_items] * len(decisions)):
        # (decision, item, option column): the offering supplier's code in the
        # decision's pool and the rate, then padding every subset offers
        codes: list[int] = []
        rates: list[float] = []
        for lists in option_lists[part]:
            code = {supplier: index for index, supplier in
                    enumerate(sorted({option[1] for options in lists for option in options}))}
            for options in lists:
                codes += [code[option[1]] for option in options]
                codes += pad_codes[len(options):]
                rates += [option[0] for option in options]
                rates += pad_rates[len(options):]
        n = part.stop - part.start
        codes = np.array(codes).reshape(n, n_items, width)
        rates = np.array(rates).reshape(n, n_items, width)
        units = np.array([decision.units for decision in decisions[part]])
        overhead = np.array([decision.po_overhead for decision in decisions[part]])
        choice = member[:, codes].argmax(axis=3)  # (set, decision, item): the first offering option
        price = rates[np.arange(n)[:, None], np.arange(n_items), choice]
        # bit-identical to a scalar loop: the overhead first, then each item's
        # rate * q in item order
        total = overhead * (sizes - 1)[:, None]
        for item in range(n_items):
            total = total + price[:, :, item] * units[:, item]
        # argmin takes the first minimum: ties break toward fewer suppliers,
        # then the smallest supplier set
        best = total.argmin(axis=0)
        if (total[best, np.arange(n)] == math.inf).any():
            # the full set offers every item, so only an overflow gets here
            raise InfeasibleAllocationError("no feasible supplier subset: every order total overflows")
        for lists, picks in zip(option_lists[part], choice[best, np.arange(n)].tolist()):
            found.append([(options[pick], options[pick][0]) for options, pick in zip(lists, picks)])
    return found


# the enumeration's price-free index arrays are cached per option structure
# for a space of one block with at most _LAYOUT_CACHE_CELLS (item, row)
# cells.  An entry holds two intp arrays per cell and two per row, and its
# key one byte per option column and eight per item: with its bookkeeping,
# under 34 bytes per cell at 2^14 cells, 544 KiB, so a full cache holds
# under 34 MiB.  A larger space builds each block's arrays afresh and caches
# none
_LAYOUT_CACHE_CELLS = 1 << 14
_LAYOUT_CACHE_ENTRIES = 64
_MAX_POSITION = 1 << MAX_SUPPLIERS_PER_CATEGORY  # beyond every supplier set's position


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


def _enumerate_assignments(decisions: Sequence[Decision]) -> list[_Priced]:
    """The coupled enumeration of decisions with one item count.

    The per_supplier_total markup couples the items, so the subset search
    does not apply: every full assignment is evaluated, in itertools.product
    order over each item's options in (supplier, rank) order, which is the
    per-item tie-break.  Each decision's assignments are cut into blocks of
    _ENUMERATION_BLOCK rows, and the blocks of all decisions are stacked.
    """
    n_items = len(decisions[0].items)
    flat: list[tuple[float, str, int]] = []  # every decision's option columns, items in order
    slopes: list[float] = []  # per column: its decision's slope
    quantities: list[int] = []  # per column: its item's quantity
    blocks = []  # (decision, first column, pool size, overhead, units, cached, layout arguments)
    for d, (_, units, options, po_overhead, slope) in enumerate(decisions):
        first = len(flat)
        for item_options, q in zip(options, units):
            flat += sorted(item_options, key=_BY_SUPPLIER)
            slopes += [slope] * len(item_options)
            quantities += [q] * len(item_options)
        columns = flat[first:]
        code = {supplier: index for index, supplier in enumerate(sorted({option[1] for option in columns}))}
        suppliers = bytes([code[option[1]] for option in columns])  # a pool holds at most 12
        shape = tuple(map(len, options))
        n_rows = math.prod(shape)
        cached = n_rows <= _ENUMERATION_BLOCK and n_rows * n_items <= _LAYOUT_CACHE_CELLS
        for start in range(0, n_rows, _ENUMERATION_BLOCK):
            blocks.append((d, first, len(code), po_overhead, units, cached,
                           (shape, suppliers, len(code), start, min(start + _ENUMERATION_BLOCK, n_rows))))
    # per column: the base rate, the markup per spot unit (exactly 0.0 on a
    # contract rate) and the spot units the option adds to its supplier
    cost = np.array([option[0] for option in flat])
    spot = np.array([option[2] for option in flat], dtype=bool)
    markup = np.where(spot, slopes, 0.0)
    spot_units = np.where(spot, quantities, 0)

    best: list = [None] * len(decisions)  # per decision: ((total, set position), columns, rates)
    for part in _chunks([(args[4] - args[3]) * n_items for *_, args in blocks]):
        chunk = blocks[part]
        layouts = [(_enumeration_layout if cached else _enumeration_layout.__wrapped__)(*args)
                   for *_, cached, args in chunk]
        owner, first, n_pool, overhead, units, _, _ = zip(*chunk)
        rows = np.array([len(layout[2]) for layout in layouts])
        block_of_row = np.repeat(np.arange(len(chunk)), rows)
        starts = np.cumsum(rows) - rows
        n_cells = rows * n_pool
        if len(chunk) == 1:
            # a lone block reads its cached arrays as they are, and its decision's columns
            (option, cell, position, extra_orders), = layouts
            cell = cell.reshape(n_items, -1)
            base = first[0]
        else:
            # each block's option columns, moved to its decision's, and its (row,
            # supplier) volume cells, moved past those of the blocks before it
            option = np.concatenate([layout[0] for layout in layouts], axis=1)
            option += np.array(first)[block_of_row]
            cell = np.concatenate([layout[1].reshape(n_items, -1) for layout in layouts], axis=1)
            cell += (np.cumsum(n_cells) - n_cells)[block_of_row]
            position = np.concatenate([layout[2] for layout in layouts])
            extra_orders = np.concatenate([layout[3] for layout in layouts])
            base = 0
        volume = np.bincount(cell.ravel(), weights=spot_units[base:][option].ravel(), minlength=n_cells.sum())
        rate = cost[base:][option] + markup[base:][option] * volume[cell]
        # bit-identical to a scalar loop: the overhead first, then each
        # item's rate * q in item order
        total = np.array(overhead)[block_of_row] * extra_orders
        for item_total in rate * np.array(units)[block_of_row].T:
            total = total + item_total
        # per block, the first row of the earliest supplier set among the rows
        # at the minimum total
        least = np.minimum.reduceat(total, starts)
        if np.isnan(least).any():
            raise ValueError("an order total is NaN")
        tied = total == least[block_of_row]
        winners = np.flatnonzero(tied)
        if len(winners) > len(chunk):  # some block has tied rows
            earliest = np.minimum.reduceat(np.where(tied, position, _MAX_POSITION), starts)
            winners = np.flatnonzero(tied & (position == earliest[block_of_row]))
            winners = winners[np.searchsorted(winners, starts)]
        for d, key, picks, prices in zip(owner, zip(least.tolist(), position[winners].tolist()),
                                         (option[:, winners].T + base).tolist(), rate[:, winners].T.tolist()):
            # a later block wins only on a smaller key, so a full tie keeps the earlier row
            if best[d] is None or key < best[d][0]:
                best[d] = (key, picks, prices)
    return [[(flat[column], price) for column, price in zip(picks, prices)] for _, picks, prices in best]


def allocate_batch(decisions: Sequence[Decision]) -> list[Allocation]:
    """The exact minimum-cost allocation of each decision, in order.

    Each decision is solved as `allocate_min_cost` describes, with the same
    result bit for bit as solving it alone.  Decisions that take the fast
    path are done one by one; the rest are searched together, the subset
    search stacked per (pool size, item count) and the enumeration per item
    count, in chunks of at most _STACK_CELLS cells.  Raises for the first
    malformed decision, else for a search with no finite order total.
    """
    priced: list[_Priced | None] = [None] * len(decisions)
    by_structure: dict[tuple[int, int], list[int]] = {}  # (pool size, item count) -> subset searches
    by_items: dict[int, list[int]] = {}  # item count -> enumerations
    for index, (items, units, options, po_overhead, slope) in enumerate(decisions):
        if not items:
            raise ValueError("empty cost matrix")
        if not (math.isfinite(po_overhead) and po_overhead >= 0):
            raise ValueError(f"po_overhead must be finite and non-negative, got {po_overhead!r}")
        if not all(options) or min(units) < 1:
            for item, item_options, q in zip(items, options, units):
                if not item_options:
                    raise InfeasibleAllocationError(f"no admissible supplier for item {item!r}")
                if q < 1:
                    raise ValueError(f"quantity for item {item!r} must be at least 1")
        pool = {option[1] for item_options in options for option in item_options}
        if len(pool) > MAX_SUPPLIERS_PER_CATEGORY:
            raise InfeasibleAllocationError(f"supplier pool of {len(pool)} exceeds the exact-search bound "
                                            f"of {MAX_SUPPLIERS_PER_CATEGORY}")
        # min takes the first minimum of the (rate, supplier, rank) order
        firsts = [min(item_options) for item_options in options]
        # every item at its cheapest rate with one order costs no more than any
        # other assignment and wins the tie-break, unless a spot markup depends
        # on the allocation
        supplier = firsts[0][1]
        if (all(first[1] == supplier for first in firsts)
                and not (slope > 0.0 and any(first[2] for first in firsts))):
            priced[index] = [(first, first[0]) for first in firsts]
        elif slope > 0.0:
            if math.prod(map(len, options)) > ASSIGNMENT_ENUMERATION_LIMIT:
                raise InfeasibleAllocationError("assignment space exceeds enumeration bound of "
                                                f"{ASSIGNMENT_ENUMERATION_LIMIT}")
            by_items.setdefault(len(items), []).append(index)
        else:
            by_structure.setdefault((len(pool), len(items)), []).append(index)
    for (n_pool, _), indices in by_structure.items():
        for index, found in zip(indices, _search_supplier_subsets([decisions[i] for i in indices], n_pool)):
            priced[index] = found
    for indices in by_items.values():
        for index, found in zip(indices, _enumerate_assignments([decisions[i] for i in indices])):
            priced[index] = found

    allocations = []
    for (items, units, _, po_overhead, _), chosen in zip(decisions, priced):
        allocated = {item: AllocatedItem(supplier_id=option[1], unit_cost=rate, quantity=q,
                                         provenance=_PROVENANCES[option[2]])
                     for item, (option, rate), q in zip(items, chosen, units)}
        n_orders = len({option[1] for option, _ in chosen})
        allocations.append(Allocation(items=allocated, overhead_cost=po_overhead * (n_orders - 1)))
    return allocations


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
    A one-decision call of `allocate_batch`.
    """
    items = tuple(sorted(matrix.entries))
    coupled = matrix.competition_basis == "per_supplier_total"
    decision = Decision(items, tuple(quantities[item] for item in items),
                        [[(entry.unit_cost, entry.supplier_id, _PROVENANCES.index(entry.provenance))
                          for entry in matrix.entries[item]] for item in items],
                        po_overhead, matrix.competition_slope if coupled else 0.0)
    return allocate_batch([decision])[0]


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
