"""Independent references used only by tests.

These stay deliberately naive: the allocation oracle enumerates every
assignment outright, the reference solver searches supplier subsets and
full assignments in Python loops, the Weibull CDF is the textbook closed
form, the hazard is evaluated pointwise from its definition, the stock
level and inclusion probability are the replenishment model's formulas with
their preconditions checked, the summary reduces one metric's values alone,
and the replication reference drives one scenario through a future-event
queue.
The first five must not share code with the production solver, samplers
and requisition builder they check; the replication reference checks the
engine's timing, ordering and horizon cut, so it calls the same model layers
as the engine, but keeps its own contract commitments.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from rto_sim import demand
from rto_sim.domain import (
    MAX_SUPPLIERS_PER_CATEGORY,
    AllocatedItem,
    Allocation,
    EventRecord,
    Requisition,
    Scenario,
)
from rto_sim.engine import (
    PO_GENERATION,
    PR_GENERATION,
    PR_HANDLING,
    RFQ_RESPONSE,
    TERMINATION,
    HandlingRecord,
    RngPlan,
    RunOutput,
)
from rto_sim.hazards import (
    ConstantBaseline,
    HazardSpec,
    WeibullBaseline,
    sample_exponential_delay,
    sample_gap,
)
from rto_sim.market import ContractBook, make_quote, scope_quote
from rto_sim.metrics import QUANTILE_LEVELS, DistributionSummary, RunResult, record_allocation, utilization
from rto_sim.policy import (
    ASSIGNMENT_ENUMERATION_LIMIT,
    CONTRACT,
    SPOT,
    Decision,
    InfeasibleAllocationError,
    allocate_min_cost,
    build_cost_matrix,
    decide_rfq_scope,
)

ENUMERATION_LIMIT = 2 ** 20


@dataclass(frozen=True)
class OracleInstance:
    costs: dict  # item -> {supplier -> unit cost}; absent supplier = unavailable
    quantities: dict  # item -> units
    po_overhead: float


def exhaustive_allocation(instance: OracleInstance) -> tuple[float, list[dict]]:
    """Minimum total cost and every assignment achieving it.

    Total cost is sum(unit cost * quantity) plus po_overhead per distinct
    supplier beyond the first.
    """
    items = sorted(instance.costs)
    option_lists = [sorted(instance.costs[item]) for item in items]
    size = 1
    for options in option_lists:
        size *= len(options)
    if size > ENUMERATION_LIMIT:
        raise ValueError(f"assignment space {size} exceeds {ENUMERATION_LIMIT}")

    best: float | None = None
    minimizers: list[dict] = []
    for combo in itertools.product(*option_lists):
        total = instance.po_overhead * (len(set(combo)) - 1)
        for item, supplier in zip(items, combo):
            total += instance.costs[item][supplier] * instance.quantities[item]
        if best is None or total < best:
            best = total
            minimizers = [dict(zip(items, combo))]
        elif total == best:
            minimizers.append(dict(zip(items, combo)))
    assert best is not None
    return best, minimizers


# each search takes the items' options, each sorted as (unit rate, supplier
# id, rank) tuples: cheapest first, then by supplier, a contract rate (rank 0)
# before a spot quote (rank 1); and their quantities.  It returns each item's
# (chosen option, final unit rate)
_Option = tuple[float, str, int]
_Priced = list[tuple[_Option, float]]


def _allocate_by_supplier_subsets(option_lists: list[list[_Option]], units: tuple[int, ...],
                                  po_overhead: float) -> _Priced:
    # given the supplier subset, each item independently takes its first
    # option from a supplier in the subset
    pool = sorted({supplier for options in option_lists for _, supplier, _ in options})
    if len(pool) > MAX_SUPPLIERS_PER_CATEGORY:
        raise InfeasibleAllocationError(
            f"supplier pool of {len(pool)} exceeds the exact-search bound of {MAX_SUPPLIERS_PER_CATEGORY}"
        )
    # subsets come in increasing size, each size in lexicographic order, so
    # accepting only a strictly smaller total breaks ties toward fewer
    # suppliers, then the smallest supplier set
    best_total: float | None = None
    best_choice: list[_Option] | None = None
    for size in range(1, len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            total = po_overhead * (size - 1)
            choice = []
            for options, q in zip(option_lists, units):
                option = next((o for o in options if o[1] in subset), None)
                if option is None:
                    break
                choice.append(option)
                total += option[0] * q
            else:
                if best_total is None or total < best_total:
                    best_total, best_choice = total, choice
    if best_choice is None:
        raise InfeasibleAllocationError("no feasible supplier subset")
    return [(option, option[0]) for option in best_choice]


def _allocate_by_assignment_enumeration(option_lists: list[list[_Option]], units: tuple[int, ...],
                                        po_overhead: float, slope: float) -> _Priced:
    # a spot slope couples the items, so the subset search does not apply;
    # enumerate full assignments instead
    if math.prod(len(options) for options in option_lists) > ASSIGNMENT_ENUMERATION_LIMIT:
        raise InfeasibleAllocationError(
            f"assignment space exceeds enumeration bound of {ASSIGNMENT_ENUMERATION_LIMIT}"
        )
    best_key: tuple | None = None
    best_choice: _Priced | None = None
    for combo in itertools.product(*option_lists):
        spot_units: dict[str, int] = {}
        for (_, supplier, rank), q in zip(combo, units):
            if rank == 1:
                spot_units[supplier] = spot_units.get(supplier, 0) + q
        rates = [rate + slope * spot_units[supplier] if rank == 1 else rate for rate, supplier, rank in combo]
        used = sorted({supplier for _, supplier, _ in combo})
        total = po_overhead * (len(used) - 1)
        for rate, q in zip(rates, units):
            total += rate * q
        if best_key is not None and total > best_key[0]:
            continue  # the key leads with the total, so it cannot win
        key = (total, len(used), tuple(used), tuple((supplier, rank) for _, supplier, rank in combo))
        if best_key is None or key < best_key:
            best_key = key
            best_choice = list(zip(combo, rates))
    if best_choice is None:
        raise InfeasibleAllocationError("no feasible assignment")
    return best_choice


def reference_allocate_min_cost(decision: Decision) -> Allocation:
    """The scalar exact solver: `policy.allocate_min_cost` without the fast path, in Python loops.

    Minimizes sum(unit rate * quantity) plus the order overhead for every
    distinct supplier beyond the first.  Ties break toward fewer suppliers,
    then the lexicographically smallest supplier set.  The search enumerates
    supplier subsets (items decouple given the subset); a decision with a
    spot slope falls back to full assignment enumeration.
    """
    items, units, options, po_overhead, slope = decision
    if not items:
        raise ValueError("empty cost matrix")
    for item, item_options, q in zip(items, options, units):
        if not item_options:
            raise InfeasibleAllocationError(f"no admissible supplier for item {item!r}")
        if q < 1:
            raise ValueError(f"quantity for item {item!r} must be at least 1")

    option_lists = [sorted(item_options) for item_options in options]
    if slope > 0.0:
        priced = _allocate_by_assignment_enumeration(option_lists, units, po_overhead, slope)
    else:
        priced = _allocate_by_supplier_subsets(option_lists, units, po_overhead)
    allocated = {item: AllocatedItem(supplier_id=supplier, unit_cost=rate, quantity=q,
                                     provenance=(CONTRACT, SPOT)[rank])
                 for item, ((_, supplier, rank), rate), q in zip(items, priced, units)}
    n_orders = len({option[1] for option, _ in priced})
    return Allocation(items=allocated, overhead_cost=po_overhead * (n_orders - 1))


def weibull_cdf(shape: float, scale: float, x: float) -> float:
    if x < 0:
        raise ValueError("x must be non-negative")
    return 1.0 - math.exp(-((x / scale) ** shape))


def inventory_level(q0: int, depletion_rate: float, t: float, t_last: float) -> float:
    """Linear depletion since the last restock, clamped at zero so it stays a valid stock level."""
    if t < t_last:
        raise ValueError("query time precedes last replenishment")
    return max(0.0, q0 - depletion_rate * (t - t_last))


def propensity(q0: int, level: float) -> float:
    """Inclusion probability: the depleted fraction of baseline stock."""
    if q0 <= 0:
        raise ValueError("baseline stock must be positive")
    if level < 0 or level > q0:
        raise ValueError("level outside [0, q0]")
    return (q0 - level) / q0


def summarize_values(values: Sequence[float]) -> DistributionSummary:
    """Moment and quantile summary of one metric: the reference for `summarize_batch`'s rows."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty batch")
    lo, hi = float(arr.min()), float(arr.max())
    levels = np.array(QUANTILE_LEVELS, dtype=float) / 100.0
    quantiles = {level: float(q) for level, q in zip(QUANTILE_LEVELS, np.quantile(arr, levels))}
    return DistributionSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=lo,
        maximum=hi,
        quantiles=quantiles,
    )


def _baseline_value(baseline: ConstantBaseline | WeibullBaseline, elapsed: float) -> float:
    if isinstance(baseline, ConstantBaseline):
        return baseline.rate
    shape, scale = baseline.shape, baseline.scale
    if elapsed == 0.0:
        if shape < 1.0:
            raise ValueError("Weibull hazard diverges at zero elapsed time for shape < 1")
        return 1.0 / scale if shape == 1.0 else 0.0
    return (shape / scale) * (elapsed / scale) ** (shape - 1.0)


def hazard_value(spec: HazardSpec, elapsed: float, t_abs: float) -> float:
    """Instantaneous event rate at `elapsed` days since the last event, absolute time `t_abs`."""
    if elapsed < 0.0:
        raise ValueError("elapsed time must be non-negative")
    rate = _baseline_value(spec.baseline, elapsed)
    if spec.covariates:
        rate *= math.exp(spec.log_modulation(t_abs))
    return rate


@dataclass(frozen=True)
class _SimEvent:
    time: float
    seq: int
    kind: str
    vessel_id: str | None = None
    category_id: str | None = None
    pr_id: str | None = None
    supplier_id: str | None = None


@dataclass
class _PendingPR:
    requisition: Requisition
    contract_terms: Mapping[str, Mapping[str, float]] | None = None
    scope_items: tuple[str, ...] = ()
    quotes: dict[str, dict[str, float]] = field(default_factory=dict)
    quote_streams: dict[str, np.random.Generator] = field(default_factory=dict)
    awaiting: int = 0


def reference_run_once(scenario: Scenario, run_index: int, master_seed: int,
                       *, rng_plan=None, collect_log: bool = True) -> RunOutput:
    """One replication of one scenario, driven by a future-event queue.

    The reference for the engine's timing, event ordering and horizon cut; it
    calls the same demand, market, policy and metrics layers, which have
    oracles of their own.  Initialization schedules the termination marker and
    the first request trigger per (vessel, category).  A trigger samples the
    request content, always reschedules the next trigger from the trigger
    time, and, when material, schedules handling after the
    creation-to-approval plus approval-to-handling delays.  Handling snapshots
    active contract terms, decides the RFQ scope, and either schedules the
    order directly or one response per quoted supplier.  The last pending
    response schedules the order.  Events after the horizon are discarded,
    and the termination marker, scheduled first, wins ties at the horizon.
    """
    plan = rng_plan if rng_plan is not None else RngPlan(master_seed)
    horizon = scenario.horizon
    policy = scenario.policy
    spot = scenario.spot
    book = ContractBook(scenario.contracts)

    categories = {c.id: c for c in scenario.catalog.categories}

    queue: list[tuple[float, int, _SimEvent]] = []
    seq = 0

    def schedule(time: float, kind: str, **fields) -> None:
        nonlocal seq
        if time > horizon:
            return
        event = _SimEvent(time=time, seq=seq, kind=kind, **fields)
        heapq.heappush(queue, (time, seq, event))
        seq += 1

    schedule(horizon, TERMINATION)

    gap_streams: dict[tuple[str, str], np.random.Generator] = {}
    item_streams: dict[tuple[str, str], np.random.Generator] = {}
    last_replenished: dict[tuple[str, str], dict[str, float]] = {}
    pr_counters: dict[tuple[str, str], int] = {}
    vessels = {v.id: v for v in scenario.vessels}

    for vessel in scenario.vessels:
        for category_id in sorted(vessel.hazards):
            pair = (vessel.id, category_id)
            entity = f"{vessel.id}:{category_id}"
            gap_streams[pair] = plan.stream(run_index, "pr-gap", entity)
            item_streams[pair] = plan.stream(run_index, "pr-items", entity)
            last_replenished[pair] = {p.id: 0.0 for p in categories[category_id].products}
            pr_counters[pair] = 0
            t = sample_gap(vessel.hazards[category_id], 0.0, horizon, gap_streams[pair])
            if t is not None:
                schedule(t, PR_GENERATION, vessel_id=vessel.id, category_id=category_id)

    pending: dict[str, _PendingPR] = {}
    delay_streams: dict[str, np.random.Generator] = {}
    commitments: dict[str, int] = {}
    for contract in scenario.contracts:
        commitments[contract.supplier_id] = commitments.get(contract.supplier_id, 0) + contract.volume_commitment
    volumes = {s: 0 for s in commitments}
    terminal_cost = 0.0
    n_pr = n_hl = n_po = 0
    n_rfq = {s.id: 0 for s in scenario.suppliers}
    empty_draws = 0
    log: list[EventRecord] = []
    clock = 0.0

    while queue:
        time, _, event = heapq.heappop(queue)
        if time < clock:
            raise AssertionError("event queue delivered a time in the past")
        clock = time

        if event.kind == TERMINATION:
            if collect_log:
                log.append(EventRecord(kind=TERMINATION, time=time))
            break

        if event.kind == PR_GENERATION:
            vessel = vessels[event.vessel_id]
            category = categories[event.category_id]
            pair = (event.vessel_id, event.category_id)
            pr_id = f"{event.vessel_id}:{event.category_id}:{pr_counters[pair]}"
            requisition = demand.build_requisition(vessel, category, last_replenished[pair],
                                                   time, item_streams[pair], pr_id=pr_id)
            # renewal clock resets on the trigger whether or not it was material
            t_next = sample_gap(vessel.hazards[event.category_id], time, horizon, gap_streams[pair])
            if t_next is not None:
                schedule(t_next, PR_GENERATION, vessel_id=event.vessel_id,
                         category_id=event.category_id)
            if requisition is None:
                empty_draws += 1
                continue
            pr_counters[pair] += 1
            n_pr += 1
            pending[pr_id] = _PendingPR(requisition=requisition)
            delay_streams[pr_id] = plan.stream(run_index, "pr-delays", pr_id)
            d = delay_streams[pr_id]
            handling_at = (time + sample_exponential_delay(scenario.delays.creation_to_approval, d)
                           + sample_exponential_delay(scenario.delays.approval_to_handling, d))
            schedule(handling_at, PR_HANDLING, pr_id=pr_id)
            if collect_log:
                log.append(EventRecord(kind=PR_GENERATION, time=time, pr_id=pr_id,
                                       vessel_id=event.vessel_id, category_id=event.category_id,
                                       payload=requisition))

        elif event.kind == PR_HANDLING:
            state = pending[event.pr_id]
            requisition = state.requisition
            category = categories[requisition.category_id]
            n_hl += 1
            terms = book.terms_snapshot(sorted(requisition.items),
                                        category.eligible_suppliers, time)
            state.contract_terms = terms
            scope_items = decide_rfq_scope(requisition, terms, policy)
            scope_suppliers = category.eligible_suppliers if scope_items else ()
            state.scope_items = scope_items
            if collect_log:
                log.append(EventRecord(kind=PR_HANDLING, time=time, pr_id=event.pr_id,
                                       vessel_id=requisition.vessel_id,
                                       category_id=requisition.category_id,
                                       payload=HandlingRecord(contract_terms=terms,
                                                              rfq_items=scope_items,
                                                              rfq_suppliers=scope_suppliers)))
            if not scope_items:
                po_at = time + sample_exponential_delay(scenario.delays.handling_to_po,
                                                        delay_streams[event.pr_id])
                schedule(po_at, PO_GENERATION, pr_id=event.pr_id)
                continue
            state.awaiting = len(scope_suppliers)
            for supplier_id in scope_suppliers:
                stream = plan.stream(run_index, "rfq", f"{event.pr_id}|{supplier_id}")
                state.quote_streams[supplier_id] = stream
                response_at = time + sample_exponential_delay(
                    scenario.delays.rfq_mean(supplier_id), stream)
                schedule(response_at, RFQ_RESPONSE, pr_id=event.pr_id, supplier_id=supplier_id)

        elif event.kind == RFQ_RESPONSE:
            state = pending[event.pr_id]
            requisition = state.requisition
            category = categories[requisition.category_id]
            n_rfq[event.supplier_id] += 1
            base = make_quote(spot, requisition, event.supplier_id, time,
                              state.quote_streams.pop(event.supplier_id),
                              category_product_ids=category.product_ids)
            scoped = scope_quote({event.supplier_id: base}, requisition, state.scope_items, spot)
            quote = scoped[event.supplier_id]
            state.quotes[event.supplier_id] = quote
            state.awaiting -= 1
            if collect_log:
                log.append(EventRecord(kind=RFQ_RESPONSE, time=time, pr_id=event.pr_id,
                                       supplier_id=event.supplier_id, payload=quote))
            if state.awaiting == 0:
                po_at = time + sample_exponential_delay(scenario.delays.handling_to_po,
                                                        delay_streams[event.pr_id])
                schedule(po_at, PO_GENERATION, pr_id=event.pr_id)

        elif event.kind == PO_GENERATION:
            state = pending.pop(event.pr_id)
            requisition = state.requisition
            decision = build_cost_matrix(requisition, state.contract_terms, state.quotes, policy.po_overhead,
                                         competition_slope=spot.competition_slope,
                                         competition_basis=spot.competition_basis)
            allocation = allocate_min_cost(decision)
            terminal_cost += record_allocation(volumes, allocation)
            n_po += 1
            delay_streams.pop(event.pr_id, None)
            if collect_log:
                log.append(EventRecord(kind=PO_GENERATION, time=time, pr_id=event.pr_id,
                                       payload=allocation))

        else:
            raise AssertionError(f"unknown event kind {event.kind!r}")

    utilizations = {s: utilization(volumes[s], k) for s, k in sorted(commitments.items()) if k > 0}
    deviations = {s: volumes[s] - k for s, k in sorted(commitments.items())}
    result = RunResult(
        run_index=run_index,
        terminal_cost=terminal_cost,
        volumes=dict(sorted(volumes.items())),
        utilizations=utilizations,
        deviations=deviations,
        n_pr=n_pr,
        n_hl=n_hl,
        n_po=n_po,
        n_rfq=n_rfq,
        in_flight=len(pending),
        empty_draws=empty_draws,
    )
    return RunOutput(result=result, log=tuple(log))
