"""Independent references used only by tests.

These stay deliberately naive: the allocation oracle enumerates every
assignment outright, the Weibull CDF is the textbook closed form, and the
replication reference drives one scenario through a future-event queue.  The
first two must not share code with the production solver or samplers they
check; the replication reference checks the engine's timing, ordering and
horizon cut, so it calls the same model layers as the engine.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from rto_sim import demand
from rto_sim.domain import EventRecord, Quote, Requisition, Scenario
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
from rto_sim.hazards import sample_exponential_delay
from rto_sim.market import ContractBook, make_quote
from rto_sim.metrics import ComplianceLedger, RunResult, record_allocation, utilization
from rto_sim.policy import allocate_min_cost, build_cost_matrix, decide_rfq_scope

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


def weibull_cdf(shape: float, scale: float, x: float) -> float:
    if x < 0:
        raise ValueError("x must be non-negative")
    return 1.0 - math.exp(-((x / scale) ** shape))


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
    contract_terms: Mapping[str, Mapping[str, tuple[float, float]]] | None = None
    scope_items: tuple[str, ...] = ()
    quotes: dict[str, Quote] = field(default_factory=dict)
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
    window = scenario.hazard_window_width

    categories = {c.id: c for c in scenario.catalog.categories}
    lead_times = {s.id: s.spot_lead_time for s in scenario.suppliers}

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
    inventories: dict[tuple[str, str], demand.InventoryState] = {}
    pr_counters: dict[tuple[str, str], int] = {}
    vessels = {v.id: v for v in scenario.vessels}

    for vessel in scenario.vessels:
        for category_id in sorted(vessel.hazards):
            pair = (vessel.id, category_id)
            entity = f"{vessel.id}:{category_id}"
            gap_streams[pair] = plan.stream(run_index, "pr-gap", entity)
            item_streams[pair] = plan.stream(run_index, "pr-items", entity)
            inventories[pair] = demand.InventoryState.fresh(categories[category_id])
            pr_counters[pair] = 0
            t = demand.next_requisition_time(vessel, categories[category_id], 0.0,
                                             horizon, gap_streams[pair], window_width=window)
            if t is not None:
                schedule(t, PR_GENERATION, vessel_id=vessel.id, category_id=category_id)

    pending: dict[str, _PendingPR] = {}
    delay_streams: dict[str, np.random.Generator] = {}
    ledger = ComplianceLedger.from_contracts(scenario.contracts)
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
            requisition = demand.build_requisition(vessel, category, inventories[pair],
                                                   time, item_streams[pair], pr_id=pr_id)
            # renewal clock resets on the trigger whether or not it was material
            t_next = demand.next_requisition_time(vessel, category, time, horizon,
                                                  gap_streams[pair], window_width=window)
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
            scope = decide_rfq_scope(requisition, terms, policy, category.eligible_suppliers)
            scope_items = tuple(sorted({item for item, _ in scope}))
            scope_suppliers = tuple(sorted({supplier for _, supplier in scope}))
            state.scope_items = scope_items
            if collect_log:
                log.append(EventRecord(kind=PR_HANDLING, time=time, pr_id=event.pr_id,
                                       vessel_id=requisition.vessel_id,
                                       category_id=requisition.category_id,
                                       payload=HandlingRecord(contract_terms=terms,
                                                              rfq_items=scope_items,
                                                              rfq_suppliers=scope_suppliers)))
            if not scope:
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
            quote = make_quote(spot, requisition, event.supplier_id, time,
                               state.quote_streams.pop(event.supplier_id),
                               items=state.scope_items,
                               category_product_ids=category.product_ids,
                               lead_time=lead_times[event.supplier_id])
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
            matrix = build_cost_matrix(requisition, state.contract_terms, state.quotes, policy,
                                       competition_slope=spot.competition_slope,
                                       competition_basis=spot.competition_basis)
            allocation = replace(
                allocate_min_cost(matrix, requisition.items, policy.po_overhead),
                pr_id=event.pr_id,
            )
            terminal_cost += record_allocation(ledger, allocation)
            n_po += 1
            delay_streams.pop(event.pr_id, None)
            if collect_log:
                log.append(EventRecord(kind=PO_GENERATION, time=time, pr_id=event.pr_id,
                                       payload=allocation))

        else:
            raise AssertionError(f"unknown event kind {event.kind!r}")

    utilizations = {s: utilization(ledger.volumes[s], k)
                    for s, k in sorted(ledger.commitments.items()) if k > 0}
    deviations = {s: ledger.volumes[s] - k for s, k in sorted(ledger.commitments.items())}
    result = RunResult(
        run_index=run_index,
        terminal_cost=terminal_cost,
        volumes=dict(sorted(ledger.volumes.items())),
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
