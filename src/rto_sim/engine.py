"""Replication kernel: a shared demand pass, then a requisition lifecycle pass per grid cell.

A replication is simulated for a grid of scenarios that differ only in
policy and competition slope (the cells).  Requisitions never interact: the
contract book is immutable, the ledger only adds, inventories are per
(vessel, category), and every random draw comes from a stream keyed by
(run, purpose, entity).  So the policy-independent part of a run -- renewal
triggers, requisition content, processing delays, contract snapshots and
supplier responses -- is drawn once and shared by every cell.  Each cell then
decides its RFQ scopes, times its orders directly from the delays, and
allocates them.  An event counts iff it falls strictly before the horizon;
requests whose lifecycle is incomplete by then count as in-flight and stay
out of the totals.

Randomness comes from a keyed splittable plan, so results are reproducible
regardless of execution order or parallelism, and every cell faces identical
demand (common random numbers).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import demand
from .domain import Allocation, EventRecord, Quote, Requisition, Scenario
from .hazards import sample_exponential_delay
from .market import ContractBook, make_quote, scope_quote
from .metrics import ComplianceLedger, RunResult, record_allocation, utilization
from .policy import allocate_min_cost, build_cost_matrix, decide_rfq_scope

__all__ = [
    "PR_GENERATION",
    "PR_HANDLING",
    "RFQ_RESPONSE",
    "PO_GENERATION",
    "TERMINATION",
    "RngPlan",
    "HandlingRecord",
    "RunOutput",
    "BatchResult",
    "BatchRunError",
    "run_once",
    "run_batch",
    "audit_event_log",
]

PR_GENERATION = "pr_generation"
PR_HANDLING = "pr_handling"
RFQ_RESPONSE = "rfq_response"
PO_GENERATION = "po_generation"
TERMINATION = "termination"


@dataclass(frozen=True)
class RngPlan:
    """Keyed derivation of independent random streams.

    Streams are addressed by (run index, purpose label, entity id); the key is
    hashed into a 128-bit PCG64 seed, so stream identity never depends on how
    many draws other streams consumed.
    """

    master_seed: int

    def stream(self, run_index: int, purpose: str, entity: str = "") -> np.random.Generator:
        key = hashlib.blake2b(
            f"{self.master_seed}|{run_index}|{purpose}|{entity}".encode(), digest_size=16
        ).digest()
        return np.random.Generator(np.random.PCG64(int.from_bytes(key, "little")))


@dataclass(frozen=True)
class HandlingRecord:
    """Handling payload: the contract snapshot and the decided RFQ scope."""

    contract_terms: Mapping[str, Mapping[str, float]]
    rfq_items: tuple[str, ...]
    rfq_suppliers: tuple[str, ...]


@dataclass
class _Lifecycle:
    """The policy-independent timeline of one material requisition, shared by every cell."""

    requisition: Requisition
    generated: EventRecord | None  # the generation log record, when logs are collected
    handled_at: float
    to_po: float  # handling-to-order delay
    # contract snapshot at handling; None when handling falls at or after the horizon
    terms: Mapping[str, Mapping[str, float]] | None
    # supplier -> (response time, base-rate quote or None past the horizon), drawn on first need
    responses: dict[str, tuple[float, Quote | None]] = field(default_factory=dict)


@dataclass(frozen=True)
class RunOutput:
    result: RunResult
    log: tuple[EventRecord, ...]


@dataclass(frozen=True)
class BatchResult:
    results: tuple[RunResult, ...]
    logs: Mapping[int, tuple[EventRecord, ...]] | None = None


class BatchRunError(RuntimeError):
    """A replication failed; aborts the whole batch."""

    def __init__(self, run_index: int, message: str):
        super().__init__(f"run {run_index} failed: {message}")
        self.run_index = run_index
        self.message = message

    def __reduce__(self):
        return (BatchRunError, (self.run_index, self.message))


def _check_grid(scenarios: Sequence[Scenario]) -> Scenario:
    """The world every cell shares; raises unless the cells differ only in policy and slope."""
    if not scenarios:
        raise ValueError("a grid needs at least one scenario")
    world = scenarios[0]
    for i, scenario in enumerate(scenarios):
        if scenario is world:
            continue
        aligned = replace(scenario, policy=world.policy,
                          spot=replace(scenario.spot, competition_slope=world.spot.competition_slope))
        if aligned != world:
            raise ValueError(f"grid scenario {i} differs from scenario 0 in more than "
                             "policy and spot.competition_slope")
    return world


def _demand_pass(world: Scenario, run_index: int, plan,
                 collect_log: bool) -> tuple[list[_Lifecycle], int]:
    """Material requisitions in (vessel, category, creation) order, and the empty-draw count.

    Each (vessel, category) renewal clock is walked to the horizon; the clock
    resets on every trigger, material or not.  Each material requisition gets
    its creation-to-approval, approval-to-handling and handling-to-order
    delays, in that order, and the contract terms active at handling.
    """
    horizon = world.horizon
    delays = world.delays
    window = world.hazard_window_width
    book = ContractBook(world.contracts)
    categories = {c.id: c for c in world.catalog.categories}
    lifecycles: list[_Lifecycle] = []
    empty_draws = 0
    for vessel in world.vessels:
        for category_id in sorted(vessel.hazards):
            category = categories[category_id]
            entity = f"{vessel.id}:{category_id}"
            gaps = plan.stream(run_index, "pr-gap", entity)
            contents = plan.stream(run_index, "pr-items", entity)
            inventory = demand.InventoryState.fresh(category)
            count = 0
            t = demand.next_requisition_time(vessel, category, 0.0, horizon, gaps,
                                             window_width=window)
            while t is not None and t < horizon:
                requisition = demand.build_requisition(vessel, category, inventory, t, contents,
                                                       pr_id=f"{entity}:{count}")
                if requisition is None:
                    empty_draws += 1
                else:
                    count += 1
                    d = plan.stream(run_index, "pr-delays", requisition.id)
                    handled_at = (t + sample_exponential_delay(delays.creation_to_approval, d)
                                  + sample_exponential_delay(delays.approval_to_handling, d))
                    to_po = sample_exponential_delay(delays.handling_to_po, d)
                    terms = None
                    if handled_at < horizon:
                        terms = book.terms_snapshot(sorted(requisition.items),
                                                    category.eligible_suppliers, handled_at)
                    generated = None
                    if collect_log:
                        generated = EventRecord(kind=PR_GENERATION, time=t, pr_id=requisition.id,
                                                vessel_id=vessel.id, category_id=category_id,
                                                payload=requisition)
                    lifecycles.append(_Lifecycle(requisition, generated, handled_at, to_po, terms))
                t = demand.next_requisition_time(vessel, category, t, horizon, gaps,
                                                 window_width=window)
    return lifecycles, empty_draws


def _cell_pass(scenario: Scenario, run_index: int, lifecycles: list[_Lifecycle], empty_draws: int,
               respond: Callable[[_Lifecycle, str], tuple[float, Quote | None]],
               collect_log: bool) -> RunOutput:
    """One cell's lifecycles on the shared demand: scope, responses, order time and allocation.

    The order follows the last response in the RFQ scope, or handling when the
    scope is empty, by the handling-to-order delay.  Orders accrue in order
    time, so the cost sum adds in the same sequence an event clock would.
    """
    horizon = scenario.horizon
    policy = scenario.policy
    spot = scenario.spot
    eligible = {c.id: c.eligible_suppliers for c in scenario.catalog.categories}
    n_rfq = {s.id: 0 for s in scenario.suppliers}
    n_hl = 0
    orders: list[tuple[float, int, Allocation]] = []  # (order time, lifecycle index, order)
    log: list[EventRecord] = []

    for seq, life in enumerate(lifecycles):
        requisition = life.requisition
        if collect_log:
            log.append(life.generated)
        terms = life.terms
        if terms is None:
            continue
        n_hl += 1
        scope_items = decide_rfq_scope(requisition, terms, policy)
        scope_suppliers = eligible[requisition.category_id] if scope_items else ()
        if collect_log:
            log.append(EventRecord(kind=PR_HANDLING, time=life.handled_at, pr_id=requisition.id,
                                   vessel_id=requisition.vessel_id,
                                   category_id=requisition.category_id,
                                   payload=HandlingRecord(contract_terms=terms,
                                                          rfq_items=scope_items,
                                                          rfq_suppliers=scope_suppliers)))
        last = life.handled_at
        quotes: dict[str, Quote] = {}
        for supplier_id in scope_suppliers:
            response_at, base = respond(life, supplier_id)
            last = max(last, response_at)
            if base is None:
                continue
            n_rfq[supplier_id] += 1
            quote = scope_quote(base, requisition, scope_items, spot)
            quotes[supplier_id] = quote
            if collect_log:
                log.append(EventRecord(kind=RFQ_RESPONSE, time=response_at, pr_id=requisition.id,
                                       supplier_id=supplier_id, payload=quote))
        po_at = last + life.to_po
        if po_at >= horizon:
            continue
        matrix = build_cost_matrix(requisition, terms, quotes,
                                   competition_slope=spot.competition_slope,
                                   competition_basis=spot.competition_basis)
        allocation = allocate_min_cost(matrix, requisition.items, policy.po_overhead)
        orders.append((po_at, seq, allocation))
        if collect_log:
            log.append(EventRecord(kind=PO_GENERATION, time=po_at, pr_id=requisition.id,
                                   payload=allocation))

    ledger = ComplianceLedger.from_contracts(scenario.contracts)
    terminal_cost = 0.0
    orders.sort(key=itemgetter(0, 1))
    for _, _, allocation in orders:
        terminal_cost += record_allocation(ledger, allocation)
    if collect_log:
        # records were appended per requisition in lifecycle order; the stable
        # sort keeps that order among equal times
        log.sort(key=attrgetter("time"))
        log.append(EventRecord(kind=TERMINATION, time=horizon))

    utilizations = {s: utilization(ledger.volumes[s], k)
                    for s, k in sorted(ledger.commitments.items()) if k > 0}
    deviations = {s: ledger.volumes[s] - k for s, k in sorted(ledger.commitments.items())}
    result = RunResult(
        run_index=run_index,
        terminal_cost=terminal_cost,
        volumes=dict(sorted(ledger.volumes.items())),
        utilizations=utilizations,
        deviations=deviations,
        n_pr=len(lifecycles),
        n_hl=n_hl,
        n_po=len(orders),
        n_rfq=n_rfq,
        in_flight=len(lifecycles) - len(orders),
        empty_draws=empty_draws,
    )
    return RunOutput(result=result, log=tuple(log))


def run_once(scenarios: Sequence[Scenario], run_index: int, master_seed: int,
             *, rng_plan: RngPlan | None = None,
             collect_log: bool = True) -> tuple[RunOutput, ...]:
    """Execute one replication of every cell of a grid up to the horizon.

    `scenarios` may differ only in `policy` and `spot.competition_slope`
    (ValueError otherwise); one output is returned per scenario, in order.
    The demand is simulated once and shared by every cell.  A supplier's RFQ
    stream is created when some cell's scope first needs it: it gives the
    response time and, if that falls before the horizon, the quote's base
    rates, to which each cell applies its own per-item markup.  A cell's log,
    when collected, is its records in time order with the termination marker
    last.
    """
    world = _check_grid(scenarios)
    plan = rng_plan if rng_plan is not None else RngPlan(master_seed)
    horizon = world.horizon
    product_ids = {c.id: c.product_ids for c in world.catalog.categories}
    lead_times = {s.id: s.spot_lead_time for s in world.suppliers}
    lifecycles, empty_draws = _demand_pass(world, run_index, plan, collect_log)

    def respond(life: _Lifecycle, supplier_id: str) -> tuple[float, Quote | None]:
        hit = life.responses.get(supplier_id)
        if hit is None:
            requisition = life.requisition
            stream = plan.stream(run_index, "rfq", f"{requisition.id}|{supplier_id}")
            response_at = life.handled_at + sample_exponential_delay(
                world.delays.rfq_mean(supplier_id), stream)
            base = None
            if response_at < horizon:
                base = make_quote(world.spot, requisition, supplier_id, response_at, stream,
                                  category_product_ids=product_ids[requisition.category_id],
                                  lead_time=lead_times[supplier_id])
            hit = life.responses[supplier_id] = (response_at, base)
        return hit

    return tuple(_cell_pass(scenario, run_index, lifecycles, empty_draws, respond, collect_log)
                 for scenario in scenarios)


def _run_span(args) -> list:
    scenarios, master_seed, indices, collect_logs = args
    out = []
    for run_index in indices:
        try:
            outputs = run_once(scenarios, run_index, master_seed, collect_log=collect_logs)
        except Exception as exc:  # noqa: BLE001 - reported with the failing index
            raise BatchRunError(run_index, repr(exc)) from exc
        out.append(outputs)
    return out


def run_batch(scenarios: Sequence[Scenario], n_runs: int, master_seed: int,
              *, parallelism: int = 1, collect_logs: bool = False) -> tuple[BatchResult, ...]:
    """Independent replications indexed 0..n_runs-1 of every cell of a grid.

    Returns one BatchResult per scenario, in order; the grid rules are those
    of run_once.  Results are bit-identical for a fixed (grid, master_seed)
    whatever the parallelism degree: runs derive their randomness from their
    index alone and are merged back in index order.  A worker process that
    dies aborts the batch with a BatchRunError naming the first run of the
    chunk it lost.
    """
    _check_grid(scenarios)
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")

    chunk = max(1, -(-n_runs // (parallelism * 4)))
    spans = [list(range(start, min(start + chunk, n_runs))) for start in range(0, n_runs, chunk)]
    jobs = [(tuple(scenarios), master_seed, span, collect_logs) for span in spans]

    workers = min(parallelism, len(jobs))  # a worker beyond the chunk count would sit idle
    runs: list[tuple[RunOutput, ...]] = []  # index order: spans are contiguous and merged in order
    if workers == 1:
        for job in jobs:
            runs.extend(_run_span(job))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for chunk_runs in pool.map(_run_span, jobs):
                    runs.extend(chunk_runs)
            except BrokenProcessPool as exc:
                # every run before len(runs) arrived, so the lost chunk starts there
                raise BatchRunError(len(runs), f"a worker process died: {exc}") from exc

    return tuple(
        BatchResult(results=tuple(outputs[cell].result for outputs in runs),
                    logs=({i: outputs[cell].log for i, outputs in enumerate(runs)}
                          if collect_logs else None))
        for cell in range(len(scenarios))
    )


_LIFECYCLE_ORDER = {PR_GENERATION: 0, PR_HANDLING: 1, RFQ_RESPONSE: 2, PO_GENERATION: 3}


def audit_event_log(log: Iterable[EventRecord]) -> list[str]:
    """Post-hoc consistency check of one run's event log; returns violations.

    Checks executed-clock monotonicity, per-request time ordering, lifecycle
    completeness of finished requests (one handling, one order, one response
    per quoted supplier), and the terminal counting inequalities
    orders <= handlings <= requests.
    """
    violations: list[str] = []
    last_time = None
    by_pr: dict[str, list[EventRecord]] = {}
    counts = {PR_GENERATION: 0, PR_HANDLING: 0, RFQ_RESPONSE: 0, PO_GENERATION: 0}

    for record in log:
        if last_time is not None and record.time < last_time:
            violations.append(f"clock moved backwards at {record.kind} t={record.time}")
        last_time = record.time
        if record.kind in counts:
            counts[record.kind] += 1
        if record.pr_id is not None:
            by_pr.setdefault(record.pr_id, []).append(record)

    for pr_id, records in by_pr.items():
        stage_times = [(_LIFECYCLE_ORDER[r.kind], r.time) for r in records]
        for (s1, t1), (s2, t2) in zip(stage_times, stage_times[1:]):
            if s2 < s1 or t2 < t1:
                violations.append(f"{pr_id}: lifecycle out of order")
                break
        kinds = [r.kind for r in records]
        if kinds.count(PR_GENERATION) != 1:
            violations.append(f"{pr_id}: expected exactly one generation event")
        completed = PO_GENERATION in kinds
        if kinds.count(PO_GENERATION) > 1 or kinds.count(PR_HANDLING) > 1:
            violations.append(f"{pr_id}: duplicated lifecycle stage")
        if completed:
            handling = next((r for r in records if r.kind == PR_HANDLING), None)
            if kinds.count(PR_HANDLING) != 1 or handling is None:
                violations.append(f"{pr_id}: completed without exactly one handling event")
            if handling is not None:
                expected = set(handling.payload.rfq_suppliers)
                responded = [r.supplier_id for r in records if r.kind == RFQ_RESPONSE]
                if sorted(responded) != sorted(expected):
                    violations.append(
                        f"{pr_id}: responses {sorted(responded)} != scope {sorted(expected)}"
                    )

    if not counts[PO_GENERATION] <= counts[PR_HANDLING] <= counts[PR_GENERATION]:
        violations.append(
            "terminal counts violate orders <= handlings <= requests: "
            f"{counts[PO_GENERATION]}, {counts[PR_HANDLING]}, {counts[PR_GENERATION]}"
        )
    return violations
