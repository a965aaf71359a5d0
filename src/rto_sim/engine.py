"""Replication kernel: one walk of the renewal clocks, every grid cell deciding each requisition.

A replication is simulated for a grid of scenarios that differ only in
policy and competition slope (the cells).  Requisitions never interact: the
contract book is immutable, contract volumes only add, inventories are per
(vessel, category), and every random draw comes from a stream keyed by
(run, purpose, entity).  So the policy-independent part of a requisition --
its trigger, content, processing delays, contract snapshot and supplier
responses -- is drawn once, and every cell decides the requisition as soon
as it is drawn: its RFQ scope and the order time.  Only the allocations wait:
each distinct decision that orders before the horizon is kept as plain option
rows, and all of a replication's are solved together once its clocks are
walked, since a cell needs its orders only to total them at the end.  An
event counts iff it falls strictly before the horizon; requests whose
lifecycle is incomplete by then count as in-flight and stay out of the
totals.

Randomness comes from a keyed splittable plan, so results are reproducible
regardless of execution order or parallelism, and every cell faces identical
demand (common random numbers).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import demand, hazards
from .domain import Allocation, Category, EventRecord, PolicyKind, Requisition, Scenario, SpotModel
from .hazards import sample_exponential_delay
from .market import ContractBook, make_quote, scope_quote
from .metrics import RunResult, record_allocation, utilization
from .policy import Decision, admissible_options, allocate_batch, decide_rfq_scope
# not called here since decisions are solved in batches, but bound, as they
# always were, for perfbench/child.py, which patches each layer's functions
# on the modules that import them
from .policy import allocate_min_cost, build_cost_matrix  # noqa: F401

__all__ = [
    "PR_GENERATION",
    "PR_HANDLING",
    "RFQ_RESPONSE",
    "PO_GENERATION",
    "TERMINATION",
    "RngPlan",
    "HandlingRecord",
    "RunOutput",
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


class _DigestSeed(np.random.bit_generator.ISeedSequence):
    """A 256-bit digest handed to a bit generator as its initial state words."""

    __slots__ = ("digest",)

    def __init__(self, digest: bytes):
        self.digest = digest

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        dtype = np.dtype(dtype)
        if n_words * dtype.itemsize > len(self.digest):
            raise ValueError(f"a {len(self.digest) * 8}-bit digest cannot fill "
                             f"{n_words} words of {dtype.itemsize * 8} bits")
        # little-endian words, so every host draws the same numbers
        return np.frombuffer(self.digest, dtype.newbyteorder("<"), n_words).astype(dtype)


@dataclass(frozen=True)
class RngPlan:
    """Keyed derivation of independent random streams.

    Streams are addressed by (run index, purpose label, entity id); the key is
    hashed to 256 bits that become the PCG64 state and increment (numpy forces
    the increment odd), so stream identity never depends on how many draws
    other streams consumed. No `SeedSequence` is built, so a stream cannot be
    spawned (`seed_seq.spawn` does not exist); nothing here spawns.
    """

    master_seed: int

    def stream(self, run_index: int, purpose: str, entity: str = "") -> np.random.Generator:
        key = hashlib.blake2b(
            f"{self.master_seed}|{run_index}|{purpose}|{entity}".encode(), digest_size=32
        ).digest()
        return np.random.Generator(np.random.PCG64(_DigestSeed(key)))


@dataclass(frozen=True)
class HandlingRecord:
    """Handling payload: the contract snapshot and the decided RFQ scope."""

    contract_terms: Mapping[str, Mapping[str, float]]
    rfq_items: tuple[str, ...]
    rfq_suppliers: tuple[str, ...]


@dataclass(frozen=True)
class RunOutput:
    result: RunResult
    log: tuple[EventRecord, ...]


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


@dataclass
class _Cell:
    """One grid cell's tally over a run: handlings, responses per supplier, orders and log."""

    policy: PolicyKind
    spot: SpotModel
    n_rfq: dict[str, int]
    n_hl: int = 0
    # (order time, requisition index, decision index)
    orders: list[tuple[float, int, int]] = field(default_factory=list)
    # a po_generation record's payload is its decision index until the output
    log: list[EventRecord] = field(default_factory=list)

    def output(self, world: Scenario, commitments: Mapping[str, int], run_index: int, n_pr: int,
               empty_draws: int, allocations: Sequence[Allocation], collect_log: bool) -> RunOutput:
        """The cell's result; orders accrue in order time, so the cost sum adds as an event clock would."""
        volumes = dict.fromkeys(commitments, 0)
        terminal_cost = 0.0
        self.orders.sort(key=itemgetter(0, 1))
        for _, _, decision in self.orders:
            terminal_cost += record_allocation(volumes, allocations[decision])
        if collect_log:
            self.log = [EventRecord(kind=PO_GENERATION, time=r.time, pr_id=r.pr_id,
                                    payload=allocations[r.payload]) if r.kind == PO_GENERATION else r
                        for r in self.log]
            # records were appended per requisition in walk order; the stable
            # sort keeps that order among equal times
            self.log.sort(key=attrgetter("time"))
            self.log.append(EventRecord(kind=TERMINATION, time=world.horizon))

        result = RunResult(
            run_index=run_index,
            terminal_cost=terminal_cost,
            volumes=volumes,
            utilizations={s: utilization(volumes[s], k) for s, k in commitments.items() if k > 0},
            deviations={s: volumes[s] - k for s, k in commitments.items()},
            n_pr=n_pr,
            n_hl=self.n_hl,
            n_po=len(self.orders),
            n_rfq=self.n_rfq,
            in_flight=n_pr - len(self.orders),
            empty_draws=empty_draws,
        )
        return RunOutput(result=result, log=tuple(self.log))


def _triggers(world: Scenario, run_index: int, plan) -> Iterator[tuple[Category, Requisition | None]]:
    """Every renewal trigger before the horizon and its requisition, None when it drew nothing.

    The (vessel, category) clocks are walked one after another, each to the
    horizon; a clock resets on every trigger, material or not.
    """
    horizon = world.horizon
    categories = {c.id: c for c in world.catalog.categories}
    for vessel in world.vessels:
        for category_id in sorted(vessel.hazards):
            category = categories[category_id]
            entity = f"{vessel.id}:{category_id}"
            gaps = plan.stream(run_index, "pr-gap", entity)
            contents = plan.stream(run_index, "pr-items", entity)
            spec = vessel.hazards[category_id]
            last_replenished = dict.fromkeys(category.product_ids, 0.0)
            count = 0
            t = hazards.sample_gap(spec, 0.0, horizon, gaps)
            while t is not None and t < horizon:
                requisition = demand.build_requisition(vessel, category, last_replenished, t,
                                                       contents, pr_id=f"{entity}:{count}")
                if requisition is not None:
                    count += 1
                yield category, requisition
                t = hazards.sample_gap(spec, t, horizon, gaps)


def run_once(scenarios: Sequence[Scenario], run_index: int, master_seed: int,
             *, rng_plan: RngPlan | None = None,
             collect_log: bool = True) -> tuple[RunOutput, ...]:
    """Execute one replication of every cell of a grid up to the horizon.

    `scenarios` may differ only in `policy` and `spot.competition_slope`
    (ValueError otherwise); one output is returned per scenario, in order.
    The renewal clocks are walked once.  A material requisition draws its
    creation-to-approval, approval-to-handling and handling-to-order delays,
    in that order, and snapshots the contract terms at handling; then every
    cell decides it at once.  A non-empty RFQ scope asks every eligible
    supplier, so the RFQ round is drawn once, when a cell first quotes: each
    eligible supplier's stream, in supplier order, gives its response time
    and, before the horizon, the quote's base rates, to which each cell
    applies its own per-item markup.  The order follows the last response in
    the scope, or handling when the scope is empty, by the handling-to-order
    delay.  Cells with the same RFQ scope, the same slope when it is not
    empty and the same order overhead share one set of scoped quotes and,
    once one orders before the horizon, one decision.  The decisions are
    solved in one `allocate_batch` call after the walk, and each cell's
    orders and log records point at theirs by index until then.  A cell's
    log, when collected, is its records in time order, termination last.
    """
    world = _check_grid(scenarios)
    plan = rng_plan if rng_plan is not None else RngPlan(master_seed)
    horizon = world.horizon
    delays = world.delays
    book = ContractBook(world.contracts)
    suppliers = [s.id for s in world.suppliers]
    product_ids = {c.id: c.product_ids for c in world.catalog.categories}  # a property builds its tuple
    cells = [_Cell(s.policy, s.spot, n_rfq=dict.fromkeys(suppliers, 0)) for s in scenarios]
    commitments: dict[str, int] = {}  # in supplier order: the contracts are sorted by supplier
    for contract in world.contracts:
        commitments[contract.supplier_id] = commitments.get(contract.supplier_id, 0) + contract.volume_commitment
    n_pr = empty_draws = 0
    pending: list[Decision] = []  # the decisions that order before the horizon, in walk order

    for category, requisition in _triggers(world, run_index, plan):
        if requisition is None:
            empty_draws += 1
            continue
        n_pr += 1
        d = plan.stream(run_index, "pr-delays", requisition.id)
        handled_at = (requisition.created_at + sample_exponential_delay(delays.creation_to_approval, d)
                      + sample_exponential_delay(delays.approval_to_handling, d))
        to_po = sample_exponential_delay(delays.handling_to_po, d)
        terms = None
        if handled_at < horizon:
            terms = book.terms_snapshot(requisition.items, category.eligible_suppliers, handled_at)
        if collect_log:
            generated = EventRecord(kind=PR_GENERATION, time=requisition.created_at,
                                    pr_id=requisition.id, vessel_id=requisition.vessel_id,
                                    category_id=category.id, payload=requisition)
        # the requisition's one RFQ round, drawn when a cell first quotes: eligible
        # supplier -> (response time, its base rates or None past the horizon)
        responses: dict[str, tuple[float, dict[str, float] | None]] = {}
        decisions: dict[tuple, list] = {}  # decision key -> its cells' shared decision

        for cell in cells:
            if collect_log:
                cell.log.append(generated)
            if terms is None:
                continue
            cell.n_hl += 1
            scope_items = decide_rfq_scope(requisition, terms, cell.policy)
            scope_suppliers = category.eligible_suppliers if scope_items else ()
            if collect_log:
                cell.log.append(EventRecord(kind=PR_HANDLING, time=handled_at, pr_id=requisition.id,
                                            vessel_id=requisition.vessel_id, category_id=category.id,
                                            payload=HandlingRecord(contract_terms=terms,
                                                                   rfq_items=scope_items,
                                                                   rfq_suppliers=scope_suppliers)))
            # the matrix and the solver read only the scope, the slope when
            # something is quoted, and the overhead: a contract-only matrix
            # solves alike under either basis at any slope
            key = (scope_items, cell.spot.competition_slope if scope_items else None, cell.policy.po_overhead)
            decision = decisions.get(key)
            if decision is None:
                if scope_items and not responses:
                    for supplier_id in category.eligible_suppliers:
                        stream = plan.stream(run_index, "rfq", f"{requisition.id}|{supplier_id}")
                        response_at = handled_at + sample_exponential_delay(delays.rfq_mean(supplier_id),
                                                                            stream)
                        base = None
                        if response_at < horizon:
                            base = make_quote(world.spot, requisition, supplier_id, response_at, stream,
                                              category_product_ids=product_ids[category.id])
                        responses[supplier_id] = (response_at, base)
                asked = responses if scope_items else {}
                quotes = {supplier_id: scope_quote(base, requisition, scope_items, cell.spot)
                          for supplier_id, (_, base) in asked.items() if base is not None}
                last = max((response_at for response_at, _ in asked.values()), default=handled_at)
                # [quotes in scope order, order time, index in pending once it orders]
                decision = decisions[key] = [quotes, last + to_po, None]
            quotes, po_at, index = decision
            for supplier_id, quote in quotes.items():
                cell.n_rfq[supplier_id] += 1
                if collect_log:
                    cell.log.append(EventRecord(kind=RFQ_RESPONSE, time=responses[supplier_id][0],
                                                pr_id=requisition.id, supplier_id=supplier_id,
                                                payload=quote))
            if po_at >= horizon:
                continue
            if index is None:
                items, spot = requisition.items, cell.spot
                index = decision[2] = len(pending)
                pending.append(Decision(tuple(items), tuple(items.values()),
                                        admissible_options(items, terms, quotes), cell.policy.po_overhead,
                                        spot.competition_slope if spot.competition_basis == "per_supplier_total"
                                        else 0.0))
            cell.orders.append((po_at, n_pr, index))
            if collect_log:
                cell.log.append(EventRecord(kind=PO_GENERATION, time=po_at, pr_id=requisition.id,
                                            payload=index))

    allocations = allocate_batch(pending)
    return tuple(cell.output(world, commitments, run_index, n_pr, empty_draws, allocations, collect_log)
                 for cell in cells)


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
              *, parallelism: int = 1, collect_logs: bool = False) -> tuple[tuple[RunOutput, ...], ...]:
    """Independent replications indexed 0..n_runs-1 of every cell of a grid.

    Returns, per scenario in order, its RunOutputs in run order; a log is
    empty unless collect_logs, and the grid rules are those of run_once.
    Results are bit-identical for a fixed (grid, master_seed) whatever the
    parallelism degree: runs derive their randomness from their index alone
    and are merged back in index order.  A worker process that dies aborts
    the batch with a BatchRunError naming the first run of the chunk it lost.
    """
    _check_grid(scenarios)
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")

    # a worker beyond the CPU or chunk count would only idle, yet cost a fork;
    # chunks are sized for the workers that can run, four each
    workers = min(parallelism, os.cpu_count() or 1)
    chunk = max(1, -(-n_runs // (workers * 4)))
    spans = [list(range(start, min(start + chunk, n_runs))) for start in range(0, n_runs, chunk)]
    jobs = [(tuple(scenarios), master_seed, span, collect_logs) for span in spans]
    workers = min(workers, len(jobs))
    runs: list[tuple[RunOutput, ...]] = []  # index order: spans are contiguous and merged in order
    if workers == 1:
        for job in jobs:
            runs.extend(_run_span(job))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # a chunk is handed out only when a worker is free, so a failure
            # leaves no queued chunk to run, only those already running
            futures = []
            running: set = set()
            for job in jobs:
                if len(running) == workers:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    if any(future.exception() is not None for future in done):
                        break
                try:
                    future = pool.submit(_run_span, job)
                except BrokenProcessPool as exc:  # reported below unless an earlier chunk was lost
                    future = Future()
                    future.set_exception(exc)
                futures.append(future)
                running.add(future)
            for span, future in zip(spans, futures):  # the first failing chunk in index order
                try:
                    runs.extend(future.result())
                except BrokenProcessPool as exc:
                    raise BatchRunError(span[0], f"a worker process died: {exc}") from exc

    return tuple(zip(*runs))


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
