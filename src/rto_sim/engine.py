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
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import demand, hazards
from .domain import Allocation, Category, EventRecord, Requisition, Scenario, SpotModel
from .hazards import exponential_delay, sample_exponential_delay
from .market import ContractBook, make_quote, scope_quote
from .metrics import RunResult, record_allocation, utilization
from .policy import Decision, allocate_batch, build_cost_matrix, decide_rfq_scope
# not called here since decisions are solved in batches, but bound, as it
# always was, for perfbench/child.py, which patches each layer's functions
# on the modules that import them
from .policy import allocate_min_cost  # noqa: F401

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


# the state word types numpy's bit generators ask for -> (the dtype, its little-endian form)
_WORD_TYPES = {t: (np.dtype(t), np.dtype(t).newbyteorder("<")) for t in (np.uint32, np.uint64)}


class _DigestSeed(np.random.bit_generator.ISeedSequence):
    """A 256-bit digest handed to a bit generator as its initial state words."""

    __slots__ = ("digest",)

    def __init__(self, digest: bytes):
        self.digest = digest

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        types = _WORD_TYPES.get(dtype)
        dtype, little = types if types is not None else (np.dtype(dtype), np.dtype(dtype).newbyteorder("<"))
        if n_words * dtype.itemsize > len(self.digest):
            raise ValueError(f"a {len(self.digest) * 8}-bit digest cannot fill "
                             f"{n_words} words of {dtype.itemsize * 8} bits")
        # little-endian words, so every host draws the same numbers; they are
        # copied only into a word type of another byte order
        words = np.frombuffer(self.digest, little, n_words)
        return words if little == dtype else words.astype(dtype)


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


class HandlingRecord(NamedTuple):
    """Handling payload: the contract snapshot and the decided RFQ scope."""

    contract_terms: Mapping[str, Mapping[str, float]]
    rfq_items: tuple[str, ...]
    rfq_suppliers: tuple[str, ...]


class _Uniforms:
    """A stream's uniforms, read from its Generator 64 doubles at a time.

    `random()` returns, in order, the doubles that scalar `Generator.random()`
    calls would, since `Generator.random(n)` draws its n doubles one by one
    alike.  What the stream's one reader leaves of the last block is never
    drawn from.
    """

    __slots__ = ("random",)

    def __init__(self, generator: np.random.Generator):
        blocks = iter(lambda: generator.random(64).tolist(), [])  # a Generator gives no empty block
        self.random: Callable[[], float] = chain.from_iterable(blocks).__next__


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


# what the cells of a grid share: every scenario field but the policy and the
# spot model, and every spot field but the slope
_SHARED_FIELDS = attrgetter(*(f.name for f in fields(Scenario) if f.name not in ("policy", "spot")))
_SHARED_SPOT_FIELDS = attrgetter(*(f.name for f in fields(SpotModel) if f.name != "competition_slope"))


def _check_grid(scenarios: Sequence[Scenario]) -> Scenario:
    """The world every cell shares; raises unless the cells differ only in policy and slope."""
    if not scenarios:
        raise ValueError("a grid needs at least one scenario")
    world = scenarios[0]
    shared, shared_spot = _SHARED_FIELDS(world), _SHARED_SPOT_FIELDS(world.spot)
    for i, scenario in enumerate(scenarios):
        if scenario is world:
            continue
        if _SHARED_FIELDS(scenario) != shared or _SHARED_SPOT_FIELDS(scenario.spot) != shared_spot:
            raise ValueError(f"grid scenario {i} differs from scenario 0 in more than "
                             "policy and spot.competition_slope")
    return world


@dataclass
class _Cell:
    """One grid cell: what it decides by, and its tally over a run (orders and log)."""

    scope: int  # its policy's index among the grid's distinct policies, which share a scope
    slope: float
    overhead: float
    spot: SpotModel
    # (order time, requisition index, decision index)
    orders: list[tuple[float, int, int]] = field(default_factory=list)
    # a po_generation record's payload is its decision index until the output
    log: list[EventRecord] = field(default_factory=list)

    def output(self, world: Scenario, commitments: Mapping[str, int], run_index: int, n_pr: int, n_hl: int,
               n_rfq: Mapping[str, int], empty_draws: int, allocations: Sequence[Allocation],
               collect_log: bool) -> RunOutput:
        """The cell's result; orders accrue in order time, so the cost sum adds as an event clock would."""
        volumes = dict.fromkeys(commitments, 0)
        terminal_cost = 0.0
        self.orders.sort(key=itemgetter(0, 1))
        for _, _, decision in self.orders:
            terminal_cost += record_allocation(volumes, allocations[decision])
        if collect_log:
            self.log = [EventRecord(PO_GENERATION, r.time, r.pr_id, None, None, None, allocations[r.payload])
                        if r.kind == PO_GENERATION else r for r in self.log]
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
            n_hl=n_hl,
            n_po=len(self.orders),
            n_rfq=dict(n_rfq),
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
            gaps = _Uniforms(plan.stream(run_index, "pr-gap", entity))
            contents = _Uniforms(plan.stream(run_index, "pr-items", entity))
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
    cell decides it at once, cells of one policy by one RFQ scope, decided
    once per requisition.  A non-empty RFQ scope asks every eligible
    supplier, so the RFQ round is drawn once, when any cell quotes, and its
    responses are counted per policy: each eligible supplier's stream, in
    supplier order, gives its response time and, before the horizon, the
    quote's base rates, to which each cell applies its own per-item markup.
    The order follows the last response in the scope, or handling when the
    scope is empty, by the handling-to-order delay.  Cells with the same RFQ scope, the same slope when it is not
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
    policies = list(dict.fromkeys(s.policy for s in scenarios))  # the distinct ones, each deciding one scope
    n_rfq = [dict.fromkeys(suppliers, 0) for _ in policies]  # responses per supplier, per policy
    cells = [_Cell(policies.index(s.policy), s.spot.competition_slope, s.policy.po_overhead, s.spot)
             for s in scenarios]
    commitments: dict[str, int] = {}  # in supplier order: the contracts are sorted by supplier
    for contract in world.contracts:
        commitments[contract.supplier_id] = commitments.get(contract.supplier_id, 0) + contract.volume_commitment
    n_pr = n_hl = empty_draws = 0
    pending: list[Decision] = []  # the decisions that order before the horizon, in walk order

    for category, requisition in _triggers(world, run_index, plan):
        if requisition is None:
            empty_draws += 1
            continue
        n_pr += 1
        u = plan.stream(run_index, "pr-delays", requisition.id).random(3).tolist()
        handled_at = (requisition.created_at + exponential_delay(delays.creation_to_approval, u[0])
                      + exponential_delay(delays.approval_to_handling, u[1]))
        to_po = exponential_delay(delays.handling_to_po, u[2])
        if collect_log:
            # records are built positionally, in EventRecord's field order (kind,
            # time, pr_id, vessel_id, category_id, supplier_id, payload): a
            # keyword call costs about twice as much, once per event
            generated = EventRecord(PR_GENERATION, requisition.created_at, requisition.id,
                                    requisition.vessel_id, category.id, None, requisition)
            for cell in cells:
                cell.log.append(generated)
        if handled_at >= horizon:
            continue
        n_hl += 1
        terms = book.terms_snapshot(requisition.items, category.eligible_suppliers, handled_at)
        scopes = [decide_rfq_scope(requisition, terms, policy) for policy in policies]
        if collect_log:
            handlings = [EventRecord(PR_HANDLING, handled_at, requisition.id, requisition.vessel_id, category.id,
                                     None, HandlingRecord(terms, items, items and category.eligible_suppliers))
                         for items in scopes]
        if any(scopes):
            # the requisition's one RFQ round: every eligible supplier's response
            # time, and the base rates of those before the horizon
            times: dict[str, float] = {}
            bases: dict[str, dict[str, float]] = {}
            for supplier_id in category.eligible_suppliers:
                stream = plan.stream(run_index, "rfq", f"{requisition.id}|{supplier_id}")
                response_at = times[supplier_id] = handled_at + sample_exponential_delay(
                    delays.rfq_mean(supplier_id), stream)
                if response_at < horizon:
                    bases[supplier_id] = make_quote(world.spot, requisition, supplier_id, response_at, stream,
                                                    category_product_ids=product_ids[category.id])
            quoted_at = max(times.values(), default=handled_at) + to_po  # after the last response
            for counts, scope_items in zip(n_rfq, scopes):
                if scope_items:
                    for supplier_id in bases:
                        counts[supplier_id] += 1
        decisions: dict[tuple, list] = {}  # decision key -> its cells' shared decision

        for cell in cells:
            scope_items = scopes[cell.scope]
            if collect_log:
                cell.log.append(handlings[cell.scope])
            # the decision and the solver read only the scope, the slope when
            # something is quoted, and the overhead: a contract-only decision
            # solves alike under either basis at any slope
            key = (scope_items, cell.slope if scope_items else None, cell.overhead)
            decision = decisions.get(key)
            if decision is None:
                quotes, po_at = {}, handled_at + to_po
                if scope_items:
                    quotes, po_at = scope_quote(bases, requisition, scope_items, cell.spot), quoted_at
                # [quotes in supplier order, order time, index in pending once it orders, response records]
                decision = decisions[key] = [quotes, po_at, None, collect_log and [
                    EventRecord(RFQ_RESPONSE, times[supplier_id], requisition.id, None, None, supplier_id, quote)
                    for supplier_id, quote in quotes.items()]]
            quotes, po_at, index, responses = decision
            if collect_log:
                cell.log += responses
            if po_at >= horizon:
                continue
            if index is None:
                index = decision[2] = len(pending)
                pending.append(build_cost_matrix(requisition, terms, quotes, cell.overhead,
                                                 competition_slope=cell.slope,
                                                 competition_basis=cell.spot.competition_basis))
            cell.orders.append((po_at, n_pr, index))
            if collect_log:
                cell.log.append(EventRecord(PO_GENERATION, po_at, requisition.id, None, None, None, index))

    allocations = allocate_batch(pending)
    return tuple(cell.output(world, commitments, run_index, n_pr, n_hl, n_rfq[cell.scope], empty_draws,
                             allocations, collect_log) for cell in cells)


def _run_span(args) -> list[tuple[RunResult, ...]]:
    scenarios, master_seed, indices, log_sink = args
    out = []
    for run_index in indices:
        try:
            outputs = run_once(scenarios, run_index, master_seed, collect_log=log_sink is not None)
            if log_sink is not None:  # the logs leave here, so no process holds more than one run's
                log_sink(run_index, tuple(o.log for o in outputs))
        except Exception as exc:  # noqa: BLE001 - reported with the failing index
            raise BatchRunError(run_index, repr(exc)) from exc
        out.append(tuple(o.result for o in outputs))
    return out


def run_batch(scenarios: Sequence[Scenario], n_runs: int, master_seed: int,
              *, parallelism: int = 1,
              log_sink: Callable[[int, tuple[tuple[EventRecord, ...], ...]], None] | None = None,
              ) -> tuple[tuple[RunResult, ...], ...]:
    """Independent replications indexed 0..n_runs-1 of every cell of a grid.

    Returns, per scenario in order, its RunResults in run order; the grid
    rules are those of run_once.  Logs are collected only for a `log_sink`:
    the process that simulates a run calls `log_sink(run_index, logs)`, one
    log per scenario, as soon as the run ends, in the serial path and in
    workers alike, so no log is returned or held; above parallelism 1 the
    sink must pickle, and chunks of runs call it concurrently.  A sink that
    raises fails its run.  Results are bit-identical for a fixed
    (grid, master_seed) whatever the parallelism degree: runs derive their
    randomness from their index alone and are merged back in index order.
    A worker process that dies aborts the batch with a BatchRunError naming
    the first run of the chunk it lost.
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
    jobs = [(tuple(scenarios), master_seed, span, log_sink) for span in spans]
    workers = min(workers, len(jobs))
    runs: list[tuple[RunResult, ...]] = []  # index order: spans are contiguous and merged in order
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
