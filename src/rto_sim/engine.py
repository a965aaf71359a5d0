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
import multiprocessing
import multiprocessing.sharedctypes  # noqa: F401 - imported with the module, not in a batch's wall time
import multiprocessing.synchronize  # noqa: F401
import os
import signal
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from multiprocessing.connection import wait
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import demand, hazards
from .domain import Allocation, Category, EventRecord, Requisition, Scenario, SpotModel
from .hazards import exponential_delay
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


class _Draws:
    """A stream's draws of one kind, read from its Generator 64 doubles at a time.

    `block` is the Generator's method for the kind (`random`,
    `standard_normal`).  The reader gives, in order, the doubles that one
    scalar call of it per draw would, since a block of n draws its n doubles
    one by one alike: `random()` the next one (the samplers call a Generator
    so), `take(n)` the next n as a list.  What the stream's one reader leaves
    of the last block is never drawn from.
    """

    __slots__ = ("random", "_draws")

    def __init__(self, block: Callable[[int], np.ndarray]):
        self._draws = chain.from_iterable(iter(lambda: block(64).tolist(), []))  # a Generator gives no empty block
        self.random: Callable[[], float] = self._draws.__next__

    def take(self, n: int) -> list[float]:
        return list(islice(self._draws, n))


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


def _triggers(world: Scenario, run_index: int, plan
              ) -> Iterator[tuple[Category, Requisition | None, list[float], list[float]]]:
    """Every renewal trigger before the horizon: its requisition, None when it drew nothing, and its draws.

    The (vessel, category) clocks are walked one after another, each to the
    horizon; a clock resets on every trigger, material or not.  A clock keys
    four streams by its entity: `pr-gap` and `pr-items` give its triggers and
    their contents, and every material requisition, in trigger order, takes
    its timing uniforms from `pr-timing` (three delays, then one response per
    eligible supplier) and, when the spot model is noisy, its quote normals
    from `quote-noise` (one per eligible supplier and category product,
    supplier-major).  It takes them whether or not it is handled or quoted,
    so no cell's numbers depend on the cells beside it.  An empty draw takes
    none.
    """
    horizon = world.horizon
    noisy = world.spot.noise_sd > 0.0
    categories = {c.id: c for c in world.catalog.categories}
    for vessel in world.vessels:
        for category_id in sorted(vessel.hazards):
            category = categories[category_id]
            entity = f"{vessel.id}:{category_id}"
            gaps = _Draws(plan.stream(run_index, "pr-gap", entity).random)
            contents = _Draws(plan.stream(run_index, "pr-items", entity).random)
            timings = _Draws(plan.stream(run_index, "pr-timing", entity).random)
            normals = _Draws(plan.stream(run_index, "quote-noise", entity).standard_normal)
            n_suppliers = len(category.eligible_suppliers)
            n_timings = 3 + n_suppliers
            n_normals = n_suppliers * len(category.product_ids) if noisy else 0
            spec = vessel.hazards[category_id]
            last_replenished = dict.fromkeys(category.product_ids, 0.0)
            count = 0
            t = hazards.sample_gap(spec, 0.0, horizon, gaps)
            while t is not None and t < horizon:
                requisition = demand.build_requisition(vessel, category, last_replenished, t,
                                                       contents, pr_id=f"{entity}:{count}")
                if requisition is None:
                    yield category, None, [], []
                else:
                    count += 1
                    yield category, requisition, timings.take(n_timings), normals.take(n_normals)
                t = hazards.sample_gap(spec, t, horizon, gaps)


def run_once(scenarios: Sequence[Scenario], run_index: int, master_seed: int,
             *, rng_plan: RngPlan | None = None,
             collect_log: bool = True) -> tuple[RunOutput, ...]:
    """Execute one replication of every cell of a grid up to the horizon.

    `scenarios` may differ only in `policy` and `spot.competition_slope`
    (ValueError otherwise); one output is returned per scenario, in order.
    The renewal clocks are walked once, and each material requisition comes
    with its draws from its clock's streams (`_triggers`): its
    creation-to-approval, approval-to-handling and handling-to-order delays,
    each eligible supplier's response delay and, when noisy, each one's
    quote noise.  It snapshots the contract terms at handling; then every
    cell decides it at once, cells of one policy by one RFQ scope, decided
    once per requisition.  A non-empty RFQ scope asks every eligible
    supplier, so the RFQ round is built once, when any cell quotes, and its
    responses are counted per policy: each eligible supplier responds after
    its response delay and, before the horizon, quotes base rates from its
    slice of the noise, to which each cell applies its own per-item markup.
    The order follows the last response in the scope, or handling when the
    scope is empty, by the handling-to-order delay.  Cells with the same RFQ
    scope, the same slope when it is not empty and the same order overhead
    share one set of scoped quotes and, once one orders before the horizon,
    one decision.  The decisions are solved in one `allocate_batch` call
    after the walk, and each cell's orders and log records point at theirs
    by index until then.  A cell's log, when collected, is its records in
    time order, termination last.
    """
    world = _check_grid(scenarios)
    plan = rng_plan if rng_plan is not None else RngPlan(master_seed)
    horizon = world.horizon
    delays = world.delays
    book = ContractBook(world.contracts)
    suppliers = [s.id for s in world.suppliers]
    policies = list(dict.fromkeys(s.policy for s in scenarios))  # the distinct ones, each deciding one scope
    n_rfq = [dict.fromkeys(suppliers, 0) for _ in policies]  # responses per supplier, per policy
    cells = [_Cell(policies.index(s.policy), s.spot.competition_slope, s.policy.po_overhead, s.spot)
             for s in scenarios]
    commitments: dict[str, int] = {}  # in supplier order: the contracts are sorted by supplier
    for contract in world.contracts:
        commitments[contract.supplier_id] = commitments.get(contract.supplier_id, 0) + contract.volume_commitment
    n_pr = n_hl = empty_draws = 0
    pending: list[Decision] = []  # the decisions that order before the horizon, in walk order

    for category, requisition, u, noise in _triggers(world, run_index, plan):
        if requisition is None:
            empty_draws += 1
            continue
        n_pr += 1
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
        if any(scopes):
            # the requisition's one RFQ round: every eligible supplier's response
            # time, and the base rates of those before the horizon
            times: dict[str, float] = {}
            bases: dict[str, dict[str, float]] = {}
            n_products = len(category.product_ids)
            for j, supplier_id in enumerate(category.eligible_suppliers):
                response_at = times[supplier_id] = handled_at + exponential_delay(
                    delays.rfq_mean(supplier_id), u[3 + j])
                if response_at < horizon:
                    bases[supplier_id] = make_quote(world.spot, requisition, supplier_id, response_at,
                                                    noise[j * n_products:(j + 1) * n_products],
                                                    category_product_ids=category.product_ids)
            quoted_at = max(times.values(), default=handled_at) + to_po  # after the last response
            for counts, scope_items in zip(n_rfq, scopes):
                if scope_items:
                    for supplier_id in bases:
                        counts[supplier_id] += 1
        decisions: dict[tuple, tuple] = {}  # decision key -> (its order or None, the records its cells share)
        for cell in cells:
            scope_items = scopes[cell.scope]
            # the decision and the solver read only the scope, the slope when
            # something is quoted, and the overhead: a contract-only decision
            # solves alike under either basis at any slope
            key = (scope_items, cell.slope if scope_items else None, cell.overhead)
            decided = decisions.get(key)
            if decided is None:
                quotes, po_at = {}, handled_at + to_po
                if scope_items:
                    quotes, po_at = scope_quote(bases, requisition, scope_items, cell.spot), quoted_at
                order = records = None
                if po_at < horizon:  # (order time, requisition index, index in pending)
                    order = (po_at, n_pr, len(pending))
                    pending.append(build_cost_matrix(requisition, terms, quotes, cell.overhead,
                                                     competition_slope=cell.slope,
                                                     competition_basis=cell.spot.competition_basis))
                if collect_log:  # the handling record holds the scope, which is part of the key
                    records = [EventRecord(PR_HANDLING, handled_at, requisition.id, requisition.vessel_id, category.id,
                                           None, HandlingRecord(terms, scope_items,
                                                                scope_items and category.eligible_suppliers))]
                    records += [EventRecord(RFQ_RESPONSE, times[supplier_id], requisition.id, None, None,
                                            supplier_id, quote) for supplier_id, quote in quotes.items()]
                    if order is not None:
                        records.append(EventRecord(PO_GENERATION, po_at, requisition.id, None, None, None, order[2]))
                decided = decisions[key] = (order, records)
            order, records = decided
            if order is not None:
                cell.orders.append(order)
            if collect_log:
                cell.log += records

    allocations = allocate_batch(pending)
    return tuple(cell.output(world, commitments, run_index, n_pr, n_hl, n_rfq[cell.scope], empty_draws,
                             allocations, collect_log) for cell in cells)


def _run_span(task, indices: Iterable[int]) -> list[tuple[RunResult, ...]]:
    """The results of runs `indices`, in order; a failing run raises a BatchRunError naming it."""
    scenarios, master_seed, log_sink = task
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


def _mp_context():
    """Where a parallel batch starts its processes: the default start method; tests swap in others."""
    return multiprocessing.get_context()


class _Chunks:
    """The chunks of a batch and the counter every process claims them from.

    Each chunk holds 1/`share` of the runs that no earlier chunk holds,
    rounded up: guided self-scheduling (Polychronopoulos & Kuck, IEEE TC
    1987), which takes the process count as `share`; a larger one makes the
    first chunks smaller.  Chunks shrink as the batch goes, so the
    processes end it within about one run of each other.
    `state` is one shared int array under one lock: the next unclaimed
    chunk, then per chunk the slot of the process that claimed it (the
    caller is 1, children 2 on, 0 while unclaimed).  Stopping moves the
    counter past the last chunk under the same lock, so once a chunk has
    failed no claim succeeds.
    """

    def __init__(self, ctx, n_runs: int, share: int):
        self.starts = [0]
        while self.starts[-1] < n_runs:
            self.starts.append(self.starts[-1] + -(-(n_runs - self.starts[-1]) // share))
        self.count = len(self.starts) - 1
        self.state = ctx.Array("i", 1 + self.count)

    def span(self, index: int) -> range:
        return range(self.starts[index], self.starts[index + 1])

    def claim(self, slot: int, timeout: float | None = None) -> int | None:
        """The next chunk, now claimed by `slot`; None once none is left or the batch stopped.

        Raises TimeoutError when the lock is not free within `timeout` seconds.
        """
        lock = self.state.get_lock()
        if not lock.acquire(timeout=timeout):
            raise TimeoutError
        try:
            state = self.state.get_obj()
            index = state[0]
            if index == self.count:
                return None
            state[0] = index + 1
            state[1 + index] = slot
            return index
        finally:
            lock.release()

    def stop(self) -> None:
        with self.state.get_lock():
            self.state.get_obj()[0] = self.count

    # read without the lock, which a dead process may hold
    def all_claimed(self) -> bool:
        return self.state.get_obj()[0] == self.count

    def claimed_by(self, slot: int) -> list[int]:
        return [i for i, owner in enumerate(self.state.get_obj()[1:]) if owner == slot]


def _child(chunks: _Chunks, slot: int, task, conn) -> None:
    """A child's share of a batch: send (chunk, results or BatchRunError) as each chunk ends, then None."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's, which ends its children
    with conn:
        while (index := chunks.claim(slot)) is not None:
            try:
                conn.send((index, _run_span(task, chunks.span(index))))
            except BatchRunError as exc:
                chunks.stop()
                conn.send((index, exc))
        conn.send(None)


def _fan_out(task, n_runs: int, processes: int) -> list[list[tuple[RunResult, ...]]]:
    """Every chunk's results, in chunk order, from the caller and `processes - 1` children.

    Each process, the caller included, claims its next chunk from the shared
    counter as it ends the last one; a child sends each chunk's results as it
    ends it, and the caller reads them between its own runs, so a child never
    waits on the caller for long.  On any exception in the caller every child
    is ended and reaped before the exception propagates.
    """
    ctx = _mp_context()
    chunks = _Chunks(ctx, n_runs, 8 * processes)  # the first chunks hold about 1/8 of a process's share
    results: list = [None] * chunks.count
    failures: dict[int, BatchRunError] = {}
    started = []  # (process, the read end of its pipe)
    children = {}  # the read end of each child's pipe -> (its slot, its process), until its final None

    def collect(timeout: float | None) -> None:
        """Take in what the children have sent, waiting up to `timeout` for the first message."""
        for conn in wait(list(children), timeout):
            slot, process = children[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):  # it ended without its final None: it died
                process.join()
                unreturned = [i for i in range(chunks.count) if results[i] is None and i not in failures]
                lost = [i for i in chunks.claimed_by(slot) if i in unreturned] or unreturned
                if lost:
                    raise BatchRunError(chunks.span(lost[0])[0],
                                        f"a child process died with exit code {process.exitcode}") from None
                message = None
            if message is None:
                del children[conn]
            elif isinstance(message[1], BatchRunError):
                failures[message[0]] = message[1]
            else:
                results[message[0]] = message[1]

    try:
        for slot in range(2, processes + 1):
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_child, args=(chunks, slot, task, writer), daemon=True)
            process.start()
            writer.close()  # so the reader sees the end of the file when the child ends
            started.append((process, reader))
            children[reader] = (slot, process)
        while True:
            try:
                index = chunks.claim(1, timeout=0.1)
            except TimeoutError:  # the lock is busy, or held by a child that died claiming
                collect(0)  # raises if one died with chunks unreturned
                if chunks.all_claimed():
                    break
                continue
            if index is None:
                break
            chunk = []
            for run_index in chunks.span(index):
                try:
                    chunk += _run_span(task, (run_index,))
                except BatchRunError as exc:
                    failures[index] = exc
                    chunks.stop()
                    break
                if children:
                    collect(0)
            else:
                results[index] = chunk
        while children:
            collect(None)
    except BaseException:
        for process, _ in started:
            process.terminate()
        raise
    finally:
        for process, reader in started:
            process.join()
            reader.close()
    if failures:  # the first failing run in index order among the chunks that ran
        raise failures[min(failures)]
    return results


def run_batch(scenarios: Sequence[Scenario], n_runs: int, master_seed: int,
              *, parallelism: int = 1,
              log_sink: Callable[[int, tuple[tuple[EventRecord, ...], ...]], None] | None = None,
              ) -> tuple[tuple[RunResult, ...], ...]:
    """Independent replications indexed 0..n_runs-1 of every cell of a grid.

    Returns, per scenario in order, its RunResults in run order; the grid
    rules are those of run_once.  Logs are collected only for a `log_sink`:
    the process that simulates a run calls `log_sink(run_index, logs)`, one
    log per scenario, as soon as the run ends, in the serial path and in
    child processes alike, so no log is returned or held; above parallelism
    1 the sink must pickle, and processes call it concurrently.  A sink that
    raises fails its run.  Results are bit-identical for a fixed
    (grid, master_seed) whatever the parallelism degree: runs derive their
    randomness from their index alone and are merged back in index order.

    Above parallelism 1 the calling process is one of the processes that
    simulate, and each claims the next chunk of runs from a shared counter;
    chunks shrink as the batch goes, so the processes end it together.
    A failed run stops the claims; chunks already claimed run to their end,
    and the error names the first failing run in index order among them.  A
    child process that dies aborts the batch with a BatchRunError naming the
    first run of the lowest chunk it claimed and never returned.
    """
    _check_grid(scenarios)
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")

    # a process beyond the CPU or run count would only idle, yet cost a start
    processes = min(parallelism, os.cpu_count() or 1, n_runs)
    task = (tuple(scenarios), master_seed, log_sink)
    if processes == 1:
        runs = _run_span(task, range(n_runs))
    else:
        runs = list(chain.from_iterable(_fan_out(task, n_runs, processes)))
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
