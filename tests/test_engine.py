"""Event wiring, determinism, reference-equivalence, and log-audit tests."""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    FakePlan,
    PickleSink,
    StubRng,
    U_MEAN,
    random_scenario,
    single_product_scenario,
    three_supplier_spot_scenario,
    u_for_delay,
)
from oracles import reference_run_once
from rto_sim import engine
from rto_sim.domain import DelayConfig, EventRecord
from rto_sim.engine import (
    PO_GENERATION,
    PR_GENERATION,
    PR_HANDLING,
    RFQ_RESPONSE,
    TERMINATION,
    BatchRunError,
    HandlingRecord,
    RngPlan,
    audit_event_log,
    run_batch,
    run_once,
)
from rto_sim.hazards import exponential_delay
from rto_sim.market import MIN_SPOT_RATE

GAP_40 = u_for_delay(40.0, 100.0)  # first trigger at day 40 under rate 0.01
GAP_FAR = u_for_delay(600.0, 100.0)  # second trigger lands past any test horizon


def grid(base, slopes, policies=("naive", "dynamic")):
    """The (policy, slope) cells of `base`, policy-major."""
    return tuple(
        dataclasses.replace(base, policy=dataclasses.replace(base.policy, kind=kind),
                            spot=dataclasses.replace(base.spot, competition_slope=slope))
        for kind in policies for slope in slopes
    )


FORK = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                          reason="children must inherit the patched functions")


class Forking:
    """A batch's process context that forks, so children inherit this process's patches; records the children."""

    def __init__(self):
        self.context = multiprocessing.get_context("fork")
        self.processes = []

    def __getattr__(self, name):
        return getattr(self.context, name)

    def Process(self, *args, **kwargs):
        process = self.context.Process(*args, **kwargs)
        self.processes.append(process)
        return process


@pytest.fixture
def forking(monkeypatch):
    """Parallel batches fork on two CPUs; returns the record of their children."""
    context = Forking()
    monkeypatch.setattr(engine, "_mp_context", lambda: context)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return context


def started_chunks(monkeypatch, directory):
    """Record the runs of each chunk a process starts in `directory`; returns the reader of the record.

    The reader gives, in chunk order, each started chunk's index and runs.
    """
    real = engine._Chunks.span

    def span(self, index):
        runs = real(self, index)
        with open(directory / str(index), "x") as record:  # a chunk started twice fails the batch
            record.write(f"{runs.start} {runs.stop}")
        return runs

    def read():
        records = sorted((int(path.name), path.read_text().split()) for path in directory.iterdir())
        return [(index, range(int(start), int(stop))) for index, (start, stop) in records]

    monkeypatch.setattr(engine._Chunks, "span", span)
    return read


class TestRngPlan:
    def test_reproducible_streams(self):
        plan = RngPlan(42)
        a = plan.stream(3, "pr-gap", "V:cat").random()
        b = plan.stream(3, "pr-gap", "V:cat").random()
        assert a == b

    def test_distinct_triples_differ(self):
        plan = RngPlan(42)
        draws = {
            plan.stream(0, "pr-gap", "V:cat").random(),
            plan.stream(1, "pr-gap", "V:cat").random(),
            plan.stream(0, "pr-items", "V:cat").random(),
            plan.stream(0, "pr-gap", "V2:cat").random(),
        }
        assert len(draws) == 4

    def test_golden_draws(self):
        # frozen: a change to the key or to how it seeds PCG64 must fail here
        draws = RngPlan(42).stream(3, "pr-gap", "V:cat").random(3).tolist()
        assert draws == [0.5831175327343329, 0.09355055866524398, 0.3302652931022254]

    def test_digest_words_are_little_endian(self):
        digest = bytes(range(32))
        seed = engine._DigestSeed(digest)
        as_u64 = seed.generate_state(4, np.uint64)
        as_u32 = seed.generate_state(8, np.uint32)
        assert as_u64.dtype == np.uint64 and as_u32.dtype == np.uint32
        # the same bytes either way, read as little-endian words on any host
        assert as_u64.astype("<u8").tobytes() == as_u32.astype("<u4").tobytes() == digest
        assert as_u64.tolist() == [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
        with pytest.raises(ValueError):
            seed.generate_state(5, np.uint64)

    @pytest.mark.parametrize("purpose, entity", [
        ("pr-gap", "V1:consumables"), ("pr-items", "V2:consumables"),
        ("pr-timing", "V1:consumables"), ("quote-noise", "V3:consumables"),
    ])
    def test_block_reads_draw_the_scalar_doubles(self, purpose, entity):
        # the engine reads each of a clock's streams in blocks of 64, uniforms
        # and normals alike, one draw or a requisition's share at a time: it
        # must give exactly the doubles that one scalar call per draw gives
        for kind in ("random", "standard_normal"):
            plan = RngPlan(2024)
            reader = engine._Draws(getattr(plan.stream(7, purpose, entity), kind))
            # 200 draws over 4 blocks: the takes of 12 and 75 straddle the block
            # boundaries at 64, 128 and 192
            drawn = [reader.random() for _ in range(55)] + reader.take(12) + reader.take(0)
            drawn += [reader.random() for _ in range(58)] + reader.take(75)
            draw = getattr(plan.stream(7, purpose, entity), kind)
            assert drawn == [draw() for _ in range(200)], kind

    def test_adjacent_keys_look_independent(self):
        plan = RngPlan(42)
        first = np.array([plan.stream(run, "pr-gap", "V:cat").random() for run in range(2000)])
        assert stats.kstest(first, "uniform").pvalue > 0.001
        assert abs(np.corrcoef(first[:-1], first[1:])[0, 1]) < 0.1


class TestEventWiring:
    def test_zero_vessels_yields_only_termination(self):
        scenario = dataclasses.replace(single_product_scenario(contracted=True), vessels=())
        out = run_once((scenario,), 0, 1)[0]
        assert [r.kind for r in out.log] == [TERMINATION]
        assert out.result.n_pr == 0
        assert out.result.terminal_cost == 0.0

    def test_contract_covered_request_goes_straight_to_order(self):
        # forced draws: trigger at 40, both handling delays at their means
        # (2 + 5), then the 0.1-day order delay; no RFQ round at all
        scenario = single_product_scenario(contracted=True)
        plan = FakePlan(scripts={
            ("pr-gap", "V:cat"): StubRng([GAP_40, GAP_FAR]),
            ("pr-items", "V:cat"): StubRng([0.0]),
            ("pr-timing", "V:cat"): StubRng([U_MEAN] * 4),
        })
        out = run_once((scenario,), 0, 0, rng_plan=plan)[0]
        times = [(r.kind, r.time) for r in out.log]
        assert times[0] == (PR_GENERATION, pytest.approx(40.0))
        assert times[1] == (PR_HANDLING, pytest.approx(47.0))
        assert times[2] == (PO_GENERATION, pytest.approx(47.1))
        assert times[3][0] == TERMINATION
        assert out.result.terminal_cost == pytest.approx(50.0)  # 10 units at the contracted 5.0
        assert out.result.n_rfq == {"S1": 0}
        assert out.result.in_flight == 0

    def test_spot_request_waits_for_all_responses(self):
        scenario = three_supplier_spot_scenario()
        scripts = {
            ("pr-gap", "V:cat"): StubRng([GAP_40, GAP_FAR]),
            ("pr-items", "V:cat"): StubRng([0.0]),
            # the three delays, then S1's, S2's and S3's responses
            ("pr-timing", "V:cat"): StubRng([U_MEAN] * 6),
        }
        out = run_once((scenario,), 0, 0, rng_plan=FakePlan(scripts=scripts))[0]
        kinds_times = [(r.kind, round(r.time, 6)) for r in out.log]
        assert kinds_times[:2] == [(PR_GENERATION, 40.0), (PR_HANDLING, 47.0)]
        assert kinds_times[2:5] == [(RFQ_RESPONSE, 49.5)] * 3
        assert kinds_times[5] == (PO_GENERATION, 49.6)
        # flat rates 5/6/7: everything lands on the cheapest supplier
        assert out.result.terminal_cost == pytest.approx(50.0)
        allocation = out.log[5].payload
        assert allocation.suppliers_used == ("S1",)
        assert out.result.n_rfq == {"S1": 1, "S2": 1, "S3": 1}

    def test_incomplete_lifecycle_counts_as_in_flight(self):
        scenario = single_product_scenario(contracted=True, horizon=41.0)
        plan = FakePlan(scripts={
            ("pr-gap", "V:cat"): StubRng([GAP_40, GAP_FAR]),
            ("pr-items", "V:cat"): StubRng([0.0]),
            ("pr-timing", "V:cat"): StubRng([U_MEAN] * 4),
        })
        out = run_once((scenario,), 0, 0, rng_plan=plan)[0]
        result = out.result
        assert result.n_pr == 1
        assert result.n_hl == 0
        assert result.n_po == 0
        assert result.in_flight == 1
        assert result.terminal_cost == 0.0

    @pytest.mark.parametrize("cut_at", ["trigger", "response", "order"])
    def test_event_exactly_at_horizon_is_cut(self, cut_at):
        # termination wins the tie: an event at t == horizon never executes
        trigger = 0.0 + exponential_delay(100.0, GAP_40)
        handled = trigger + exponential_delay(2.0, U_MEAN) + exponential_delay(5.0, U_MEAN)
        responded = handled + exponential_delay(2.5, U_MEAN)
        ordered = handled + exponential_delay(0.1, U_MEAN)
        horizon = {"trigger": trigger, "response": responded, "order": ordered}[cut_at]
        # the uncontracted product goes through one RFQ round with S1
        scenario = single_product_scenario(contracted=cut_at != "response", horizon=horizon)

        def plan():
            return FakePlan(scripts={
                ("pr-gap", "V:cat"): StubRng([GAP_40, GAP_FAR]),
                ("pr-items", "V:cat"): StubRng([0.0]),
                ("pr-timing", "V:cat"): StubRng([U_MEAN] * 4),
            })

        out = run_once((scenario,), 0, 0, rng_plan=plan())[0]
        assert out == reference_run_once(scenario, 0, 0, rng_plan=plan())
        assert out.log[-1] == EventRecord(kind=TERMINATION, time=horizon)
        assert out.result.n_pr == (0 if cut_at == "trigger" else 1)
        assert out.result.n_rfq == {"S1": 0}
        assert out.result.n_po == 0

    def test_empty_draw_reschedules_and_counts(self):
        # propensity is zero right at the start, so a trigger at t=0+ comes up
        # empty; the renewal clock still resets
        scenario = single_product_scenario(contracted=True)
        plan = FakePlan(scripts={
            ("pr-gap", "V:cat"): StubRng([u_for_delay(0.5, 100.0), GAP_40, GAP_FAR]),
            ("pr-items", "V:cat"): StubRng([0.99, 0.0]),
            ("pr-timing", "V:cat"): StubRng([U_MEAN] * 4),
        })
        out = run_once((scenario,), 0, 0, rng_plan=plan)[0]
        result = out.result
        assert result.empty_draws == 1
        assert result.n_pr == 1
        generation = next(r for r in out.log if r.kind == PR_GENERATION)
        assert generation.time == pytest.approx(40.5)


class TestClockStreams:
    """Each (vessel, category) clock keys four streams, which give every draw of its requisitions."""

    @staticmethod
    def clocks(scenario):
        return [f"{vessel.id}:{category_id}" for vessel in scenario.vessels for category_id in sorted(vessel.hazards)]

    def test_four_streams_per_clock_whatever_the_requisition_count(self, paper_scenario, monkeypatch):
        opened = []
        real = RngPlan.stream

        def stream(self, run_index, purpose, entity=""):
            opened.append((purpose, entity))
            return real(self, run_index, purpose, entity)

        monkeypatch.setattr(RngPlan, "stream", stream)
        cells = grid(paper_scenario, (0.0, 0.01, 0.1))
        expected = sorted((purpose, clock) for clock in self.clocks(paper_scenario)
                          for purpose in ("pr-gap", "pr-items", "pr-timing", "quote-noise"))
        n_prs = set()
        for run_index in range(10):
            opened.clear()
            n_prs.add(run_once(cells, run_index, 42)[0].result.n_pr)
            assert sorted(opened) == expected
        assert len(expected) == 12 and len(n_prs) > 1

    def test_timing_and_noise_streams_leave_the_demand_alone(self, paper_scenario):
        cells = grid(paper_scenario, (0.0, 0.1))
        other = RngPlan(7)
        costs_moved = 0
        for run_index in range(5):
            plan = FakePlan(42, scripts={(purpose, clock): other.stream(run_index, purpose, clock)
                                         for purpose in ("pr-timing", "quote-noise")
                                         for clock in self.clocks(paper_scenario)})
            for base, redrawn in zip(run_once(cells, run_index, 42), run_once(cells, run_index, 42, rng_plan=plan)):
                assert ([r for r in redrawn.log if r.kind == PR_GENERATION]
                        == [r for r in base.log if r.kind == PR_GENERATION])
                assert redrawn.result.n_pr == base.result.n_pr
                assert redrawn.result.empty_draws == base.result.empty_draws
                costs_moved += redrawn.result.terminal_cost != base.result.terminal_cost
        assert costs_moved > 0  # the scripted streams were read


class TestBatchDeterminism:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        # the processes are capped at the CPU count; pin it, so that on a
        # 1-CPU host a parallel batch still starts a child
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_single_run_batch_equals_run_once(self, paper_scenario, tmp_path):
        once = run_once((paper_scenario,), 0, 42)[0]
        sink = PickleSink(tmp_path)
        [result] = run_batch((paper_scenario,), 1, 42, log_sink=sink)[0]
        assert sink.logs(1) == [(once.log,)]
        assert result == once.result
        [result] = run_batch((paper_scenario,), 1, 42)[0]
        assert result == once.result

    def test_parallelism_invariance(self, paper_scenario, tmp_path):
        sinks = PickleSink(tmp_path / "serial"), PickleSink(tmp_path / "parallel")
        for sink in sinks:
            sink.directory.mkdir()
        serial = run_batch((paper_scenario,), 8, 42, parallelism=1, log_sink=sinks[0])[0]
        parallel = run_batch((paper_scenario,), 8, 42, parallelism=2, log_sink=sinks[1])[0]
        assert [r.run_index for r in serial] == list(range(8))
        assert serial == parallel
        serial_logs = sinks[0].logs(8)
        assert serial_logs == sinks[1].logs(8)
        assert all(log[-1].kind == TERMINATION for (log,) in serial_logs)

    def test_failing_sink_reports_its_run(self, paper_scenario, tmp_path):
        sink = PickleSink(tmp_path / "missing")  # no directory: the run's write fails
        with pytest.raises(BatchRunError) as err:
            run_batch((paper_scenario,), 4, 42, log_sink=sink)
        assert err.value.run_index == 0
        assert "FileNotFoundError" in err.value.message

    def test_replay_determinism(self, paper_scenario):
        a = run_once((paper_scenario,), 5, 42)[0]
        b = run_once((paper_scenario,), 5, 42)[0]
        assert a.result == b.result
        assert a.log == b.log

    def test_failing_run_reports_index(self, paper_scenario, monkeypatch):
        import rto_sim.engine as engine_mod

        real = engine_mod.run_once

        def exploding(scenarios, run_index, master_seed, **kwargs):
            if run_index == 2:
                raise RuntimeError("boom")
            return real(scenarios, run_index, master_seed, **kwargs)

        monkeypatch.setattr(engine_mod, "run_once", exploding)
        with pytest.raises(BatchRunError) as err:
            engine_mod.run_batch((paper_scenario,), 4, 42)
        assert err.value.run_index == 2

    @FORK
    def test_dead_worker_reports_lost_chunk(self, paper_scenario, monkeypatch, forking, tmp_path):
        # the caller runs chunks too, so only a child may exit; the caller's
        # runs are slow, so the child surely claims one
        caller, real = os.getpid(), engine.run_once

        def dying(scenarios, run_index, master_seed, **kwargs):
            if os.getpid() != caller:
                (tmp_path / "lost").write_text(str(run_index))
                os._exit(1)
            time.sleep(0.05)
            return real(scenarios, run_index, master_seed, **kwargs)

        monkeypatch.setattr(engine, "run_once", dying)
        with pytest.raises(BatchRunError) as err:
            engine.run_batch(grid(paper_scenario, (0.0,)), 4, 42, parallelism=2)
        assert err.value.run_index == int((tmp_path / "lost").read_text())
        assert err.value.message == "a child process died with exit code 1"

    @FORK
    def test_pool_never_exceeds_the_chunk_count(self, paper_scenario, monkeypatch, forking):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        outputs = engine.run_batch((paper_scenario,), 2, 42, parallelism=8)[0]
        assert len(forking.processes) == 1  # two processes for two one-run chunks, the caller one of them
        assert outputs == run_batch((paper_scenario,), 2, 42)[0]

    @FORK
    def test_pool_never_exceeds_the_cpu_count(self, paper_scenario, monkeypatch, forking):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        outputs = engine.run_batch((paper_scenario,), 40, 42, parallelism=1000)[0]
        assert len(forking.processes) == 2
        assert outputs == run_batch((paper_scenario,), 40, 42)[0]

    @FORK
    def test_chunks_are_sized_for_the_workers_that_run(self, paper_scenario, monkeypatch, forking, tmp_path):
        # 2 CPUs run a parallelism of 64 as the caller and one child; each
        # chunk holds 1/16 of the runs left, rounded up: 26 chunks, each
        # claimed once
        started = started_chunks(monkeypatch, tmp_path)
        outputs = engine.run_batch((paper_scenario,), 40, 42, parallelism=64)[0]
        assert len(forking.processes) == 1
        sizes = [3] * 3 + [2] * 8 + [1] * 15
        starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        assert started() == [(i, range(starts[i], starts[i + 1])) for i in range(len(sizes))]
        assert outputs == run_batch((paper_scenario,), 40, 42)[0]

    @FORK
    @pytest.mark.parametrize("failing, reported", [({0: 0.0}, 0), ({3: 0.0}, 3), ({0: 0.2, 1: 0.0}, 0)])
    def test_failure_stops_the_claims(self, paper_scenario, monkeypatch, forking, tmp_path, failing, reported):
        # 8 one-run chunks on two processes; a failing run fails after its
        # delay, the others take 50 ms, so no process ends a chunk while
        # another's fails: chunks up to the first failing one start, and at
        # most the one that the other process claimed as it failed, never a
        # later one.  In the last case run 1 fails first, and run 0 is reported
        real = engine.run_once

        def exploding(scenarios, run_index, master_seed, **kwargs):
            if run_index in failing:
                time.sleep(failing[run_index])
                raise RuntimeError("boom")
            time.sleep(0.05)
            return real(scenarios, run_index, master_seed, **kwargs)

        monkeypatch.setattr(engine, "run_once", exploding)
        started = started_chunks(monkeypatch, tmp_path)
        with pytest.raises(BatchRunError) as err:
            engine.run_batch((paper_scenario,), 8, 42, parallelism=2)
        assert err.value.run_index == reported  # the first failing run in index order
        first = min(failing)
        assert [index for index, _ in started()] in (list(range(first + 1)), list(range(first + 2)))

    @FORK
    @pytest.mark.parametrize("where, fault, raised", [
        ("child", RuntimeError, BatchRunError),
        ("caller", RuntimeError, BatchRunError),
        ("child", signal.SIGKILL, BatchRunError),
        ("caller", KeyboardInterrupt, KeyboardInterrupt),
    ])
    def test_no_process_outlives_a_failed_batch(self, paper_scenario, monkeypatch, forking, where, fault, raised):
        # the faulty process faults in its first run, while the other is in
        # mid-chunk; the other's 20 runs would take 5 s to end on their own
        caller, real = os.getpid(), engine.run_once

        def faulty(scenarios, run_index, master_seed, **kwargs):
            if (os.getpid() == caller) == (where == "caller"):
                time.sleep(0.1)
                if fault == signal.SIGKILL:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise fault("boom")
            time.sleep(0.25)
            return real(scenarios, run_index, master_seed, **kwargs)

        monkeypatch.setattr(engine, "run_once", faulty)
        started = time.monotonic()
        with pytest.raises(raised):
            engine.run_batch((paper_scenario,), 20, 42, parallelism=2)
        assert time.monotonic() - started < 3
        assert len(forking.processes) == 1
        for process in forking.processes:  # reaped by the batch, not by active_children() below
            with pytest.raises(ProcessLookupError):
                os.kill(process.pid, 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver")
                                        if m in multiprocessing.get_all_start_methods()])
    def test_any_start_method_gives_the_serial_batch(self, paper_scenario, monkeypatch, tmp_path, method):
        cells = grid(paper_scenario, (0.0, 0.1))
        serial_sink, sink = PickleSink(tmp_path / "serial"), PickleSink(tmp_path / method)
        serial_sink.directory.mkdir()
        sink.directory.mkdir()
        serial = run_batch(cells, 6, 42, log_sink=serial_sink)
        real = engine.run_once

        def after_a_child_run(*args, **kwargs):
            # a fresh child runs the real run_once; the caller's first run waits
            # for the child's first log, so the child surely simulates
            deadline = time.monotonic() + 60
            while not any(sink.directory.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.01)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run_once", after_a_child_run)
        monkeypatch.setattr(engine, "_mp_context", lambda: multiprocessing.get_context(method))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_batch(cells, 6, 42, parallelism=2, log_sink=sink) == serial
        assert sink.logs(6) == serial_sink.logs(6)
        assert len(sink.pids(6)) == 2
        assert multiprocessing.active_children() == []

    def test_batch_error_pickles_its_fields(self):
        err = pickle.loads(pickle.dumps(BatchRunError(7, "ValueError('a: b')")))
        assert (err.run_index, err.message) == (7, "ValueError('a: b')")
        assert str(err) == "run 7 failed: ValueError('a: b')"

    def test_invalid_arguments(self, paper_scenario):
        with pytest.raises(ValueError):
            run_batch((paper_scenario,), 0, 42)
        with pytest.raises(ValueError):
            run_batch((paper_scenario,), 1, 42, parallelism=0)


class TestAuditor:
    def test_clean_log_passes(self, paper_scenario):
        out = run_once((paper_scenario,), 3, 42)[0]
        assert audit_event_log(out.log) == []

    def test_detects_clock_regression(self):
        log = [EventRecord(kind=PR_GENERATION, time=5.0, pr_id="x"),
               EventRecord(kind=PR_HANDLING, time=4.0, pr_id="x")]
        assert any("clock" in v for v in audit_event_log(log))

    def test_detects_missing_response(self):
        log = [
            EventRecord(kind=PR_GENERATION, time=1.0, pr_id="x"),
            EventRecord(kind=PR_HANDLING, time=2.0, pr_id="x",
                        payload=HandlingRecord(contract_terms={}, rfq_items=("P",),
                                               rfq_suppliers=("S1", "S2"))),
            EventRecord(kind=RFQ_RESPONSE, time=3.0, pr_id="x", supplier_id="S1"),
            EventRecord(kind=PO_GENERATION, time=4.0, pr_id="x"),
        ]
        assert any("responses" in v for v in audit_event_log(log))

    def test_detects_count_inversion(self):
        log = [EventRecord(kind=PO_GENERATION, time=1.0, pr_id="x"),
               EventRecord(kind=PO_GENERATION, time=2.0, pr_id="y")]
        assert any("terminal counts" in v for v in audit_event_log(log))


class TestInvariantSweep:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_scenarios_stay_consistent(self, seed):
        scenario = random_scenario(seed)
        out = run_once((scenario,), 0, seed)[0]
        assert audit_event_log(out.log) == []
        result = out.result
        assert result.n_po <= result.n_hl <= result.n_pr
        assert result.terminal_cost >= 0.0
        completed = sum(1 for r in out.log if r.kind == PO_GENERATION)
        assert completed == result.n_po
        assert result.in_flight == result.n_pr - result.n_po


class TestGrid:
    def test_one_batch_per_cell_in_order(self, paper_scenario):
        cells = grid(paper_scenario, (0.0, 0.1))
        batches = run_batch(cells, 3, 42)
        assert len(batches) == len(cells)
        for cell, outputs in zip(cells, batches):
            assert outputs == run_batch((cell,), 3, 42)[0]

    @pytest.mark.parametrize("change", [
        lambda world: {"horizon": 100.0},
        lambda world: {"delays": DelayConfig(handling_to_po=0.5)},
        lambda world: {"suppliers": world.suppliers[1:]},
        lambda world: {"contracts": world.contracts[1:]},
        lambda world: {"spot": dataclasses.replace(world.spot, noise_sd=world.spot.noise_sd + 1.0,
                                                   competition_slope=world.spot.competition_slope + 0.1)},
    ], ids=[f"change{i}" for i in range(5)])
    def test_cells_may_differ_only_in_policy_and_slope(self, paper_scenario, change):
        other = dataclasses.replace(paper_scenario, **change(paper_scenario))
        with pytest.raises(ValueError, match="policy and spot.competition_slope"):
            run_once((paper_scenario, other), 0, 42)
        with pytest.raises(ValueError, match="policy and spot.competition_slope"):
            run_batch((paper_scenario, other), 2, 42)

    def test_competition_basis_is_shared(self, paper_scenario):
        other = dataclasses.replace(paper_scenario, spot=dataclasses.replace(
            paper_scenario.spot, competition_basis="per_supplier_total"))
        with pytest.raises(ValueError):
            run_once((paper_scenario, other), 0, 42)

    def test_identical_cells_share_every_decision(self, paper_scenario, monkeypatch):
        calls = []
        solve = engine.allocate_batch
        monkeypatch.setattr(engine, "allocate_batch", lambda decisions: calls.extend(decisions) or solve(decisions))
        cell = grid(paper_scenario, (0.1,), policies=("dynamic",))[0]
        for run_index in range(3):
            calls.clear()
            (alone,) = run_once((cell,), run_index, 42)
            solved_alone = len(calls)
            calls.clear()
            assert run_once((cell, cell), run_index, 42) == (alone, alone)
            assert len(calls) == solved_alone > 0

    def test_one_scope_per_policy_per_handled_requisition(self, paper_scenario, monkeypatch):
        calls = []
        decide = engine.decide_rfq_scope
        monkeypatch.setattr(engine, "decide_rfq_scope",
                            lambda req, terms, policy: calls.append((req.id, policy)) or decide(req, terms, policy))
        # both policies at three slopes, and naive at another order overhead
        naive = grid(paper_scenario, (0.01,), policies=("naive",))[0]
        other = dataclasses.replace(naive, policy=dataclasses.replace(naive.policy,
                                                                      po_overhead=naive.policy.po_overhead + 25.0))
        cells = (*grid(paper_scenario, (0.0, 0.01, 0.1)), other)
        policies = {cell.policy for cell in cells}
        assert len(policies) == 3
        for run_index in range(3):
            calls.clear()
            outputs = run_once(cells, run_index, 42)
            n_hl = outputs[0].result.n_hl
            assert n_hl > 0 and all(o.result.n_hl == n_hl for o in outputs)
            assert len(calls) == len(policies) * n_hl
            assert len(set(calls)) == len(calls)  # each (requisition, policy) once
            assert {policy for _, policy in calls} == policies
            for cell, output in zip(cells, outputs):
                assert run_once((cell,), run_index, 42) == (output,)

    def test_contract_only_decisions_are_shared_across_slopes(self, monkeypatch):
        # naive quotes nothing when every item is contracted, and a
        # contract-only matrix solves alike at any slope, per_supplier_total
        # basis included; so the cells share every decision
        calls = []
        solve = engine.allocate_batch
        monkeypatch.setattr(engine, "allocate_batch", lambda decisions: calls.extend(decisions) or solve(decisions))
        base = single_product_scenario(contracted=True, horizon=1000.0)
        world = dataclasses.replace(base, spot=dataclasses.replace(base.spot,
                                                                   competition_basis="per_supplier_total"))
        cells = grid(world, (0.0, 0.05), policies=("naive",))
        for run_index in range(3):
            calls.clear()
            (alone,) = run_once(cells[:1], run_index, 42)
            solved_alone = len(calls)
            calls.clear()
            outputs = run_once(cells, run_index, 42)
            assert len(calls) == solved_alone > 0
            assert outputs == (alone, run_once(cells[1:], run_index, 42)[0])

    def test_cells_differing_only_in_overhead_decide_apart(self, paper_scenario):
        cells = tuple(dataclasses.replace(paper_scenario, policy=dataclasses.replace(
            paper_scenario.policy, kind="dynamic", po_overhead=overhead)) for overhead in (0.0, 500.0))
        differing = 0
        for run_index in range(5):
            outputs = run_once(cells, run_index, 42)
            for cell, out in zip(cells, outputs):
                assert out == reference_run_once(cell, run_index, 42)
            cheap, dear = ({r.pr_id: r.payload for r in out.log if r.kind == PO_GENERATION} for out in outputs)
            differing += sum(cheap[pr_id] != dear[pr_id] for pr_id in cheap)
        # so a decision shared regardless of the overhead would fail above
        assert differing > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_per_supplier_total_cells_equal_their_one_cell_runs(self, seed):
        base = random_scenario(seed)
        world = dataclasses.replace(base, spot=dataclasses.replace(base.spot,
                                                                   competition_basis="per_supplier_total"))
        cells = grid(world, (0.0, 0.05))
        for run_index in range(2):
            for cell, out in zip(cells, run_once(cells, run_index, seed)):
                assert out == run_once((cell,), run_index, seed)[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_once((), 0, 42)
        with pytest.raises(ValueError):
            run_batch((), 1, 42)


class TestCommonRandomNumbers:
    @staticmethod
    def order_costs(out):
        return {r.pr_id: r.payload.total_cost for r in out.log if r.kind == PO_GENERATION}

    def test_dynamic_never_costs_more_per_requisition(self, paper_scenario):
        # dynamic admits a superset of naive's options on the same demand and
        # quotes, so a requisition ordered under both costs no more under dynamic
        sources = [(paper_scenario, range(6))] + [(random_scenario(seed), range(2)) for seed in range(20)]
        compared = 0
        for base, run_indices in sources:
            for basis in ("per_item", "per_supplier_total"):
                world = dataclasses.replace(base, spot=dataclasses.replace(base.spot, competition_basis=basis))
                for slope in (0.0, 0.05):
                    for run_index in run_indices:
                        naive, dynamic = (self.order_costs(out) for out in
                                          run_once(grid(world, (slope,)), run_index, 11))
                        for pr_id in naive.keys() & dynamic.keys():
                            assert dynamic[pr_id] <= naive[pr_id] * (1.0 + 1e-9), (basis, slope, pr_id)
                            compared += 1
        assert compared > 1000  # 1,512 requisitions


def scaled_prices(scenario, factor):
    """Every price times `factor`: contract rates, spot curves and noise, the slope and the overhead."""
    spot = scenario.spot
    return dataclasses.replace(
        scenario,
        contracts=tuple(dataclasses.replace(c, product_rates={p: r * factor for p, r in c.product_rates.items()})
                        for c in scenario.contracts),
        spot=dataclasses.replace(
            spot, noise_sd=spot.noise_sd * factor, competition_slope=spot.competition_slope * factor,
            rates={key: dataclasses.replace(rate, baseline=rate.baseline * factor,
                                            amplitude=rate.amplitude * factor)
                   for key, rate in spot.rates.items()}),
        policy=dataclasses.replace(scenario.policy, po_overhead=scenario.policy.po_overhead * factor),
    )


class TestMetamorphic:
    @pytest.mark.parametrize("basis", ["per_item", "per_supplier_total"])
    def test_doubling_every_price_doubles_the_cost_exactly(self, paper_scenario, basis):
        # times 2 is exact in floating point, so every rate, markup, order
        # total and comparison scales exactly, unless the spot floor binds
        world = dataclasses.replace(paper_scenario, spot=dataclasses.replace(paper_scenario.spot,
                                                                             competition_basis=basis))
        cells = grid(world, (0.0, 0.1))
        doubled = tuple(scaled_prices(cell, 2.0) for cell in cells)
        compared = 0
        for run_index in range(20):
            base_outs = run_once(cells, run_index, 7)
            # the dynamic slope-0 cell quotes every item at its base rate
            rates = [rate for out in base_outs for record in out.log if record.kind == RFQ_RESPONSE
                     for rate in record.payload.values()]
            assert min(rates) > MIN_SPOT_RATE
            for base, scaled in zip(base_outs, run_once(doubled, run_index, 7, collect_log=False)):
                base, scaled = base.result, scaled.result
                assert scaled.terminal_cost == 2.0 * base.terminal_cost
                # volumes, utilizations, deviations and counts are unchanged
                assert dataclasses.replace(scaled, terminal_cost=base.terminal_cost) == base
                compared += 1
        assert compared == 80


class TestReferenceEquivalence:
    """Every cell of the shared-demand kernel replays the event-queue reference exactly."""

    @pytest.mark.parametrize("basis", ["per_item", "per_supplier_total"])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_scenarios(self, seed, basis):
        base = random_scenario(seed)
        base = dataclasses.replace(base, spot=dataclasses.replace(base.spot,
                                                                  competition_basis=basis))
        cells = grid(base, (0.0, 0.05))
        for run_index in range(2):
            for cell, out in zip(cells, run_once(cells, run_index, seed)):
                assert out == reference_run_once(cell, run_index, seed)

    def test_paper_grid(self, paper_scenario):
        cells = grid(paper_scenario, (0.0, 0.01, 0.1))
        for run_index in range(50):
            for cell, out in zip(cells, run_once(cells, run_index, 42)):
                assert out == reference_run_once(cell, run_index, 42)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999),
       fraction=st.floats(min_value=0.01, max_value=0.99),
       paper=st.booleans())
def test_shorter_horizon_log_is_a_prefix(paper_scenario, seed, fraction, paper):
    # the log at H' < H is the H-run's log cut at t < H', then termination at H'
    scenario = paper_scenario if paper else random_scenario(seed)
    cut = fraction * scenario.horizon
    full = run_once(grid(scenario, (0.0, 0.05)), seed % 7, seed)
    short = run_once(grid(dataclasses.replace(scenario, horizon=cut), (0.0, 0.05)), seed % 7, seed)
    for f, s in zip(full, short):
        expected = tuple(r for r in f.log if r.time < cut) + (EventRecord(kind=TERMINATION, time=cut),)
        assert s.log == expected
