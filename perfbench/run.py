"""rto-sim benchmark: replication throughput per workload, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the simulator is imported from its
``src`` directory.  ``--workload all`` runs every workload in turn.

With ``--trace 0`` each run times, with tracing off:

- ``setup_s``: a fresh interpreter importing ``rto_sim``, then ``load_scenario``
  and ``validate_scenario`` on the workload's scenario;
- the workload's CLI command in a fresh process;
  ``runs_per_s`` is replications (cells x runs) per second of
  ``rto_sim.cli.main``, emission included, and ``peak_rss_mb`` the peak
  resident memory of that process plus its largest worker.

The two alternate, at least three times each, for as many rounds as fit in
``--seconds``; each metric reports the median.

With ``--trace 1`` each round runs the command untraced at parallelism 1 and
2, then at parallelism 1 in-process with a span around every layer's public
functions (``child.py``); per-layer figures are medians over the rounds.

Every command's outputs are checked (``checks.py``) and digested; the
digests must agree across repeats, parallelism and tracing, and are compared
with ``digests.json``, recorded at the benchmark's commit.  A recorded-digest
mismatch is reported but does not fail the run: a change may alter the
numbers on purpose.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import EVENTS_KEY, check_outputs, digest_mismatches, digest_summary
from workloads import WORKLOADS, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
DIGESTS = BENCH_DIR / "digests.json"

MIN_REPEATS = 3
MIN_TRACE_ROUNDS = 2
CHILD_TIMEOUT_S = 150
MAX_PROBLEMS_SHOWN = 20

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
# child.py measures more per-layer figures than the result line carries; the
# rest are printed only, because they read 0 on workloads that skip their layer
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def child(args: list[str]) -> dict:
    """Run child.py in a fresh interpreter with the checkout's sources importable.

    The child gets its own process group, so a timeout also ends the worker
    processes it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, str(CHILD), *args], env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's repeats."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One workload at one seed: its inputs, the commands run, and what they showed."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.inputs = make_inputs(name, seed, SRC)
        self.seed = seed
        self.seconds = seconds
        self.out_dir = BENCH_DIR / "work" / name / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}  # command label -> summary digests
        self.first_files: dict[str, str] | None = None
        self.units = dict(UNITS)

    def command(self, label: str, parallelism: int, trace: bool = False) -> dict:
        """Run the workload's CLI command once, then check and digest its outputs."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.inputs.argv(self.out_dir, parallelism)
        if trace:
            spans = self.out_dir.parent / "spans.csv.gz"
            out = child(["trace", str(spans), *argv])
        else:
            out = child(["cli", *argv])
        w = self.inputs.workload
        check = check_outputs(self.out_dir, out["rc"], w.cells, w.runs, self.inputs.scenario_path,
                              events="--export-events" in w.command)
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems += check.problems
        summary = digest_summary(check.files)
        if self.first_files is None:
            self.first_files = check.files
        previous = self.digests.setdefault(label, summary)
        if previous != summary:
            self.problems.append(f"{label}: outputs differ between repeats")
            self.failed += check.attempted - check.failed
        return out

    def measure(self) -> dict[str, list[float]]:
        """Untraced: set-up and the end-to-end command, alternating for the run's seconds.

        Alternating spreads both over the same stretch of machine time, so a
        slow phase of a shared host does not fall on one metric only.
        """
        values: dict[str, list[float]] = {name: [] for name in END_TO_END}
        for _ in self.rounds(MIN_REPEATS):
            values["setup_s"].append(child(["setup", self.inputs.scenario])["setup_s"])
            out = self.command("end-to-end", self.inputs.workload.parallelism)
            values["runs_per_s"].append(self.inputs.replications / out["wall_s"])
            values["peak_rss_mb"].append(out["peak_rss_mb"])
        return values

    def rounds(self, minimum: int):
        """Yield round numbers while another round, as long as the last, fits in the seconds."""
        started = time.perf_counter()
        count = 0
        while True:
            round_started = time.perf_counter()
            yield count
            count += 1
            now = time.perf_counter()
            if count >= minimum and now + (now - round_started) - started > self.seconds:
                return

    def measure_traced(self) -> dict[str, list[float]]:
        """Rounds of untraced parallelism 1 and 2, then traced parallelism 1."""
        values: dict[str, list[float]] = {}
        walls: dict[str, list[float]] = {"p1": [], "p2": [], "traced": []}
        for _ in self.rounds(MIN_TRACE_ROUNDS):
            walls["p1"].append(self.command("parallelism 1", 1)["wall_s"])
            walls["p2"].append(self.command("parallelism 2", 2)["wall_s"])
            out = self.command("traced, parallelism 1", 1, trace=True)
            walls["traced"].append(out["wall_s"])
            for name, (value, unit) in out.get("layers", {}).items():
                values.setdefault(name, []).append(value)
                if self.units.setdefault(name, unit) != unit:
                    self.problems.append(f"{name} measured in {unit}, BENCHMARK.json says "
                                         f"{self.units[name]}")
        p1, p2, traced = (statistics.median(walls[k]) for k in ("p1", "p2", "traced"))
        values["engine.run_batch.speedup"] = [p1 / p2]
        values["trace.overhead_frac"] = [traced / p1 - 1.0]
        labels = list(self.digests)
        for label in labels[1:]:
            if self.digests[label] != self.digests[labels[0]]:
                self.problems.append(f"outputs of '{label}' differ from '{labels[0]}' "
                                     "(parallel or tracing invariance broken)")
                self.failed = self.attempted
        return values


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "platform": platform.platform(),
    }


# spans whose self time adds up to engine.run_once's duration
RUN_ONCE_LAYERS = (
    "engine.run_once", "engine.stream", "hazards.sample_gap", "demand.build_requisition",
    "market.make_quote", "market.terms_snapshot", "policy.allocate_min_cost",
    "policy.build_cost_matrix", "policy.decide_rfq_scope", "metrics.record_allocation",
)


def print_layer_shares(stats: dict[str, dict]) -> None:
    """Each layer's share of replication time, largest first."""
    self_s = {name: stats[f"{name}.self_s"]["median"] for name in RUN_ONCE_LAYERS
              if f"{name}.self_s" in stats}
    total = sum(self_s.values())
    if not total:
        return
    print("share of engine.run_once time by self time (engine.run_once = event loop):")
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<42} {seconds / total:6.1%}")


def report(run: Run, trace: bool, values: dict[str, list[float]]) -> dict:
    """Print the run's figures, checks and digests; return its result line."""
    inputs = run.inputs
    w = inputs.workload
    print(f"== {w.name}  seed={run.seed} variant={inputs.variant}  trace={int(trace)}")
    print(f"why: {w.why}")
    print("command: rto-sim " + " ".join(inputs.argv(Path("<out>"), w.parallelism)))
    stats = {name: spread(v) for name, v in values.items()}
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    for name, s in stats.items():
        print(f"{name:<44} {s['median']:>14.6g} {run.units[name]:<6} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(f"{'failed_frac':<44} {failed_frac:>14.6g} {'frac':<6} "
          f"{run.failed} of {run.attempted} replications failed")
    for problem in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"CHECK FAILED: {problem}")
    if len(run.problems) > MAX_PROBLEMS_SHOWN:
        print(f"CHECK FAILED: ... and {len(run.problems) - MAX_PROBLEMS_SHOWN} more")

    if run.first_files:
        for path, digest in run.first_files.items():
            print(f"sha256 {digest}  {path}")
    recorded = json.loads(DIGESTS.read_text()).get(w.name, {}).get(str(inputs.variant))
    actual = next(iter(run.digests.values()), {})
    if recorded is None:
        print(f"digests: none recorded for {w.name} variant {inputs.variant}")
        digest_state = "unrecorded"
    else:
        differ = digest_mismatches(actual, recorded)
        digest_state = "match" if not differ else "mismatch"
        if differ:
            note = f" ({EVENTS_KEY} folds the event logs)" if EVENTS_KEY in differ else ""
            print(f"DIGEST MISMATCH: {len(differ)} of {len(recorded)} recorded output digests "
                  f"differ{note}: " + ", ".join(differ[:10]), flush=True)
            print(f"DIGEST MISMATCH in {w.name} variant {inputs.variant}", file=sys.stderr)
        else:
            print(f"digests: all {len(recorded)} match the recorded digests")

    if trace:
        print_layer_shares(stats)
    selected = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": stats[name]["median"], "unit": run.units[name]}
               for name in selected if name in stats}
    record = {
        "workload": w.name, "why": w.why, "seed": run.seed, "variant": inputs.variant,
        "trace": int(trace), "seconds": run.seconds, "machine": machine(),
        "stats": stats, "failed_frac": failed_frac, "digests": digest_state,
        "problems": run.problems,
    }
    results = BENCH_DIR / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{run.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("# meta " + json.dumps({k: record[k] for k in ("machine", "seconds", "digests")}
                                 | {"repeats": {k: s["n"] for k, s in stats.items()}}))
    correct = run.failed == 0 and not run.problems and len(metrics) == len(selected)
    return {"correct": correct, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rto_sim" / "__init__.py").is_file():
        print(f"error: no rto_sim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    lines = {}
    for name in names:
        run = Run(name, args.seed, args.seconds)
        values = run.measure_traced() if args.trace else run.measure()
        lines[name] = report(run, bool(args.trace), values)
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{n}.{m}": v for n, l in lines.items() for m, v in l["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
