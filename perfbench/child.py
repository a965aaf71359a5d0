"""One measured process of the benchmark; prints one JSON line on stdout.

    python3 child.py setup <scenario>          import rto_sim, load and validate
    python3 child.py cli <cli args...>         run rto_sim.cli.main untraced
    python3 child.py trace <spans.csv.gz> <cli args...>
                                               run it with a span around each layer

``rto_sim`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).
"""

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402 - the setup timer starts before any import
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def measure_setup(scenario: str) -> dict:
    from rto_sim.cli import load_scenario
    from rto_sim.domain import validate_scenario

    validate_scenario(load_scenario(scenario).scenario)
    return {"setup_s": time.perf_counter() - _STARTED}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped worker, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # Linux reports KiB


def run_cli(argv: list[str]) -> dict:
    from rto_sim.cli import main

    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    wall = time.perf_counter() - started
    return {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}


def install_spans(tracer):
    """Patch each layer's public functions with spans, wherever callers look them up."""
    import rto_sim.cli as cli
    import rto_sim.demand as demand
    import rto_sim.engine as engine
    import rto_sim.hazards as hazards
    import rto_sim.market as market
    import rto_sim.metrics as metrics
    import rto_sim.policy as policy

    def patch(name, owners, attr, **options):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), **options)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def none_counter(key):
        def observe(args, result):
            if result is None:
                tracer.count(key)
        return observe

    def solver_path(args):
        matrix = args[0]
        coupled = matrix.competition_basis == "per_supplier_total" and matrix.competition_slope > 0.0
        return "policy.allocate_min_cost." + ("enumeration" if coupled else "subset")

    def solver_space(args, result):
        matrix = args[0]
        if solver_path(args).endswith("enumeration"):
            space = math.prod(len(options) for options in matrix.entries.values())
        else:
            pool = {e.supplier_id for options in matrix.entries.values() for e in options}
            space = 2 ** len(pool) - 1
        tracer.count(solver_path(args) + ".space", space)

    def written_bytes(args, result):
        tracer.count("cli.write.bytes", Path(args[0]).stat().st_size)

    patch("engine.stream", [engine.RngPlan], "stream")
    patch("engine.run_once", [engine], "run_once", keep_durations=True)
    patch("engine.run_batch", [cli, engine], "run_batch")
    patch("hazards.sample_gap", [hazards], "sample_gap",
          observe=none_counter("hazards.sample_gap.none"))
    patch("demand.build_requisition", [demand], "build_requisition",
          observe=none_counter("demand.build_requisition.empty"))
    patch("market.make_quote", [engine, market], "make_quote")
    patch("market.terms_snapshot", [market.ContractBook], "terms_snapshot")
    patch("policy.allocate_min_cost", [engine, policy], "allocate_min_cost",
          keep_durations=True, name_of=solver_path, observe=solver_space)
    patch("policy.build_cost_matrix", [engine, policy], "build_cost_matrix")
    patch("policy.decide_rfq_scope", [engine, policy], "decide_rfq_scope")
    patch("metrics.record_allocation", [engine, metrics], "record_allocation")
    patch("metrics.summarize_batch", [cli, metrics], "summarize_batch")
    patch("cli.load_scenario", [cli], "load_scenario")
    for writer in ("write_runs_csv", "write_summary_json", "write_histogram_csv",
                   "write_events_csv"):
        patch(f"cli.{writer}", [cli], writer, observe=written_bytes)
    return cli.main


def _percentile(values: list[float], level: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced command: name -> (value, unit)."""
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    runs = calls["engine.run_once"]
    m: dict[str, tuple[float, str]] = {}

    m["engine.stream.calls_per_run"] = (calls.get("engine.stream", 0) / runs, "count")
    m["engine.stream.self_s"] = (self_s.get("engine.stream", 0.0), "s")
    run_ms = [d * 1e3 for d in tracer.durations["engine.run_once"]]
    m["engine.run_once.samples"] = (runs, "count")
    m["engine.run_once.ms_p50"] = (_percentile(run_ms, 50), "ms")
    m["engine.run_once.ms_p99"] = (_percentile(run_ms, 99), "ms")
    m["engine.run_once.self_s"] = (self_s["engine.run_once"], "s")

    for name, outcome in (("hazards.sample_gap", "none"), ("demand.build_requisition", "empty")):
        n = calls.get(name, 0)
        m[f"{name}.calls"] = (n, "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{name}.{outcome}_frac"] = (counts.get(f"{name}.{outcome}", 0) / n if n else 0.0, "frac")

    m["market.make_quote.calls"] = (calls.get("market.make_quote", 0), "count")
    m["market.make_quote.self_s"] = (self_s.get("market.make_quote", 0.0), "s")
    m["market.terms_snapshot.self_s"] = (self_s.get("market.terms_snapshot", 0.0), "s")

    solver = "policy.allocate_min_cost"
    paths = (f"{solver}.subset", f"{solver}.enumeration")
    for prefix, names in ((solver, paths), *((p, (p,)) for p in paths)):
        n = sum(calls.get(p, 0) for p in names)
        us = [d * 1e6 for p in names for d in tracer.durations.get(p, [])]
        space = sum(counts.get(f"{p}.space", 0) for p in names)
        m[f"{prefix}.calls"] = (n, "count")
        m[f"{prefix}.self_s"] = (sum(self_s.get(p, 0.0) for p in names), "s")
        m[f"{prefix}.us_p50"] = (_percentile(us, 50), "us")
        m[f"{prefix}.us_p99"] = (_percentile(us, 99), "us")
        m[f"{prefix}.space_mean"] = (space / n if n else 0.0, "count")
    m["policy.build_cost_matrix.self_s"] = (self_s.get("policy.build_cost_matrix", 0.0), "s")
    m["policy.decide_rfq_scope.self_s"] = (self_s.get("policy.decide_rfq_scope", 0.0), "s")

    m["metrics.record_allocation.self_s"] = (self_s.get("metrics.record_allocation", 0.0), "s")
    m["metrics.summarize_batch.self_s"] = (self_s.get("metrics.summarize_batch", 0.0), "s")

    m["cli.load_scenario.s"] = (total_s["cli.load_scenario"], "s")
    writers = ("write_runs_csv", "write_summary_json", "write_histogram_csv", "write_events_csv")
    for writer in writers:
        m[f"cli.{writer}.self_s"] = (self_s.get(f"cli.{writer}", 0.0), "s")
    m["cli.write.self_s"] = (sum(self_s.get(f"cli.{w}", 0.0) for w in writers), "s")
    m["cli.write.bytes"] = (counts.get("cli.write.bytes", 0), "B")

    # share of run_once time its child spans account for; the rest is the event loop
    m["trace.coverage"] = (1.0 - self_s["engine.run_once"] / total_s["engine.run_once"], "frac")
    return m


def run_traced(spans_path: str, argv: list[str]) -> dict:
    from spans import Tracer

    tracer = Tracer()
    main = tracer.wrap("cli.main", install_spans(tracer))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    out = {"rc": rc, "wall_s": tracer.total_s["cli.main"]}
    if rc == 0:
        out["layers"] = layer_metrics(tracer)
    tracer.write(Path(spans_path))
    return out


def main() -> None:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        out = measure_setup(rest[0])
    elif mode == "cli":
        out = run_cli(rest)
    elif mode == "trace":
        out = run_traced(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
