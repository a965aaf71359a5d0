"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight fixtures
(the 1,000-run comparison grid and the full 10,000-run grid) are built once
per module and shared by every criterion that needs them.
"""

import math
import os
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import count_local_maxima, random_scenario
from oracles import OracleInstance, exhaustive_allocation, weibull_cdf
from rto_sim.cli import load_scenario, main
from rto_sim.engine import audit_event_log, run_batch, run_once
from rto_sim.hazards import HazardSpec, WeibullBaseline, sample_gap
from rto_sim.policy import SPOT, CostMatrix, MatrixEntry, allocate_min_cost

POOL = min(4, os.cpu_count() or 1)
SLOPES = (("0", 0.0), ("0.01", 0.01), ("0.1", 0.10))


def report(name: str, passed: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid_1k():
    """(policy, slope token) -> (results, seconds for the whole grid), 1,000 runs per cell, seed 42."""
    base = load_scenario("paper_s5.json").scenario
    keys, scenarios = [], []
    for policy in ("naive", "dynamic"):
        for token, slope in SLOPES:
            keys.append((policy, token))
            scenarios.append(replace(base, policy=replace(base.policy, kind=policy),
                                     spot=replace(base.spot, competition_slope=slope)))
    started = time.perf_counter()
    batches = run_batch(scenarios, 1000, 42, parallelism=POOL)
    elapsed = time.perf_counter() - started
    return {key: (tuple(o.result for o in outputs), elapsed) for key, outputs in zip(keys, batches)}


@pytest.fixture(scope="module")
def full_grid(tmp_path_factory):
    """The complete 2-policy x 3-slope x 10,000-run grid through the CLI, timed."""
    out_dir = tmp_path_factory.mktemp("full_grid")
    started = time.perf_counter()
    status = main([
        "compare", "paper_s5.json",
        "--policies", "naive,dynamic",
        "--slopes", "0,0.01,0.1",
        "--runs", "10000",
        "--seed", "42",
        "--parallelism", str(POOL),
        "--out", str(out_dir),
    ])
    elapsed = time.perf_counter() - started
    assert status == 0
    return out_dir, elapsed


def test_a1_sampler_fidelity():
    spec = HazardSpec(WeibullBaseline(shape=2.0, scale=10.0))
    rng = np.random.Generator(np.random.PCG64(42))
    started = time.perf_counter()
    gaps = [sample_gap(spec, 0.0, 1e9, rng) for _ in range(10_000)]
    elapsed = time.perf_counter() - started
    ks = stats.kstest(gaps, lambda x: np.vectorize(weibull_cdf)(2.0, 10.0, x))
    mean = float(np.mean(gaps))
    target = 10.0 * math.gamma(1.5)
    ok = ks.pvalue > 0.01 and abs(mean - target) / target <= 0.02 and elapsed < 5.0
    report("A1 sampler fidelity", ok,
           f"KS p={ks.pvalue:.3f}, mean={mean:.4f} vs {target:.4f}, {elapsed:.1f}s")


def test_a2_demand_accumulation():
    # renewal process over 365 days; horizon exceeds five mean gaps
    spec = HazardSpec(WeibullBaseline(shape=1.5, scale=10.0))
    mu = 10.0 * math.gamma(1.0 + 1.0 / 1.5)
    assert 365.0 >= 5 * mu
    horizon = 365.0
    rng = np.random.Generator(np.random.PCG64(42))
    started = time.perf_counter()
    total = 0
    n_runs = 10_000
    for _ in range(n_runs):
        t = 0.0
        while True:
            nxt = sample_gap(spec, t, horizon, rng)
            if nxt is None:
                break
            t = nxt
            total += 1
    elapsed = time.perf_counter() - started
    mean_count = total / n_runs
    asymptote = horizon / mu
    ok = abs(mean_count - asymptote) / asymptote <= 0.05 and elapsed < 30.0
    report("A2 demand accumulation", ok,
           f"mean N(365)={mean_count:.3f} vs {asymptote:.3f}, {elapsed:.1f}s")


def test_a3_allocation_optimality():
    rng = random.Random(20240915)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n_items = rng.randint(1, 5)
        suppliers = [f"S{i}" for i in range(rng.randint(1, 3))]
        entries, quantities, costs = {}, {}, {}
        for k in range(n_items):
            item = f"P{k}"
            available = [s for s in suppliers if rng.random() < 0.8] or [rng.choice(suppliers)]
            entries[item] = tuple(MatrixEntry(s, float(rng.randint(1, 20)), SPOT)
                                  for s in sorted(available))
            costs[item] = {e.supplier_id: e.unit_cost for e in entries[item]}
            quantities[item] = rng.randint(1, 10)
        overhead = rng.choice([0.0, 10.0, 25.0])
        best, minimizers = exhaustive_allocation(OracleInstance(costs, quantities, overhead))
        alloc = allocate_min_cost(CostMatrix(entries=entries), quantities, overhead)
        assignment = {item: a.supplier_id for item, a in alloc.items.items()}
        if abs(alloc.total_cost - best) > 1e-9 or assignment not in minimizers:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report("A3 allocation optimality", ok, f"mismatches={mismatches}/1000, {elapsed:.1f}s")


def test_a4_policy_cost_ordering(grid_1k):
    naive, elapsed = grid_1k[("naive", "0")]
    dynamic, _ = grid_1k[("dynamic", "0")]
    cost_naive = np.array([r.terminal_cost for r in naive])
    cost_dynamic = np.array([r.terminal_cost for r in dynamic])
    paired_frac = float(np.mean(cost_dynamic - cost_naive <= 0.0))
    ok = (cost_dynamic.mean() <= cost_naive.mean() and paired_frac >= 0.90
          and elapsed < 120.0)
    report("A4 policy cost ordering", ok,
           f"mean dynamic={cost_dynamic.mean():.1f} <= naive={cost_naive.mean():.1f}, "
           f"paired<=0 in {100 * paired_frac:.1f}% of runs, {elapsed:.1f}s")


def test_a5_competition_convergence(grid_1k):
    gaps = []
    for token, _ in SLOPES:
        cost_naive = np.mean([r.terminal_cost for r in grid_1k[("naive", token)][0]])
        cost_dynamic = np.mean([r.terminal_cost for r in grid_1k[("dynamic", token)][0]])
        gaps.append(abs(cost_naive - cost_dynamic))
    ok = gaps[0] >= gaps[1] >= gaps[2]
    report("A5 competition convergence", ok,
           "mean-cost gap " + " >= ".join(f"{g:.1f}" for g in gaps))


def test_a6_compliance_shape(grid_1k):
    def median_u(policy, token, supplier):
        results = grid_1k[(policy, token)][0]
        return float(np.median([r.utilizations[supplier] for r in results]))

    naive_c = {token: median_u("naive", token, "C") for token, _ in SLOPES}
    dyn0 = {s: median_u("dynamic", "0", s) for s in ("A", "B", "C")}
    dyn_high_c = median_u("dynamic", "0.1", "C")
    ok = (all(v > 1.0 for v in naive_c.values())
          and all(v < 0.25 for v in dyn0.values())
          and dyn_high_c > 1.0)
    report("A6 compliance shape", ok,
           f"naive median u_C={naive_c}, dynamic@0 medians={dyn0}, "
           f"dynamic@0.1 median u_C={dyn_high_c:.2f}")


def test_a7_determinism_across_parallelism(tmp_path):
    outputs = {}
    for parallelism in (1, 8):
        out = tmp_path / f"par{parallelism}"
        status = main(["run", "paper_s5.json", "--runs", "100", "--seed", "42",
                       "--parallelism", str(parallelism), "--out", str(out)])
        assert status == 0
        outputs[parallelism] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name == "runs.csv" or p.name == "summary.json" or p.name.startswith("histogram_")
        }
    same = outputs[1] == outputs[8]
    names = sorted(outputs[1])
    report("A7 determinism", same, f"{len(names)} files byte-identical across parallelism 1 vs 8")


def test_a8_lifecycle_invariants():
    total_violations = 0
    for seed in range(100):
        scenario = random_scenario(seed)
        out = run_once((scenario,), 0, seed)[0]
        violations = audit_event_log(out.log)
        total_violations += len(violations)
        result = out.result
        if not result.n_po <= result.n_hl <= result.n_pr:
            total_violations += 1
    report("A8 lifecycle invariants", total_violations == 0,
           f"{total_violations} violations over 100 random scenarios")


def test_a9_scale(full_grid):
    _, elapsed = full_grid
    report("A9 scale", elapsed < 600.0,
           f"2 policies x 3 slopes x 10,000 runs in {elapsed:.0f}s on {POOL} workers")


def test_cost_histogram_is_multimodal(full_grid):
    # the 10,000-run cost histogram shows distinct demand-driven modes
    out_dir, _ = full_grid
    path = out_dir / "naive_slope0" / "histogram_terminal_cost.csv"
    counts = [int(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
    modes = count_local_maxima(counts, smooth_window=5)
    report("Cost-shape check", modes >= 2, f"{modes} local maxima after 5-bin smoothing")
