"""Accounting and batch-summary tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rto_sim.domain import AllocatedItem, Allocation
from conftest import count_local_maxima
from oracles import summarize_values
from rto_sim.cli import write_histogram_csv
from rto_sim.metrics import (
    RunResult,
    record_allocation,
    summarize_batch,
    utilization,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def allocation(items, overhead=0.0):
    return Allocation(items=items, overhead_cost=overhead)


class TestRecordAllocation:
    def test_spot_only_leaves_volumes_unchanged(self):
        volumes = {"A": 0}
        delta = record_allocation(volumes, allocation(
            {"P1": AllocatedItem("A", 9.5, 4, "spot")}
        ))
        assert volumes == {"A": 0}
        assert delta == pytest.approx(38.0)

    def test_contract_volume_accrues(self):
        volumes = {"C": 0}
        record_allocation(volumes, allocation(
            {"P3": AllocatedItem("C", 12.0, 40, "contract")}
        ))
        assert volumes == {"C": 40}

    def test_split_charges_exactly_one_overhead(self):
        volumes = {}
        delta = record_allocation(volumes, allocation(
            {
                "P1": AllocatedItem("A", 5.0, 1, "spot"),
                "P2": AllocatedItem("B", 5.0, 1, "spot"),
            },
            overhead=10.0,
        ))
        assert delta == pytest.approx(20.0)
        assert volumes == {}


class TestUtilization:
    def test_exact_compliance(self):
        assert utilization(150, 150) == 1.0

    def test_full_underutilization(self):
        assert utilization(0, 150) == 0.0

    def test_overutilization(self):
        assert utilization(225, 150) == pytest.approx(1.5)

    def test_zero_commitment_undefined(self):
        with pytest.raises(ValueError):
            utilization(10, 0)


class TestSummaries:
    def test_single_run_degenerate(self, tmp_path):
        s = summarize_values([42.0])
        assert all(q == 42.0 for q in s.quantiles.values())
        assert s.std == 0.0
        write_histogram_csv(tmp_path / "h.csv", [42.0], bins=100)
        assert (tmp_path / "h.csv").read_bytes() == b"bin_left,bin_right,count\n42,42,1\n"

    def test_two_runs(self):
        s = summarize_values([10.0, 20.0])
        assert s.mean == 15.0
        assert s.quantiles[50] == 15.0

    def test_histogram_covers_all_values(self, tmp_path):
        write_histogram_csv(tmp_path / "h.csv", range(1000), bins=50)
        header, *rows = (tmp_path / "h.csv").read_text().splitlines()
        assert header == "bin_left,bin_right,count"
        assert len(rows) == 50
        assert sum(int(row.split(",")[2]) for row in rows) == 1000

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_quantile_monotonicity(self, values):
        s = summarize_values(values)
        ordered = [s.quantiles[p] for p in sorted(s.quantiles)]
        assert ordered == sorted(ordered)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            summarize_values([])


class TestSummarizeBatch:
    # numpy sums in blocks of 8 and 128 values, so sizes on either side of both
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
    def test_each_row_is_the_one_metric_summary_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        commitments = {"A": 150, "C": 40}
        results = []
        for run in range(n):
            volumes = {s: int(v) for s, v in zip(commitments, rng.integers(0, 400, size=2))}
            results.append(RunResult(
                run_index=run,
                terminal_cost=float(rng.lognormal(9.0, 1.5)),
                volumes=volumes,
                utilizations={s: volumes[s] / k for s, k in commitments.items()},
                deviations={s: volumes[s] - k for s, k in commitments.items()},
                n_pr=int(rng.integers(0, 60)),
                n_hl=int(rng.integers(0, 60)),
                n_po=int(rng.integers(0, 60)),
                n_rfq={s: int(rng.integers(0, 200)) for s in ("A", "B", "C")},
                in_flight=int(rng.integers(0, 5)),
                empty_draws=int(rng.integers(0, 30)),
            ))
        metrics = {name: [getattr(r, name) for r in results]
                   for name in ("terminal_cost", "n_pr", "n_hl", "n_po", "in_flight", "empty_draws")}
        for s in commitments:
            metrics[f"volume_{s}"] = [r.volumes[s] for r in results]
            metrics[f"deviation_{s}"] = [r.deviations[s] for r in results]
        for s in commitments:
            metrics[f"utilization_{s}"] = [r.utilizations[s] for r in results]
        for s in ("A", "B", "C"):
            metrics[f"n_rfq_{s}"] = [r.n_rfq[s] for r in results]

        summaries = summarize_batch(results)
        assert list(summaries) == list(metrics)
        for name, values in metrics.items():
            # repr tells every float apart, -0.0 from 0.0 too
            assert repr(summaries[name]) == repr(summarize_values(values)), name

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            summarize_batch([])


class TestLocalMaxima:
    def test_flat_has_no_peak(self):
        assert count_local_maxima([3, 3, 3, 3]) == 0

    def test_single_peak(self):
        assert count_local_maxima([0, 2, 5, 2, 0]) == 1

    def test_two_peaks(self):
        assert count_local_maxima([0, 5, 0, 4, 0]) == 2

    def test_smoothing_removes_jitter(self):
        jagged = [10, 11, 10, 11, 10, 11, 10]
        assert count_local_maxima(jagged, smooth_window=7) <= 1

    def test_plateau_counts_once(self):
        assert count_local_maxima([0, 4, 4, 4, 0]) == 1


class TestRunLevelConsistency:
    def test_deviation_identity_and_cost_additivity(self, paper_scenario):
        # d = K*(u - 1) and terminal cost equals the sum of order costs exactly
        from rto_sim.engine import PO_GENERATION, run_once

        out = run_once((paper_scenario,), 0, 42)[0]
        result = out.result
        commitments = {c.supplier_id: c.volume_commitment for c in paper_scenario.contracts}
        for supplier, u in result.utilizations.items():
            k = commitments[supplier]
            assert result.deviations[supplier] == pytest.approx(k * (u - 1.0), abs=1e-9)
        total = sum(rec.payload.total_cost for rec in out.log if rec.kind == PO_GENERATION)
        assert total == result.terminal_cost  # exact float equality, no drift


def test_summaries_leave_numpy_ma_unimported():
    # np.quantile's first call imports numpy.ma, some 9 ms of every command
    code = ("import sys\n"
            "from rto_sim.metrics import RunResult, summarize_batch\n"
            "summarize_batch([RunResult(i, 1.5 * i, {'A': i}, {'A': i / 3}, {'A': i - 3}, 1, 1, 1, {'A': 1}, 0, 0)\n"
            "                 for i in range(9)])\n"
            "assert 'numpy.ma' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})
