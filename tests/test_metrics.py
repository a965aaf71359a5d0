"""Accounting and batch-summary tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rto_sim.domain import AllocatedItem, Allocation
from rto_sim.metrics import (
    ComplianceLedger,
    count_local_maxima,
    record_allocation,
    summarize_values,
    utilization,
)


def allocation(items, overhead=0.0):
    return Allocation(pr_id="r", items=items,
                      po_count=len({a.supplier_id for a in items.values()}),
                      overhead_cost=overhead)


class TestRecordAllocation:
    def test_spot_only_leaves_volumes_unchanged(self):
        ledger = ComplianceLedger(commitments={"A": 75}, volumes={"A": 0})
        delta = record_allocation(ledger, allocation(
            {"P1": AllocatedItem("A", 9.5, 4, "spot")}
        ))
        assert ledger.volumes == {"A": 0}
        assert delta == pytest.approx(38.0)

    def test_contract_volume_accrues(self):
        ledger = ComplianceLedger(commitments={"C": 150}, volumes={"C": 0})
        record_allocation(ledger, allocation(
            {"P3": AllocatedItem("C", 12.0, 40, "contract")}
        ))
        assert ledger.volumes["C"] == 40

    def test_split_charges_exactly_one_overhead(self):
        ledger = ComplianceLedger(commitments={}, volumes={})
        delta = record_allocation(ledger, allocation(
            {
                "P1": AllocatedItem("A", 5.0, 1, "spot"),
                "P2": AllocatedItem("B", 5.0, 1, "spot"),
            },
            overhead=10.0,
        ))
        assert delta == pytest.approx(20.0)


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
    def test_single_run_degenerate(self):
        s = summarize_values([42.0])
        assert all(q == 42.0 for q in s.quantiles.values())
        assert s.std == 0.0
        assert s.histogram == ((42.0, 42.0, 1),)

    def test_two_runs(self):
        s = summarize_values([10.0, 20.0])
        assert s.mean == 15.0
        assert s.quantiles[50] == 15.0

    def test_histogram_covers_all_values(self):
        values = list(range(1000))
        s = summarize_values(values, bins=50)
        assert len(s.histogram) == 50
        assert sum(c for _, _, c in s.histogram) == 1000

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_quantile_monotonicity(self, values):
        s = summarize_values(values)
        ordered = [s.quantiles[p] for p in sorted(s.quantiles)]
        assert ordered == sorted(ordered)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            summarize_values([])


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
