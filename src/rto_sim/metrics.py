"""Cost, counting-process, and contract-compliance accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import Allocation

__all__ = [
    "RunResult",
    "record_allocation",
    "utilization",
    "DistributionSummary",
    "summarize_batch",
    "QUANTILE_LEVELS",
]

QUANTILE_LEVELS = (1, 5, 25, 50, 75, 95, 99)
_LEVELS = np.array(QUANTILE_LEVELS, dtype=float) / 100.0


def record_allocation(volumes: dict[str, int], allocation: Allocation) -> float:
    """Add one finalized order's contract units to `volumes` (supplier -> units); returns its cost.

    Only contract-provenance items count toward committed volume: spot
    allocations to a supplier who also holds a contract do not fulfil it.
    """
    for item in allocation.items.values():
        if item.provenance == "contract":
            volumes[item.supplier_id] = volumes.get(item.supplier_id, 0) + item.quantity
    return allocation.total_cost


def utilization(volume: int, commitment: int) -> float:
    """Fraction of the committed volume actually allocated under contract."""
    if commitment <= 0:
        raise ValueError("utilization undefined for zero commitment")
    return volume / commitment


@dataclass(frozen=True)
class RunResult:
    """Terminal metrics of one replication."""

    run_index: int
    terminal_cost: float
    volumes: Mapping[str, int]  # contracted suppliers only
    utilizations: Mapping[str, float]  # absent where commitment is zero
    deviations: Mapping[str, int]  # volume - commitment
    n_pr: int
    n_hl: int
    n_po: int
    n_rfq: Mapping[str, int]  # responses per supplier
    in_flight: int
    empty_draws: int


@dataclass(frozen=True)
class DistributionSummary:
    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    quantiles: Mapping[int, float]  # percent level -> value


def _linear_quantiles(ordered: np.ndarray) -> np.ndarray:
    """`np.quantile(ordered, QUANTILE_LEVELS / 100, axis=1).T` for rows sorted ascending.

    numpy's default "linear" rule in numpy's own float operations, so its bits on rows without
    NaN; np.quantile's first call in a process imports numpy.ma, some 9 ms of a command.
    """
    n = ordered.shape[1]
    virtual = (n - 1) * _LEVELS
    # like np.quantile, a position at the last value or past it reads the last value from the end
    last = virtual >= n - 1
    below = np.where(last, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(last, -1, below + 1)
    gamma = virtual - below
    a, b = ordered[:, below], ordered[:, above]
    return np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)


def summarize_batch(results: Sequence[RunResult]) -> dict[str, DistributionSummary]:
    """Distribution summaries for every numeric per-run metric."""
    if not results:
        raise ValueError("cannot summarize an empty batch")
    metrics: dict[str, list[float]] = {
        "terminal_cost": [r.terminal_cost for r in results],
        "n_pr": [r.n_pr for r in results],
        "n_hl": [r.n_hl for r in results],
        "n_po": [r.n_po for r in results],
        "in_flight": [r.in_flight for r in results],
        "empty_draws": [r.empty_draws for r in results],
    }
    first = results[0]
    for supplier_id in sorted(first.volumes):
        metrics[f"volume_{supplier_id}"] = [r.volumes[supplier_id] for r in results]
        metrics[f"deviation_{supplier_id}"] = [r.deviations[supplier_id] for r in results]
    for supplier_id in sorted(first.utilizations):
        metrics[f"utilization_{supplier_id}"] = [r.utilizations[supplier_id] for r in results]
    for supplier_id in sorted(first.n_rfq):
        metrics[f"n_rfq_{supplier_id}"] = [r.n_rfq[supplier_id] for r in results]
    # one (metric, run) array reduced along each row: every row is contiguous, so
    # each statistic is the one numpy gives that metric's values alone
    table = np.array(list(metrics.values()), dtype=float)
    columns = zip(table.mean(axis=1).tolist(), table.std(axis=1).tolist(), table.min(axis=1).tolist(),
                  table.max(axis=1).tolist(), _linear_quantiles(np.sort(table, axis=1)).tolist())
    return {name: DistributionSummary(len(results), mean, std, lo, hi, dict(zip(QUANTILE_LEVELS, quantiles)))
            for name, (mean, std, lo, hi, quantiles) in zip(metrics, columns)}
