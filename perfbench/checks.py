"""Correctness checks and digests of one CLI command's output directory.

A replication fails when the command fails or when its ``runs.csv`` row, or
its exported event log, breaks one of these checks:

- ``n_po <= n_hl <= n_pr``;
- ``in_flight == n_pr - n_po``;
- ``terminal_cost`` is finite and positive;
- ``u_s == V_s / commitment`` for every supplier with a commitment, with the
  commitments summed from the scenario file itself;
- ``rto_sim.engine.audit_event_log`` finds no violation in ``events_<run>.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EVENTS_KEY = "events_*.csv"


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # relative path -> sha256

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def commitments(scenario_path: Path) -> dict[str, int]:
    doc = json.loads(scenario_path.read_text(encoding="utf-8"))
    totals: dict[str, int] = {}
    for contract in doc["contracts"]:
        supplier = contract["supplier_id"]
        totals[supplier] = totals.get(supplier, 0) + contract["volume_commitment"]
    return totals


def _row_problem(row: dict[str, str], committed: dict[str, int]) -> str | None:
    n_pr, n_hl, n_po = int(row["n_pr"]), int(row["n_hl"]), int(row["n_po"])
    if not n_po <= n_hl <= n_pr:
        return f"counts violate n_po <= n_hl <= n_pr: {n_po}, {n_hl}, {n_pr}"
    if int(row["in_flight"]) != n_pr - n_po:
        return f"in_flight {row['in_flight']} != n_pr - n_po = {n_pr - n_po}"
    cost = float(row["terminal_cost"])
    if not (math.isfinite(cost) and cost > 0):
        return f"terminal_cost {row['terminal_cost']} is not finite and positive"
    for supplier, commitment in committed.items():
        if commitment > 0:
            expected = format(int(row[f"V_{supplier}"]) / commitment, ".9g")
            if row[f"u_{supplier}"] != expected:
                return f"u_{supplier} {row[f'u_{supplier}']} != V/commitment {expected}"
    return None


def _events_problems(path: Path) -> list[str]:
    """Audit one exported event log, read back into the engine's record type."""
    from rto_sim.domain import EventRecord
    from rto_sim.engine import PR_HANDLING, HandlingRecord, audit_event_log

    records = []
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            payload = None
            if row["kind"] == PR_HANDLING:
                fields = dict(part.split("=", 1) for part in row["detail"].split(";"))
                payload = HandlingRecord(
                    contract_terms={},
                    rfq_items=tuple(filter(None, fields["rfq_items"].split("|"))),
                    rfq_suppliers=tuple(filter(None, fields["rfq_suppliers"].split("|"))),
                )
            records.append(EventRecord(
                kind=row["kind"], time=float(row["time"]), pr_id=row["pr_id"] or None,
                vessel_id=row["vessel_id"] or None, category_id=row["category_id"] or None,
                supplier_id=row["supplier_id"] or None, payload=payload))
    return audit_event_log(records)


def check_outputs(out_dir: Path, rc: int, cells: int, runs: int, scenario_path: Path,
                  events: bool) -> CheckResult:
    result = CheckResult(attempted=cells * runs)
    if rc != 0:
        result.fail(cells * runs, f"command exited with {rc}")
        return result
    result.files = digest_files(out_dir)
    run_tables = sorted(out_dir.rglob("runs.csv"))
    if len(run_tables) != cells:
        result.fail(cells * runs, f"expected {cells} runs.csv files, found {len(run_tables)}")
        return result
    committed = commitments(scenario_path)
    for table in run_tables:
        with table.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["run_index"]) for r in rows] != list(range(runs)):
            result.fail(runs, f"{table.relative_to(out_dir)}: run indices are not 0..{runs - 1}")
            continue
        for row in rows:
            problem = _row_problem(row, committed)
            if problem is None and events:
                log = table.parent / f"events_{row['run_index']}.csv"
                violations = _events_problems(log) if log.exists() else [f"{log.name} missing"]
                problem = "; ".join(violations[:3]) or None
            if problem is not None:
                result.fail(1, f"{table.relative_to(out_dir)} run {row['run_index']}: {problem}")
    return result


def digest_files(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, by path relative to `out_dir`."""
    return {str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def digest_summary(files: dict[str, str]) -> dict[str, str]:
    """Digests as recorded: event logs fold into one digest over their per-file digests."""
    summary = {k: v for k, v in files.items() if not Path(k).name.startswith("events_")}
    events = sorted((k for k in files if Path(k).name.startswith("events_")),
                    key=lambda k: int(Path(k).stem.split("_")[1]))
    if events:
        joined = "".join(f"{k} {files[k]}\n" for k in events)
        summary[EVENTS_KEY] = hashlib.sha256(joined.encode()).hexdigest()
    return summary


def digest_mismatches(actual: dict[str, str], recorded: dict[str, str]) -> list[str]:
    names = sorted(set(actual) | set(recorded))
    return [name for name in names if actual.get(name) != recorded.get(name)]
