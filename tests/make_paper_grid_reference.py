"""Write tests/data/paper_grid_reference.json, the paper grid's metric distributions over a large run.

    PYTHONPATH=src python tests/make_paper_grid_reference.py

Each cell of the paper grid (naive and dynamic at slopes 0, 0.01 and 0.1 on
paper_s5) is replicated 20,000 times at a master seed that no test uses, and
each metric that `summarize_batch` summarizes gets its mean, SD (n - 1), p5,
p50 and p95.  `test_acceptance.py` holds the 1,000-run grid to these figures,
so a change that only redraws the random streams passes, and a change to the
model does not.  Making the file again changes the reference, and needs a
reason of its own.  Runs are serial and keep only the metrics, so memory stays
small; it takes about a minute per 20,000 grid-runs on one core.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from oracles import batch_metrics
from rto_sim.cli import load_scenario
from rto_sim.engine import run_once

RUNS = 20_000
MASTER_SEED = 90_001
SLOPES = (("0", 0.0), ("0.01", 0.01), ("0.1", 0.1))
OUT = Path(__file__).resolve().parent / "data" / "paper_grid_reference.json"
COMMAND = "PYTHONPATH=src python tests/make_paper_grid_reference.py"


def main() -> int:
    base = load_scenario("paper_s5.json").scenario
    names, cells = [], []
    for policy in ("naive", "dynamic"):
        for token, slope in SLOPES:
            names.append(f"{policy}_slope{token}")
            cells.append(replace(base, policy=replace(base.policy, kind=policy),
                                 spot=replace(base.spot, competition_slope=slope)))
    metrics = None
    table = None  # (cell, metric, run)
    for run_index in range(RUNS):
        for c, output in enumerate(run_once(cells, run_index, MASTER_SEED, collect_log=False)):
            row = batch_metrics([output.result])
            if table is None:
                metrics = list(row)
                table = np.empty((len(cells), len(metrics), RUNS))
            table[c, :, run_index] = [values[0] for values in row.values()]
    means, sds = table.mean(axis=2), table.std(axis=2, ddof=1)
    quantiles = np.quantile(table, [0.05, 0.5, 0.95], axis=2)
    doc = {
        "command": COMMAND,
        "scenario": "paper_s5.json",
        "runs": RUNS,
        "master_seed": MASTER_SEED,
        "cells": {
            name: {metric: {"mean": means[c, m], "sd": sds[c, m], "p5": quantiles[0, c, m],
                            "p50": quantiles[1, c, m], "p95": quantiles[2, c, m]}
                   for m, metric in enumerate(metrics)}
            for c, name in enumerate(names)
        },
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
