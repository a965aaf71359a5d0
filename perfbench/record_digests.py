"""Record the output digests of every workload variant into digests.json.

    python3 perfbench/record_digests.py

Run from the root of a source checkout.  Each variant runs once at its
workload's end-to-end parallelism; a variant whose outputs fail a check is
not recorded.  Re-record only when a change alters the outputs on purpose.
"""

from __future__ import annotations

import json
import sys

import run as bench
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in WORKLOADS.items():
        for variant in range(VARIANTS):
            run = bench.Run(name, variant, 0)
            run.command("record", workload.parallelism)
            if run.failed or run.problems:
                print(f"{name} variant {variant}: not recorded: {run.problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(variant)] = run.digests["record"]
            print(f"{name} variant {variant}: {len(run.digests['record'])} digests", flush=True)
    bench.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
