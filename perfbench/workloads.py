"""Benchmark workloads: seeded inputs and the CLI command each one runs.

A workload seed selects one of VARIANTS input variants, so every seed can be
checked byte-for-byte against output digests recorded with the benchmark
(``digests.json``).  The program receives only the generated inputs: a CLI
argument list and, for wide-market, a scenario file written under the
benchmark's own work directory.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "work"
PAPER_SCENARIO = "paper_s5.json"  # bundled with the package

WIDE_SUPPLIERS = 6
CONTRACTS_PER_PRODUCT = (1, 1, 2, 0)  # the uncontracted product makes naive quote too


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI subcommand, then its options; the scenario goes between
    cells: int  # (policy, slope) cells the command runs
    runs: int  # replications per cell
    parallelism: int  # of the end-to-end command

    @property
    def why(self) -> str:
        """Why the workload was chosen, as BENCHMARK.json records it."""
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        return next(w["why"] for w in spec["workloads"] if w["name"] == self.name)


# Run counts are sized so one command takes a few seconds on a 2-core host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-grid", ("compare", "--policies", "naive,dynamic", "--slopes", "0,0.01,0.1"),
                 cells=6, runs=100, parallelism=2),
        Workload("wide-market", ("compare", "--policies", "naive,dynamic", "--slopes", "0,0.05"),
                 cells=4, runs=60, parallelism=1),
        Workload("event-export", ("run", "--export-events"), cells=1, runs=250, parallelism=1),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one workload variant hands to the program."""

    workload: Workload
    variant: int
    scenario: str  # path or bundled name, as given to the CLI
    scenario_path: Path  # file the scenario is read from
    master_seed: int

    def argv(self, out_dir: Path, parallelism: int) -> list[str]:
        subcommand, *options = self.workload.command
        return [subcommand, self.scenario, *options, "--runs", str(self.workload.runs),
                "--seed", str(self.master_seed), "--parallelism", str(parallelism),
                "--out", str(out_dir)]

    @property
    def replications(self) -> int:
        return self.workload.cells * self.workload.runs


def make_inputs(name: str, seed: int, src_dir: Path) -> Inputs:
    variant = seed % VARIANTS
    master_seed = 1000 + variant
    if name == "wide-market":
        path = write_wide_market(variant)
        return Inputs(WORKLOADS[name], variant, str(path), path, master_seed)
    bundled = src_dir / "rto_sim" / "scenarios" / PAPER_SCENARIO
    return Inputs(WORKLOADS[name], variant, PAPER_SCENARIO, bundled, master_seed)


def wide_market_doc(variant: int) -> dict:
    """One category, 6 eligible suppliers, 4 products, constant hazards, per_supplier_total.

    The variant draws prices, seasonal terms, commitments and which suppliers
    hold the contracts.  The shape stays fixed (contracts per product, stock
    cycle, demand rate) so every variant costs the solver about the same.
    """
    rng = random.Random(f"wide-market:{variant}")
    suppliers = [f"S{i}" for i in range(1, WIDE_SUPPLIERS + 1)]
    products = [f"W{i}" for i in range(1, len(CONTRACTS_PER_PRODUCT) + 1)]
    horizon = 180.0

    rates_by_supplier: dict[str, dict[str, float]] = {}
    for product, n_contracts in zip(products, CONTRACTS_PER_PRODUCT):
        for supplier in rng.sample(suppliers, n_contracts):
            rates_by_supplier.setdefault(supplier, {})[product] = round(rng.uniform(9.0, 12.0), 3)
    contracts = [
        {"supplier_id": s, "product_rates": rates, "lead_time": 2.0, "valid_from": 0.0,
         "valid_until": horizon, "volume_commitment": rng.randint(40, 160)}
        for s, rates in sorted(rates_by_supplier.items())
    ]
    catalog_products = [{"id": p, "family_id": "wide", "baseline_stock": 100,
                         "depletion_rate": 2.5} for p in products]
    vessels = [{"id": f"V{i}", "hazards": {"stores": {
        "baseline": {"kind": "constant", "rate": 0.125}}}} for i in (1, 2)]
    spot_rates = [
        {"product_id": p, "supplier_id": s, "baseline": round(rng.uniform(8.5, 12.5), 3),
         "amplitude": round(rng.uniform(0.0, 2.0), 3),
         "phase": round(rng.uniform(-math.pi, math.pi), 4)}
        for p in products for s in suppliers
    ]
    return {
        "schema_version": 1,
        "horizon_days": horizon,
        "catalog": {"categories": [{"id": "stores", "eligible_suppliers": suppliers,
                                    "products": catalog_products}]},
        "vessels": vessels,
        "suppliers": [{"id": s, "spot_lead_time": 3.0} for s in suppliers],
        "contracts": contracts,
        "spot": {"period": 365.0, "noise_sd": 1.0, "competition_slope": 0.0,
                 "competition_basis": "per_supplier_total", "rates": spot_rates},
        "policy": {"kind": "naive", "po_overhead": 10.0},
    }


def dynamic_assignment_space(doc: dict) -> int:
    """Worst-case solver assignment space under `dynamic`: all items requested, all contracts active."""
    eligible = len(doc["catalog"]["categories"][0]["eligible_suppliers"])
    space = 1
    for product in doc["catalog"]["categories"][0]["products"]:
        contracted = sum(product["id"] in c["product_rates"] for c in doc["contracts"])
        space *= contracted + eligible
    return space


def write_wide_market(variant: int) -> Path:
    """Write the variant's scenario and a sidecar recording why it was chosen; return its path."""
    from rto_sim.cli import load_scenario
    from rto_sim.policy import ASSIGNMENT_ENUMERATION_LIMIT

    doc = wide_market_doc(variant)
    space = dynamic_assignment_space(doc)
    if space >= ASSIGNMENT_ENUMERATION_LIMIT:
        raise ValueError(f"wide-market variant {variant}: assignment space {space} "
                         f"reaches the solver bound {ASSIGNMENT_ENUMERATION_LIMIT}")
    out = WORK_DIR / "wide-market"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"scenario-v{variant}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    load_scenario(path)  # parse and validate exactly as the CLI will
    meta = {"variant": variant, "why": WORKLOADS["wide-market"].why,
            "dynamic_assignment_space": space,
            "assignment_enumeration_limit": ASSIGNMENT_ENUMERATION_LIMIT}
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return path
