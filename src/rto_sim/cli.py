"""Scenario ingestion, batch orchestration, and bit-stable result emission.

Scenario files are versioned JSON documents (see README for the schema).
Outputs are UTF-8, LF-terminated CSV/JSON with numbers rendered at nine
significant digits, so a fixed (scenario, seed, runs) triple always produces
byte-identical files regardless of parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .domain import (
    Catalog,
    Category,
    Contract,
    DelayConfig,
    PolicyKind,
    Product,
    Scenario,
    ScenarioValidationError,
    SpotModel,
    SpotRate,
    Supplier,
    Vessel,
    validate_scenario,
)
from .engine import (
    PO_GENERATION,
    PR_GENERATION,
    PR_HANDLING,
    RFQ_RESPONSE,
    BatchResult,
    run_batch,
)
from .hazards import ConstantBaseline, CovariateTerm, HazardSpec, WeibullBaseline
from .metrics import DistributionSummary, RunResult, summarize_batch

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioFormatError",
    "RunsConfig",
    "OutputConfig",
    "ScenarioFile",
    "load_scenario",
    "parse_scenario",
    "dump_scenario",
    "bundled_scenario_path",
    "cmd_run",
    "cmd_compare",
    "cmd_validate",
    "main",
]

SCHEMA_VERSION = 1
ENV_SEED = "RTO_SIM_SEED"


class ScenarioFormatError(ValueError):
    """Scenario document is malformed; the message carries the field path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class RunsConfig:
    count: int = 100
    master_seed: int | None = None  # None falls back to RTO_SIM_SEED, then 0
    parallelism: int = 1


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    histogram_bins: int = 100
    export_events: bool = False


@dataclass(frozen=True)
class ScenarioFile:
    scenario: Scenario
    runs: RunsConfig = RunsConfig()
    output: OutputConfig = OutputConfig()


def _expect(mapping: Any, path: str) -> dict:
    if not isinstance(mapping, dict):
        raise ScenarioFormatError("expected an object", path)
    return mapping


def _get(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ScenarioFormatError(f"missing required field {key!r}", path)
    return mapping[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError("expected a number", path)
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError("expected an integer", path)
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioFormatError("expected a non-empty string", path)
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError("expected an array", path)
    return value


def _reject_unknown(mapping: dict, allowed: Iterable[str], path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioFormatError(f"unknown field {unknown[0]!r}", path)


def _parse_hazard(doc: Any, path: str) -> HazardSpec:
    doc = _expect(doc, path)
    _reject_unknown(doc, ("baseline", "covariates"), path)
    base_doc = _expect(_get(doc, "baseline", path), f"{path}.baseline")
    kind = _string(_get(base_doc, "kind", f"{path}.baseline"), f"{path}.baseline.kind")
    if kind == "constant":
        _reject_unknown(base_doc, ("kind", "rate"), f"{path}.baseline")
        baseline: ConstantBaseline | WeibullBaseline = ConstantBaseline(
            rate=_number(_get(base_doc, "rate", f"{path}.baseline"), f"{path}.baseline.rate")
        )
    elif kind == "weibull":
        _reject_unknown(base_doc, ("kind", "shape", "scale"), f"{path}.baseline")
        baseline = WeibullBaseline(
            shape=_number(_get(base_doc, "shape", f"{path}.baseline"), f"{path}.baseline.shape"),
            scale=_number(_get(base_doc, "scale", f"{path}.baseline"), f"{path}.baseline.scale"),
        )
    else:
        raise ScenarioFormatError(f"unknown baseline kind {kind!r}", f"{path}.baseline.kind")
    covariates = []
    for i, cov_doc in enumerate(_array(doc.get("covariates", []), f"{path}.covariates")):
        cpath = f"{path}.covariates[{i}]"
        cov_doc = _expect(cov_doc, cpath)
        _reject_unknown(cov_doc, ("coefficient", "amplitude", "period", "phase"), cpath)
        covariates.append(CovariateTerm(
            coefficient=_number(_get(cov_doc, "coefficient", cpath), f"{cpath}.coefficient"),
            amplitude=_number(_get(cov_doc, "amplitude", cpath), f"{cpath}.amplitude"),
            period=_number(_get(cov_doc, "period", cpath), f"{cpath}.period"),
            phase=_number(cov_doc.get("phase", 0.0), f"{cpath}.phase"),
        ))
    return HazardSpec(baseline=baseline, covariates=tuple(covariates))


def parse_scenario(doc: Any) -> ScenarioFile:
    """Build a ScenarioFile from a decoded JSON document; errors carry field paths."""
    doc = _expect(doc, "")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"unsupported schema version {version!r}", "schema_version")
    _reject_unknown(doc, (
        "schema_version", "horizon_days", "catalog", "vessels", "suppliers", "contracts",
        "spot", "policy", "delays", "runs", "output", "hazard_window_width",
    ), "")

    horizon = _number(_get(doc, "horizon_days", ""), "horizon_days")

    catalog_doc = _expect(_get(doc, "catalog", ""), "catalog")
    _reject_unknown(catalog_doc, ("categories",), "catalog")
    categories = []
    for c, cat_doc in enumerate(_array(_get(catalog_doc, "categories", "catalog"), "catalog.categories")):
        cpath = f"catalog.categories[{c}]"
        cat_doc = _expect(cat_doc, cpath)
        _reject_unknown(cat_doc, ("id", "products", "eligible_suppliers"), cpath)
        products = []
        for p, prod_doc in enumerate(_array(_get(cat_doc, "products", cpath), f"{cpath}.products")):
            ppath = f"{cpath}.products[{p}]"
            prod_doc = _expect(prod_doc, ppath)
            _reject_unknown(prod_doc, ("id", "family_id", "baseline_stock", "depletion_rate"), ppath)
            products.append(Product(
                id=_string(_get(prod_doc, "id", ppath), f"{ppath}.id"),
                family_id=_string(_get(prod_doc, "family_id", ppath), f"{ppath}.family_id"),
                baseline_stock=_integer(_get(prod_doc, "baseline_stock", ppath), f"{ppath}.baseline_stock"),
                depletion_rate=_number(_get(prod_doc, "depletion_rate", ppath), f"{ppath}.depletion_rate"),
            ))
        categories.append(Category(
            id=_string(_get(cat_doc, "id", cpath), f"{cpath}.id"),
            products=tuple(products),
            eligible_suppliers=tuple(
                _string(s, f"{cpath}.eligible_suppliers[{i}]")
                for i, s in enumerate(_array(_get(cat_doc, "eligible_suppliers", cpath),
                                             f"{cpath}.eligible_suppliers"))
            ),
        ))

    vessels = []
    for v, vessel_doc in enumerate(_array(_get(doc, "vessels", ""), "vessels")):
        vpath = f"vessels[{v}]"
        vessel_doc = _expect(vessel_doc, vpath)
        _reject_unknown(vessel_doc, ("id", "hazards"), vpath)
        hazards_doc = _expect(_get(vessel_doc, "hazards", vpath), f"{vpath}.hazards")
        vessels.append(Vessel(
            id=_string(_get(vessel_doc, "id", vpath), f"{vpath}.id"),
            hazards={
                category_id: _parse_hazard(spec_doc, f"{vpath}.hazards[{category_id}]")
                for category_id, spec_doc in sorted(hazards_doc.items())
            },
        ))

    suppliers = []
    for s, sup_doc in enumerate(_array(_get(doc, "suppliers", ""), "suppliers")):
        spath = f"suppliers[{s}]"
        sup_doc = _expect(sup_doc, spath)
        _reject_unknown(sup_doc, ("id", "spot_lead_time"), spath)
        suppliers.append(Supplier(
            id=_string(_get(sup_doc, "id", spath), f"{spath}.id"),
            spot_lead_time=_number(sup_doc.get("spot_lead_time", 3.0), f"{spath}.spot_lead_time"),
        ))

    contracts = []
    for i, con_doc in enumerate(_array(doc.get("contracts", []), "contracts")):
        ipath = f"contracts[{i}]"
        con_doc = _expect(con_doc, ipath)
        _reject_unknown(con_doc, ("supplier_id", "product_rates", "lead_time",
                                  "valid_from", "valid_until", "volume_commitment"), ipath)
        rates_doc = _expect(_get(con_doc, "product_rates", ipath), f"{ipath}.product_rates")
        contracts.append(Contract(
            supplier_id=_string(_get(con_doc, "supplier_id", ipath), f"{ipath}.supplier_id"),
            product_rates={
                pid: _number(rate, f"{ipath}.product_rates[{pid}]")
                for pid, rate in sorted(rates_doc.items())
            },
            lead_time=_number(con_doc.get("lead_time", 2.0), f"{ipath}.lead_time"),
            valid_from=_number(_get(con_doc, "valid_from", ipath), f"{ipath}.valid_from"),
            valid_until=_number(_get(con_doc, "valid_until", ipath), f"{ipath}.valid_until"),
            volume_commitment=_integer(con_doc.get("volume_commitment", 0), f"{ipath}.volume_commitment"),
        ))

    spot_doc = _expect(_get(doc, "spot", ""), "spot")
    _reject_unknown(spot_doc, ("period", "noise_sd", "competition_slope",
                               "competition_basis", "rates"), "spot")
    spot_rates: dict[tuple[str, str], SpotRate] = {}
    for r, rate_doc in enumerate(_array(_get(spot_doc, "rates", "spot"), "spot.rates")):
        rpath = f"spot.rates[{r}]"
        rate_doc = _expect(rate_doc, rpath)
        _reject_unknown(rate_doc, ("product_id", "supplier_id", "baseline", "amplitude", "phase"), rpath)
        key = (
            _string(_get(rate_doc, "product_id", rpath), f"{rpath}.product_id"),
            _string(_get(rate_doc, "supplier_id", rpath), f"{rpath}.supplier_id"),
        )
        if key in spot_rates:
            raise ScenarioFormatError(f"duplicate spot rate for {key}", rpath)
        spot_rates[key] = SpotRate(
            baseline=_number(_get(rate_doc, "baseline", rpath), f"{rpath}.baseline"),
            amplitude=_number(rate_doc.get("amplitude", 0.0), f"{rpath}.amplitude"),
            phase=_number(rate_doc.get("phase", 0.0), f"{rpath}.phase"),
        )
    spot = SpotModel(
        rates=spot_rates,
        period=_number(spot_doc.get("period", 365.0), "spot.period"),
        noise_sd=_number(spot_doc.get("noise_sd", 1.0), "spot.noise_sd"),
        competition_slope=_number(spot_doc.get("competition_slope", 0.0), "spot.competition_slope"),
        competition_basis=_string(spot_doc.get("competition_basis", "per_item"), "spot.competition_basis"),
    )

    policy_doc = _expect(doc.get("policy", {"kind": "naive"}), "policy")
    _reject_unknown(policy_doc, ("kind", "po_overhead"), "policy")
    policy = PolicyKind(
        kind=_string(_get(policy_doc, "kind", "policy"), "policy.kind"),
        po_overhead=_number(policy_doc.get("po_overhead", 10.0), "policy.po_overhead"),
    )

    delays_doc = _expect(doc.get("delays", {}), "delays")
    _reject_unknown(delays_doc, ("creation_to_approval", "approval_to_handling",
                                 "rfq_response", "handling_to_po", "rfq_response_overrides"), "delays")
    overrides_doc = _expect(delays_doc.get("rfq_response_overrides", {}), "delays.rfq_response_overrides")
    delays = DelayConfig(
        creation_to_approval=_number(delays_doc.get("creation_to_approval", 2.0), "delays.creation_to_approval"),
        approval_to_handling=_number(delays_doc.get("approval_to_handling", 5.0), "delays.approval_to_handling"),
        rfq_response=_number(delays_doc.get("rfq_response", 2.5), "delays.rfq_response"),
        handling_to_po=_number(delays_doc.get("handling_to_po", 0.1), "delays.handling_to_po"),
        rfq_response_overrides={
            sid: _number(mean, f"delays.rfq_response_overrides[{sid}]")
            for sid, mean in sorted(overrides_doc.items())
        },
    )

    window = doc.get("hazard_window_width")
    if window is not None:
        window = _number(window, "hazard_window_width")

    scenario = Scenario(
        horizon=horizon,
        catalog=Catalog(categories=tuple(categories)),
        vessels=tuple(vessels),
        suppliers=tuple(suppliers),
        contracts=tuple(contracts),
        spot=spot,
        policy=policy,
        delays=delays,
        hazard_window_width=window,
    )

    runs_doc = _expect(doc.get("runs", {}), "runs")
    _reject_unknown(runs_doc, ("count", "master_seed", "parallelism"), "runs")
    runs = RunsConfig(
        count=_integer(runs_doc.get("count", 100), "runs.count"),
        master_seed=(None if runs_doc.get("master_seed") is None
                     else _integer(runs_doc["master_seed"], "runs.master_seed")),
        parallelism=_integer(runs_doc.get("parallelism", 1), "runs.parallelism"),
    )
    if runs.count < 1:
        raise ScenarioFormatError("runs.count must be at least 1", "runs.count")
    if runs.parallelism < 1:
        raise ScenarioFormatError("runs.parallelism must be at least 1", "runs.parallelism")

    output_doc = _expect(doc.get("output", {}), "output")
    _reject_unknown(output_doc, ("directory", "histogram_bins", "export_events"), "output")
    bins = _integer(output_doc.get("histogram_bins", 100), "output.histogram_bins")
    if bins < 1:
        raise ScenarioFormatError("output.histogram_bins must be at least 1", "output.histogram_bins")
    export = output_doc.get("export_events", False)
    if not isinstance(export, bool):
        raise ScenarioFormatError("expected a boolean", "output.export_events")
    output = OutputConfig(
        directory=_string(output_doc.get("directory", "out"), "output.directory"),
        histogram_bins=bins,
        export_events=export,
    )

    return ScenarioFile(scenario=scenario, runs=runs, output=output)


def dump_scenario(sf: ScenarioFile) -> dict:
    """Inverse of parse_scenario: a JSON-ready document that parses back equal."""
    scenario = sf.scenario

    def hazard_doc(spec: HazardSpec) -> dict:
        if isinstance(spec.baseline, ConstantBaseline):
            baseline: dict[str, Any] = {"kind": "constant", "rate": spec.baseline.rate}
        else:
            baseline = {"kind": "weibull", "shape": spec.baseline.shape, "scale": spec.baseline.scale}
        doc: dict[str, Any] = {"baseline": baseline}
        if spec.covariates:
            doc["covariates"] = [
                {"coefficient": c.coefficient, "amplitude": c.amplitude,
                 "period": c.period, "phase": c.phase}
                for c in spec.covariates
            ]
        return doc

    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "horizon_days": scenario.horizon,
        "catalog": {
            "categories": [
                {
                    "id": c.id,
                    "eligible_suppliers": list(c.eligible_suppliers),
                    "products": [
                        {"id": p.id, "family_id": p.family_id,
                         "baseline_stock": p.baseline_stock, "depletion_rate": p.depletion_rate}
                        for p in c.products
                    ],
                }
                for c in scenario.catalog.categories
            ]
        },
        "vessels": [
            {"id": v.id, "hazards": {cid: hazard_doc(spec) for cid, spec in sorted(v.hazards.items())}}
            for v in scenario.vessels
        ],
        "suppliers": [
            {"id": s.id, "spot_lead_time": s.spot_lead_time} for s in scenario.suppliers
        ],
        "contracts": [
            {
                "supplier_id": c.supplier_id,
                "product_rates": dict(sorted(c.product_rates.items())),
                "lead_time": c.lead_time,
                "valid_from": c.valid_from,
                "valid_until": c.valid_until,
                "volume_commitment": c.volume_commitment,
            }
            for c in scenario.contracts
        ],
        "spot": {
            "period": scenario.spot.period,
            "noise_sd": scenario.spot.noise_sd,
            "competition_slope": scenario.spot.competition_slope,
            "competition_basis": scenario.spot.competition_basis,
            "rates": [
                {"product_id": pid, "supplier_id": sid,
                 "baseline": rate.baseline, "amplitude": rate.amplitude, "phase": rate.phase}
                for (pid, sid), rate in sorted(scenario.spot.rates.items())
            ],
        },
        "policy": {"kind": scenario.policy.kind, "po_overhead": scenario.policy.po_overhead},
        "delays": {
            "creation_to_approval": scenario.delays.creation_to_approval,
            "approval_to_handling": scenario.delays.approval_to_handling,
            "rfq_response": scenario.delays.rfq_response,
            "handling_to_po": scenario.delays.handling_to_po,
            "rfq_response_overrides": dict(sorted(scenario.delays.rfq_response_overrides.items())),
        },
        "runs": {"count": sf.runs.count, "parallelism": sf.runs.parallelism},
        "output": {
            "directory": sf.output.directory,
            "histogram_bins": sf.output.histogram_bins,
            "export_events": sf.output.export_events,
        },
    }
    if sf.runs.master_seed is not None:
        doc["runs"]["master_seed"] = sf.runs.master_seed
    if scenario.hazard_window_width is not None:
        doc["hazard_window_width"] = scenario.hazard_window_width
    return doc


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(str(resources.files("rto_sim").joinpath("scenarios", name)))


def _resolve_scenario_path(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    bundled = bundled_scenario_path(Path(path).name)
    if bundled.exists():
        return bundled
    raise ScenarioFormatError(f"scenario file not found: {path}")


def load_scenario(path: str | Path) -> ScenarioFile:
    """Read, parse, and validate a scenario document."""
    resolved = _resolve_scenario_path(str(path))
    try:
        doc = json.loads(resolved.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}", str(resolved)) from exc
    sf = parse_scenario(doc)
    validate_scenario(sf.scenario)
    return sf


# --- output emission ---------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _round9(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_text(path: Path, lines: Iterable[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def write_runs_csv(path: Path, results: Sequence[RunResult]) -> None:
    first = results[0]
    contracted = sorted(first.volumes)
    rfq_suppliers = sorted(first.n_rfq)
    header = ["run_index", "terminal_cost"]
    for s in contracted:
        header += [f"V_{s}", f"u_{s}", f"d_{s}"]
    header += ["n_pr", "n_hl"]
    header += [f"n_rfq_{s}" for s in rfq_suppliers]
    header += ["n_po", "in_flight", "empty_draws"]
    lines = [",".join(header)]
    for r in results:
        row = [str(r.run_index), _fmt(r.terminal_cost)]
        for s in contracted:
            u = _fmt(r.utilizations[s]) if s in r.utilizations else ""
            row += [str(r.volumes[s]), u, str(r.deviations[s])]
        row += [str(r.n_pr), str(r.n_hl)]
        row += [str(r.n_rfq[s]) for s in rfq_suppliers]
        row += [str(r.n_po), str(r.in_flight), str(r.empty_draws)]
        lines.append(",".join(row))
    _write_text(path, lines)


def write_histogram_csv(path: Path, summary: DistributionSummary) -> None:
    lines = ["bin_left,bin_right,count"]
    for left, right, count in summary.histogram:
        lines.append(f"{_fmt(left)},{_fmt(right)},{count}")
    _write_text(path, lines)


def write_summary_json(path: Path, config: Mapping[str, Any],
                       summaries: Mapping[str, DistributionSummary]) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _round9(dict(config)),
        "metrics": {
            name: _round9({
                "count": s.count,
                "mean": s.mean,
                "std": s.std,
                "min": s.minimum,
                "max": s.maximum,
                "quantiles": {f"p{level}": value for level, value in sorted(s.quantiles.items())},
            })
            for name, s in sorted(summaries.items())
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _event_detail(record) -> str:
    payload = record.payload
    if record.kind == PR_GENERATION:
        return "items=" + "|".join(f"{pid}:{q}" for pid, q in sorted(payload.items.items()))
    if record.kind == PR_HANDLING:
        contracted = "|".join(sorted(payload.contract_terms))
        return (f"contracted={contracted};rfq_items=" + "|".join(payload.rfq_items)
                + ";rfq_suppliers=" + "|".join(payload.rfq_suppliers))
    if record.kind == RFQ_RESPONSE:
        rates = "|".join(f"{pid}:{_fmt(rate)}" for pid, rate in sorted(payload.unit_rates.items()))
        return f"rates={rates};lead_time={_fmt(payload.lead_time)}"
    if record.kind == PO_GENERATION:
        assign = "|".join(f"{pid}:{a.supplier_id}:{a.provenance}:{_fmt(a.unit_cost)}"
                          for pid, a in sorted(payload.items.items()))
        return f"cost={_fmt(payload.total_cost)};po_count={payload.po_count};assign={assign}"
    return ""


def write_events_csv(path: Path, log: Sequence) -> None:
    lines = ["time,kind,pr_id,vessel_id,category_id,supplier_id,detail"]
    for record in log:
        lines.append(",".join([
            _fmt(record.time), record.kind,
            record.pr_id or "", record.vessel_id or "", record.category_id or "",
            record.supplier_id or "", _event_detail(record),
        ]))
    _write_text(path, lines)


def _emit_outputs(out_dir: Path, batch: BatchResult, config: Mapping[str, Any],
                  bins: int, written: list[Path]) -> dict[str, DistributionSummary]:
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = summarize_batch(batch.results, bins=bins)

    runs_path = out_dir / "runs.csv"
    write_runs_csv(runs_path, batch.results)
    written.append(runs_path)

    summary_path = out_dir / "summary.json"
    write_summary_json(summary_path, config, summaries)
    written.append(summary_path)

    hist_metrics = ["terminal_cost"] + sorted(
        name for name in summaries if name.startswith("utilization_")
    )
    for name in hist_metrics:
        hist_path = out_dir / f"histogram_{name}.csv"
        write_histogram_csv(hist_path, summaries[name])
        written.append(hist_path)

    if batch.logs is not None:
        for run_index in sorted(batch.logs):
            events_path = out_dir / f"events_{run_index}.csv"
            write_events_csv(events_path, batch.logs[run_index])
            written.append(events_path)
    return summaries


def _resolve_seed(flag_seed: int | None, file_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    if file_seed is not None:
        return file_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ScenarioFormatError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    return 0


def _apply_overrides(scenario: Scenario, policy: str | None, slope: float | None) -> Scenario:
    if policy is not None:
        scenario = replace(scenario, policy=replace(scenario.policy, kind=policy))
    if slope is not None:
        scenario = replace(scenario, spot=replace(scenario.spot, competition_slope=slope))
    return scenario


def _cleanup(written: list[Path]) -> None:
    for path in written:
        try:
            path.unlink()
        except OSError:
            pass


def cmd_run(args: argparse.Namespace) -> int:
    sf = load_scenario(args.scenario)
    scenario = _apply_overrides(sf.scenario, args.policy, args.competition_slope)
    validate_scenario(scenario)
    n_runs = args.runs if args.runs is not None else sf.runs.count
    seed = _resolve_seed(args.seed, sf.runs.master_seed)
    parallelism = args.parallelism if args.parallelism is not None else sf.runs.parallelism
    out_dir = Path(args.out) if args.out is not None else Path(sf.output.directory)
    export_events = args.export_events or sf.output.export_events

    written: list[Path] = []
    started = time.perf_counter()
    try:
        batch = run_batch((scenario,), n_runs, seed, parallelism=parallelism,
                          collect_logs=export_events)[0]
        config = {
            "policy": scenario.policy.kind,
            "competition_slope": scenario.spot.competition_slope,
            "runs": n_runs,
            "master_seed": seed,
            "horizon_days": scenario.horizon,
            "histogram_bins": sf.output.histogram_bins,
        }
        summaries = _emit_outputs(out_dir, batch, config, sf.output.histogram_bins, written)
    except Exception:
        _cleanup(written)
        raise
    elapsed = time.perf_counter() - started

    mean_util = " ".join(
        f"u_{name.removeprefix('utilization_')}={_fmt(summary.mean)}"
        for name, summary in sorted(summaries.items()) if name.startswith("utilization_")
    )
    print(f"runs={n_runs} policy={scenario.policy.kind} "
          f"slope={_fmt(scenario.spot.competition_slope)} "
          f"mean_cost={_fmt(summaries['terminal_cost'].mean)} {mean_util} "
          f"elapsed={elapsed:.1f}s out={out_dir}")
    return 0


def _slope_token(value: float) -> str:
    return _fmt(value)


def cmd_compare(args: argparse.Namespace) -> int:
    sf = load_scenario(args.scenario)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if args.slopes is not None:
        slope_tokens = [s.strip() for s in args.slopes.split(",") if s.strip()]
        slopes = [(token, float(token)) for token in slope_tokens]
    else:
        slopes = [(_slope_token(sf.scenario.spot.competition_slope),
                   sf.scenario.spot.competition_slope)]
    cells = [(policy, token, value) for policy in policies for token, value in slopes]
    if len(cells) < 2:
        raise ScenarioFormatError("compare needs at least two (policy, slope) cells")

    n_runs = args.runs if args.runs is not None else sf.runs.count
    seed = _resolve_seed(args.seed, sf.runs.master_seed)
    parallelism = args.parallelism if args.parallelism is not None else sf.runs.parallelism
    out_dir = Path(args.out) if args.out is not None else Path(sf.output.directory)
    export_events = args.export_events or sf.output.export_events

    scenarios = [_apply_overrides(sf.scenario, policy, slope) for policy, _, slope in cells]
    for scenario in scenarios:
        validate_scenario(scenario)

    written: list[Path] = []
    table_rows: list[dict[str, Any]] = []
    try:
        # common random numbers: each run's demand is simulated once and shared by every cell
        batches = run_batch(scenarios, n_runs, seed, parallelism=parallelism,
                            collect_logs=export_events)
        for (policy, token, slope), scenario, batch in zip(cells, scenarios, batches):
            cell_dir = out_dir / f"{policy}_slope{token}"
            config = {
                "policy": policy,
                "competition_slope": slope,
                "runs": n_runs,
                "master_seed": seed,
                "horizon_days": scenario.horizon,
                "histogram_bins": sf.output.histogram_bins,
            }
            summaries = _emit_outputs(cell_dir, batch, config, sf.output.histogram_bins, written)
            row: dict[str, Any] = {
                "policy": policy,
                "slope": token,
                "runs": n_runs,
                "mean_cost": summaries["terminal_cost"].mean,
                "median_cost": summaries["terminal_cost"].quantiles[50],
            }
            for name, summary in sorted(summaries.items()):
                if name.startswith("utilization_"):
                    supplier = name.removeprefix("utilization_")
                    row[f"mean_u_{supplier}"] = summary.mean
                    row[f"median_u_{supplier}"] = summary.quantiles[50]
            table_rows.append(row)

        columns = list(table_rows[0].keys())
        lines = [",".join(columns)]
        for row in table_rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        out_dir.mkdir(parents=True, exist_ok=True)
        comparison = out_dir / "comparison.csv"
        _write_text(comparison, lines)
        written.append(comparison)
    except Exception:
        _cleanup(written)
        raise

    widths = [max(len(str(c)), max(len(_fmt(row[c])) for row in table_rows)) for c in columns]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in table_rows:
        print("  ".join(_fmt(row[c]).ljust(w) for c, w in zip(columns, widths)))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    sf = load_scenario(args.scenario)
    scenario = sf.scenario
    print(f"OK: {len(scenario.vessels)} vessels, "
          f"{sum(len(c.products) for c in scenario.catalog.categories)} products, "
          f"{len(scenario.suppliers)} suppliers, {len(scenario.contracts)} contracts, "
          f"horizon {_fmt(scenario.horizon)} days")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rto-sim",
        description="Monte Carlo simulator of the request-to-order procurement flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario JSON file (bundled names resolve too)")
        p.add_argument("--runs", type=int, default=None, help="number of replications")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--parallelism", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--export-events", action="store_true", help="write per-run event logs")

    run_p = sub.add_parser("run", help="run one policy cell and emit distributions")
    add_common(run_p)
    run_p.add_argument("--policy", choices=("naive", "dynamic"), default=None)
    run_p.add_argument("--competition-slope", type=float, default=None)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run a policy/slope grid under common random numbers")
    add_common(cmp_p)
    cmp_p.add_argument("--policies", default="naive,dynamic", help="comma-separated policy list")
    cmp_p.add_argument("--slopes", default=None, help="comma-separated competition slopes")
    cmp_p.set_defaults(func=cmd_compare)

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "runs", None) is not None and args.runs < 1:
        parser.error("--runs must be at least 1")
    if getattr(args, "parallelism", None) is not None and args.parallelism < 1:
        parser.error("--parallelism must be at least 1")
    try:
        return args.func(args)
    except (ScenarioFormatError, ScenarioValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
