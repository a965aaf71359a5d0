"""Scenario ingestion, batch orchestration, and bit-stable result emission.

Scenario files are versioned JSON documents (see README for the schema).
Outputs are UTF-8, LF-terminated CSV/JSON with numbers rendered at nine
significant digits, so a fixed (scenario, seed, runs) triple always produces
byte-identical files regardless of parallelism.
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .domain import (POLICY_KINDS, Scenario, ScenarioValidationError, check_spot_order_totals,
                     validate_scenario)
from .engine import PO_GENERATION, PR_GENERATION, PR_HANDLING, RFQ_RESPONSE, run_batch
from .hazards import ConstantBaseline, WeibullBaseline
from .metrics import DistributionSummary, RunResult, summarize_batch

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioFormatError",
    "RunsConfig",
    "OutputConfig",
    "ScenarioFile",
    "load_scenario",
    "parse_scenario",
    "bundled_scenario_path",
    "cmd_run",
    "cmd_compare",
    "cmd_validate",
    "main",
]

SCHEMA_VERSION = 1
ENV_SEED = "RTO_SIM_SEED"
MAX_HISTOGRAM_BINS = 10**6  # about 8 MB of bin edges
_EVENTS_FILE = re.compile(r"events_(\d+)\.csv")  # a per-run event log, by run index


class ScenarioFormatError(ScenarioValidationError):
    """Scenario document is malformed; the message carries the field path."""


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
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError("number too large for a float", path) from None


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError("expected an integer", path)
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioFormatError("expected a non-empty string", path)
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioFormatError("expected a boolean", path)
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError("expected an array", path)
    return value


def _reject_unknown(mapping: dict, allowed: Iterable[str], path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioFormatError(f"unknown field {unknown[0]!r}", path)


# The codec walks the dataclass fields and their type hints, so every default
# lives on the dataclass.  The format facts the types cannot express:
_SCALARS = {float: _number, int: _integer, str: _string, bool: _boolean}
_JSON_KEYS = {(Scenario, "horizon"): "horizon_days"}  # field -> JSON key, where they differ
_KINDS = {"constant": ConstantBaseline, "weibull": WeibullBaseline}  # "kind" tag of a union member
_SPOT_RATE_KEY = ("product_id", "supplier_id")  # the only mapping with a composite key
_FILE_KEYS = ("schema_version", "runs", "output")  # top-level keys beside the scenario fields


class _Member(NamedTuple):
    name: str
    key: str
    hint: Any
    required: bool


@functools.cache
def _members(cls: type) -> tuple[_Member, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        _Member(f.name, _JSON_KEYS.get((cls, f.name), f.name), hints[f.name],
                f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _decode_members(members: Iterable[_Member], doc: dict, path: str) -> dict[str, Any]:
    """Constructor arguments for the members present in `doc`; absent optional ones keep their defaults."""
    return {
        m.name: _decode(m.hint, _get(doc, m.key, path), f"{path}.{m.key}" if path else m.key)
        for m in members if m.required or m.key in doc
    }


def _decode_object(cls: type, value: Any, path: str, extra: tuple[str, ...] = ()) -> Any:
    doc = _expect(value, path)
    members = _members(cls)
    _reject_unknown(doc, [m.key for m in members] + list(extra), path)
    return cls(**_decode_members(members, doc, path))


def _decode(hint: Any, value: Any, path: str) -> Any:
    if hint in _SCALARS:
        return _SCALARS[hint](value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType and type(None) in args:
        return None if value is None else _decode(args[0], value, path)
    if origin is types.UnionType:
        doc = _expect(value, path)
        kind = _string(_get(doc, "kind", path), f"{path}.kind")
        if kind not in _KINDS:
            raise ScenarioFormatError(f"unknown baseline kind {kind!r}", f"{path}.kind")
        return _decode_object(_KINDS[kind], doc, path, extra=("kind",))
    if origin is tuple:
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(_array(value, path)))
    if origin is collections.abc.Mapping and args[0] is str:
        return {k: _decode(args[1], v, f"{path}[{k}]") for k, v in sorted(_expect(value, path).items())}
    if origin is collections.abc.Mapping:
        decoded = {}
        for i, item in enumerate(_array(value, path)):
            ipath = f"{path}[{i}]"
            entry = _decode_object(args[1], item, ipath, extra=_SPOT_RATE_KEY)
            key = tuple(_string(_get(item, k, ipath), f"{ipath}.{k}") for k in _SPOT_RATE_KEY)
            if key in decoded:
                raise ScenarioFormatError(f"duplicate spot rate for {key}", ipath)
            decoded[key] = entry
        return decoded
    return _decode_object(hint, value, path)


def parse_scenario(doc: Any) -> ScenarioFile:
    """Build a ScenarioFile from a decoded JSON document; errors carry field paths."""
    doc = _expect(doc, "")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"unsupported schema version {version!r}", "schema_version")
    scenario = _decode_object(Scenario, doc, "", extra=_FILE_KEYS)
    file_members = [m for m in _members(ScenarioFile) if m.name != "scenario"]
    sf = ScenarioFile(scenario=scenario, **_decode_members(file_members, doc, ""))
    for path, value in (("runs.count", sf.runs.count), ("runs.parallelism", sf.runs.parallelism),
                        ("output.histogram_bins", sf.output.histogram_bins)):
        if value < 1:
            raise ScenarioFormatError(f"{path} must be at least 1", path)
    if sf.output.histogram_bins > MAX_HISTOGRAM_BINS:
        raise ScenarioFormatError(f"output.histogram_bins must be at most {MAX_HISTOGRAM_BINS}",
                                  "output.histogram_bins")
    return sf


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(__file__).with_name("scenarios") / name


def _resolve_scenario_path(path: str) -> Path:
    """The file at `path`, else the bundled scenario of that name when `path` is a bare name."""
    candidate = Path(path)
    if candidate.exists():
        return candidate
    if candidate.name == path and (bundled := bundled_scenario_path(path)).exists():
        return bundled
    raise ScenarioFormatError(f"scenario file not found: {path}")


def load_scenario(path: str | Path) -> ScenarioFile:
    """Read, parse, and validate a scenario document."""
    resolved = _resolve_scenario_path(str(path))
    try:
        doc = json.loads(resolved.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", str(resolved)) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}", str(resolved)) from exc
    sf = parse_scenario(doc)
    validate_scenario(sf.scenario)
    return sf


# --- output emission ---------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):  # first: nearly every value written is one
        return format(value, ".9g")
    if isinstance(value, bool):
        return "1" if value else "0"
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


def write_histogram_csv(path: Path, values: Sequence[float], bins: int) -> None:
    lo, hi = min(values), max(values)
    rows = [(_fmt(lo), _fmt(hi), len(values))]  # numpy would widen a zero-width range to +-0.5
    if hi > lo:
        counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
        edges = [format(edge, ".9g") for edge in edges.tolist()]  # each edge formatted once, as _fmt would
        rows = zip(edges, edges[1:], counts.tolist())
    _write_text(path, ["bin_left,bin_right,count", *(f"{left},{right},{count}" for left, right, count in rows)])


def write_summary_json(path: Path, config: Mapping[str, Any],
                       summaries: Mapping[str, DistributionSummary]) -> None:
    for name, s in sorted(summaries.items()):
        if not all(map(math.isfinite, (s.mean, s.std, s.minimum, s.maximum, *s.quantiles.values()))):
            raise ValueError(f"{path}: metric {name!r} has a non-finite statistic, which JSON cannot hold")
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
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def write_events_csv(path: Path, log: Sequence, lead_times: Mapping[str, float]) -> None:
    """One line per record, each formatted in one pass; the detail field renders its payload."""
    lead = {supplier_id: _fmt(days) for supplier_id, days in lead_times.items()}
    lines = ["time,kind,pr_id,vessel_id,category_id,supplier_id,detail\n"]
    for kind, time, pr_id, vessel_id, category_id, supplier_id, payload in log:
        if kind == PR_GENERATION:
            detail = "items=" + "|".join([f"{pid}:{q}" for pid, q in payload.items.items()])
        elif kind == PR_HANDLING:
            detail = (f"contracted={'|'.join(sorted(payload.contract_terms))};rfq_items="
                      f"{'|'.join(payload.rfq_items)};rfq_suppliers={'|'.join(payload.rfq_suppliers)}")
        elif kind == RFQ_RESPONSE:
            # a quoted rate is always a float, which _fmt formats alike
            rates = "|".join([f"{pid}:{rate:.9g}" for pid, rate in sorted(payload.items())])
            detail = f"rates={rates};lead_time={lead[supplier_id]}"
        elif kind == PO_GENERATION:
            assign = "|".join([f"{pid}:{a.supplier_id}:{a.provenance}:{_fmt(a.unit_cost)}"
                               for pid, a in sorted(payload.items.items())])
            detail = f"cost={_fmt(payload.total_cost)};po_count={len(payload.suppliers_used)};assign={assign}"
        else:
            detail = ""
        lines.append(f"{_fmt(time)},{kind},{pr_id or ''},{vessel_id or ''},{category_id or ''},"
                     f"{supplier_id or ''},{detail}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _temporary(path: Path) -> Path:
    """The name an output file is written under until the command's last file is written."""
    return path.with_name(f"{path.name}.tmp")


@dataclass
class _Staged:
    """What a command puts on disk: directories it created, and files under their temporary names."""

    dirs: list[Path] = field(default_factory=list)  # outermost first
    files: list[Path] = field(default_factory=list)  # final names
    logs: list[tuple[Path, int]] = field(default_factory=list)  # (cell directory, run count) of event logs

    def mkdir(self, path: Path) -> None:
        self.dirs.extend(reversed([p for p in (path, *path.parents) if not p.exists()]))
        path.mkdir(parents=True, exist_ok=True)

    def write(self, writer: Callable[..., None], path: Path, *data: Any) -> None:
        self.files.append(path)
        writer(_temporary(path), *data)

    def final_paths(self) -> Iterator[Path]:
        yield from self.files
        for out_dir, runs in self.logs:
            yield from (out_dir / f"events_{index}.csv" for index in range(runs))


@contextlib.contextmanager
def _staged() -> Iterator[_Staged]:
    """Yield a command's staging; when its block ends, rename every staged file into place.

    On failure only the temporary files go, then the directories the command created,
    newest first (one still not empty stays): a file already in place is never touched.
    """
    staged = _Staged()
    try:
        yield staged
        for path in staged.final_paths():
            os.replace(_temporary(path), path)
    except Exception:
        for path in staged.final_paths():
            with contextlib.suppress(OSError):
                _temporary(path).unlink()
        for directory in reversed(staged.dirs):
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _emit_cell(out_dir: Path, results: Sequence[RunResult], config: Mapping[str, Any], bins: int,
               staged: _Staged) -> dict[str, DistributionSummary]:
    summaries = summarize_batch(results)
    staged.write(write_runs_csv, out_dir / "runs.csv", results)
    staged.write(write_summary_json, out_dir / "summary.json", config, summaries)
    staged.write(write_histogram_csv, out_dir / "histogram_terminal_cost.csv",
                 [r.terminal_cost for r in results], bins)
    for supplier_id in sorted(results[0].utilizations):
        staged.write(write_histogram_csv, out_dir / f"histogram_utilization_{supplier_id}.csv",
                     [r.utilizations[supplier_id] for r in results], bins)
    return summaries


def _write_run_events(out_dirs: Sequence[Path], lead_times: Mapping[str, float], run_index: int,
                      logs: Sequence[Sequence]) -> None:
    """The log sink of an exporting batch: write a run's log of each cell under its temporary name."""
    for out_dir, log in zip(out_dirs, logs):
        write_events_csv(_temporary(out_dir / f"events_{run_index}.csv"), log, lead_times)


def _check_no_stale_events(out_dirs: Iterable[Path], runs: int, export_events: bool) -> None:
    """Refuse a cell directory holding an `events_<i>.csv` that the command will not overwrite.

    Such a file would sit beside the new outputs as if this command had
    written it.  Nothing is deleted; the error names the first stale file,
    cells in order, then by run index.
    """
    for out_dir in out_dirs:
        if not out_dir.is_dir():
            continue
        logs = sorted((int(match[1]), name) for name in os.listdir(out_dir)
                      if (match := _EVENTS_FILE.fullmatch(name)))
        for index, name in logs:
            if not (export_events and index < runs and name == f"events_{index}.csv"):
                raise FileExistsError(f"{out_dir / name}: a stale event log that this command would not "
                                      "overwrite; remove it or choose another --out")


def _run_cells(sf: ScenarioFile, cells: Sequence[tuple[Scenario, Path]],
               staged: _Staged) -> list[dict[str, DistributionSummary]]:
    """Simulate every (scenario, output directory) cell in one batch; stage each cell's files.

    The cells share each run's demand draws (common random numbers); each
    cell's summary.json config describes its own scenario.  Returns each
    cell's summaries.
    """
    runs, bins = sf.runs, sf.output.histogram_bins
    out_dirs = [out_dir for _, out_dir in cells]
    _check_no_stale_events(out_dirs, runs.count, sf.output.export_events)
    for out_dir in out_dirs:
        staged.mkdir(out_dir)
    log_sink = None
    if sf.output.export_events:
        staged.logs.extend((out_dir, runs.count) for out_dir in out_dirs)
        # the process that simulates a run writes its logs, so none is held;
        # the cells share their suppliers, so their lead times
        log_sink = functools.partial(_write_run_events, out_dirs,
                                     {s.id: s.spot_lead_time for s in cells[0][0].suppliers})
    # not re-validated: a cell changes only the file's policy and slope, the flags'
    # argparse types check both, and of the checks in validate_scenario only
    # check_spot_order_totals reads them, which the commands run on each flag slope
    batches = run_batch([scenario for scenario, _ in cells], runs.count, runs.master_seed,
                        parallelism=runs.parallelism, log_sink=log_sink)
    return [_emit_cell(out_dir, results, {
        "policy": scenario.policy.kind,
        "competition_slope": scenario.spot.competition_slope,
        "runs": runs.count,
        "master_seed": runs.master_seed,
        "horizon_days": scenario.horizon,
        "histogram_bins": bins,
    }, bins, staged) for (scenario, out_dir), results in zip(cells, batches)]


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


def _load_with_flags(args: argparse.Namespace) -> ScenarioFile:
    """The scenario file, with the flags that were given replacing its run and output settings."""
    sf = load_scenario(args.scenario)

    def given(**flags: Any) -> dict[str, Any]:
        return {name: value for name, value in flags.items() if value is not None}

    runs = replace(sf.runs, **given(count=args.runs, parallelism=args.parallelism),
                   master_seed=_resolve_seed(args.seed, sf.runs.master_seed))
    output = replace(sf.output, **given(directory=args.out, export_events=args.export_events))
    return replace(sf, runs=runs, output=output)


def _apply_overrides(scenario: Scenario, policy: str | None, slope: float | None) -> Scenario:
    if policy is not None:
        scenario = replace(scenario, policy=replace(scenario.policy, kind=policy))
    if slope is not None:
        scenario = replace(scenario, spot=replace(scenario.spot, competition_slope=slope))
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    sf = _load_with_flags(args)
    if args.competition_slope is not None:
        check_spot_order_totals(sf.scenario, args.competition_slope, "--competition-slope")
    scenario = _apply_overrides(sf.scenario, args.policy, args.competition_slope)
    out_dir = Path(sf.output.directory)
    started = time.perf_counter()
    with _staged() as staged:
        [summaries] = _run_cells(sf, [(scenario, out_dir)], staged)
    elapsed = time.perf_counter() - started

    mean_util = " ".join(
        f"u_{name.removeprefix('utilization_')}={_fmt(summary.mean)}"
        for name, summary in sorted(summaries.items()) if name.startswith("utilization_")
    )
    print(f"runs={sf.runs.count} policy={scenario.policy.kind} "
          f"slope={_fmt(scenario.spot.competition_slope)} "
          f"mean_cost={_fmt(summaries['terminal_cost'].mean)} {mean_util} "
          f"elapsed={elapsed:.1f}s out={out_dir}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    sf = _load_with_flags(args)
    file_slope = sf.scenario.spot.competition_slope
    slopes = args.slopes if args.slopes is not None else [(_fmt(file_slope), file_slope)]
    for _, slope in args.slopes or ():
        check_spot_order_totals(sf.scenario, slope, "--slopes")
    grid = [(policy, token, _apply_overrides(sf.scenario, policy, slope))
            for policy, _ in args.policies for token, slope in slopes]

    out_dir = Path(sf.output.directory)
    cells = [(scenario, out_dir / f"{policy}_slope{token}") for policy, token, scenario in grid]
    table_rows: list[dict[str, Any]] = []
    with _staged() as staged:
        for (policy, token, _), summaries in zip(grid, _run_cells(sf, cells, staged)):
            row: dict[str, Any] = {
                "policy": policy,
                "slope": token,
                "runs": sf.runs.count,
                "mean_cost": summaries["terminal_cost"].mean,
                "median_cost": summaries["terminal_cost"].quantiles[50],
            }
            for name, summary in sorted(summaries.items()):
                if name.startswith("utilization_"):
                    supplier = name.removeprefix("utilization_")
                    row[f"mean_u_{supplier}"] = summary.mean
                    row[f"median_u_{supplier}"] = summary.quantiles[50]
            table_rows.append(row)

        columns = list(table_rows[0])
        staged.write(_write_text, out_dir / "comparison.csv", [",".join(columns)]
                     + [",".join(_fmt(row[c]) for c in columns) for row in table_rows])

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


def _at_least_one(text: str) -> int:
    """Argument type of --runs and --parallelism."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _slope(text: str) -> float:
    """Argument type of a competition slope: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"invalid slope {text!r}: expected a finite number of at least 0")
    return value


def _distinct_list(what: str, convert: Callable[[str], Any]) -> Callable[[str], list[tuple[str, Any]]]:
    """Argument type of a comma-separated list: (token, value) pairs of distinct values, in order."""
    def parse(text: str) -> list[tuple[str, Any]]:
        pairs: list[tuple[str, Any]] = []
        for token in filter(None, (t.strip() for t in text.split(","))):
            try:
                value = convert(token)
            except ValueError:
                raise argparse.ArgumentTypeError(f"invalid {what} {token!r}") from None
            if value in [v for _, v in pairs]:
                raise argparse.ArgumentTypeError(f"repeated {what} {token!r}")
            pairs.append((token, value))
        return pairs
    return parse


def _policy_kind(token: str) -> str:
    if token not in POLICY_KINDS:
        raise ValueError(token)
    return token


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rto-sim",
        description="Monte Carlo simulator of the request-to-order procurement flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario JSON file (bundled names resolve too)")
        p.add_argument("--runs", type=_at_least_one, default=None, help="number of replications")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--parallelism", type=_at_least_one, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--export-events", action="store_true", default=None,
                       help="write per-run event logs")

    run_p = sub.add_parser("run", help="run one policy cell and emit distributions")
    add_common(run_p)
    run_p.add_argument("--policy", choices=POLICY_KINDS, default=None)
    run_p.add_argument("--competition-slope", type=_slope, default=None)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run a policy/slope grid under common random numbers")
    add_common(cmp_p)
    cmp_p.add_argument("--policies", type=_distinct_list("policy", _policy_kind),
                       default="naive,dynamic", help="comma-separated policy list")
    cmp_p.add_argument("--slopes", type=_distinct_list("slope", _slope), default=None,
                       help="comma-separated competition slopes")
    cmp_p.set_defaults(func=cmd_compare)

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        n_slopes = len(args.slopes) if args.slopes is not None else 1
        if len(args.policies) * n_slopes < 2:
            parser.error("compare needs at least two (policy, slope) cells from --policies and --slopes")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
