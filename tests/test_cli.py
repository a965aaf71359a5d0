"""Scenario-file parsing, CLI command, and output-stability tests."""

import collections
import copy
import csv
import dataclasses
import gzip
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import dump_scenario, uniform_market_scenario
from rto_sim import cli, engine
from rto_sim.cli import (
    OutputConfig,
    RunsConfig,
    ScenarioFile,
    ScenarioFormatError,
    bundled_scenario_path,
    load_scenario,
    main,
    parse_scenario,
)
from rto_sim.domain import (
    Catalog,
    Category,
    Contract,
    Product,
    Scenario,
    ScenarioValidationError,
    SpotModel,
    SpotRate,
    Supplier,
    Vessel,
)
from rto_sim.hazards import CovariateTerm, HazardSpec, WeibullBaseline


@pytest.fixture
def scenario_doc(paper_file):
    return dump_scenario(paper_file)


DELETE = object()
HAZARD = ("vessels", 0, "hazards", "consumables")


def mutated(doc, path, value):
    """Copy of `doc` with the value at `path` replaced, or removed when `value` is DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


SET_ARRAYS = {"vessels", "suppliers", "contracts", "categories", "products", "eligible_suppliers", "rates"}


def shuffled(value, rng, key=None):
    """`value` with every object's keys and every set-like array in random order."""
    if isinstance(value, dict):
        entries = [(k, shuffled(v, rng, k)) for k, v in value.items()]
        rng.shuffle(entries)
        return dict(entries)
    if isinstance(value, list):
        entries = [shuffled(v, rng) for v in value]
        if key in SET_ARRAYS:
            rng.shuffle(entries)
        return entries
    return value


# (path, value, exact error message): one malformed document per row
MALFORMED = [
    (("horizon_days",), "365", "horizon_days: expected a number"),
    (("spot", "period"), True, "spot.period: expected a number"),
    (("catalog", "categories", 0, "products", 1, "baseline_stock"), 30.5,
     "catalog.categories[0].products[1].baseline_stock: expected an integer"),
    (("catalog", "categories", 0, "products", 1, "id"), "",
     "catalog.categories[0].products[1].id: expected a non-empty string"),
    (("catalog", "categories", 0, "eligible_suppliers", 1), 3,
     "catalog.categories[0].eligible_suppliers[1]: expected a non-empty string"),
    (("vessels",), {}, "vessels: expected an array"),
    (HAZARD, [], "vessels[0].hazards[consumables]: expected an object"),
    (HAZARD + ("covariates",), {}, "vessels[0].hazards[consumables].covariates: expected an array"),
    (("contracts", 0, "product_rates", "P1"), "11", "contracts[0].product_rates[P1]: expected a number"),
    (("delays", "rfq_response_overrides"), [], "delays.rfq_response_overrides: expected an object"),
    (("runs", "master_seed"), 1.5, "runs.master_seed: expected an integer"),
    (("hazard_window_width",), 1.0, "unknown field 'hazard_window_width'"),
    (("typo",), 1, "unknown field 'typo'"),
    (HAZARD + ("baseline", "typo"), 1, "vessels[0].hazards[consumables].baseline: unknown field 'typo'"),
    (("horizon_days",), DELETE, "missing required field 'horizon_days'"),
    (("spot", "rates", 3, "baseline"), DELETE, "spot.rates[3]: missing required field 'baseline'"),
    (("policy",), {}, "policy: missing required field 'kind'"),
    (HAZARD + ("baseline", "kind"), "gamma",
     "vessels[0].hazards[consumables].baseline.kind: unknown baseline kind 'gamma'"),
    (("spot", "rates", 1),
     {"product_id": "P1", "supplier_id": "A", "baseline": 10.0},
     "spot.rates[1]: duplicate spot rate for ('P1', 'A')"),
    (("output", "export_events"), 1, "output.export_events: expected a boolean"),
    (("runs", "count"), 0, "runs.count: runs.count must be at least 1"),
    (("runs", "parallelism"), 0, "runs.parallelism: runs.parallelism must be at least 1"),
    (("output", "histogram_bins"), 0, "output.histogram_bins: output.histogram_bins must be at least 1"),
    # the whole `output` object, so the row above keeps its test id
    (("output",), {"directory": "out", "histogram_bins": 10**12},
     "output.histogram_bins: output.histogram_bins must be at most 1000000"),
    (("schema_version",), 99, "schema_version: unsupported schema version 99"),
    (("spot", "rates", 0, "baseline"), 10**400, "spot.rates[0].baseline: number too large for a float"),
    (("horizon_days",), 10**400, "horizon_days: number too large for a float"),
]


class TestCodecConformance:
    @pytest.fixture(scope="class")
    def paper_doc(self):
        return json.loads(bundled_scenario_path("paper_s5.json").read_text())

    @pytest.mark.parametrize("path, value, message", MALFORMED,
                             ids=[".".join(map(str, row[0])) for row in MALFORMED])
    def test_malformed_document_message(self, paper_doc, path, value, message):
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(mutated(paper_doc, path, value))
        assert str(err.value) == message

    def test_document_must_be_an_object(self):
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario([])
        assert str(err.value) == "expected an object"

    @pytest.mark.parametrize("path, read", [
        (("runs", "master_seed"), lambda sf: sf.runs.master_seed),
    ])
    def test_null_means_unset(self, paper_doc, path, read):
        assert read(parse_scenario(mutated(paper_doc, path, None))) is None

    def test_minimal_document_takes_dataclass_defaults(self):
        doc = {
            "schema_version": 1,
            "horizon_days": 100.0,
            "catalog": {"categories": [{
                "id": "cat", "eligible_suppliers": ["A"],
                "products": [{"id": "P", "family_id": "F", "baseline_stock": 10, "depletion_rate": 0.5}],
            }]},
            "vessels": [{"id": "V", "hazards": {"cat": {
                "baseline": {"kind": "weibull", "shape": 1.5, "scale": 12.0},
                "covariates": [{"coefficient": 0.3, "amplitude": 1.0, "period": 365.0}],
            }}}],
            "suppliers": [{"id": "A"}],
            "contracts": [{"supplier_id": "A", "product_rates": {"P": 9.0},
                           "valid_from": 0.0, "valid_until": 50.0}],
            "spot": {"rates": [{"product_id": "P", "supplier_id": "A", "baseline": 10.0}]},
        }
        hazard = HazardSpec(baseline=WeibullBaseline(shape=1.5, scale=12.0),
                            covariates=(CovariateTerm(coefficient=0.3, amplitude=1.0, period=365.0),))
        expected = ScenarioFile(scenario=Scenario(
            horizon=100.0,
            catalog=Catalog(categories=(Category(
                id="cat", eligible_suppliers=("A",),
                products=(Product(id="P", family_id="F", baseline_stock=10, depletion_rate=0.5),),
            ),)),
            vessels=(Vessel(id="V", hazards={"cat": hazard}),),
            suppliers=(Supplier(id="A"),),
            contracts=(Contract(supplier_id="A", product_rates={"P": 9.0}, valid_from=0.0, valid_until=50.0),),
            spot=SpotModel(rates={("P", "A"): SpotRate(baseline=10.0)}),
        ))
        assert parse_scenario(doc) == expected
        assert parse_scenario(dump_scenario(expected)) == expected
        # the defaults themselves, which the comparison above would follow if one were edited
        sf = parse_scenario(doc)
        scenario, spot, delays = sf.scenario, sf.scenario.spot, sf.scenario.delays
        assert scenario.vessels[0].hazards["cat"].covariates[0].phase == 0.0
        assert (spot.rates[("P", "A")].amplitude, spot.rates[("P", "A")].phase) == (0.0, 0.0)
        assert (spot.period, spot.noise_sd, spot.competition_slope, spot.competition_basis) \
            == (365.0, 1.0, 0.0, "per_item")
        assert scenario.policy.po_overhead == 10.0
        assert (delays.creation_to_approval, delays.approval_to_handling, delays.rfq_response,
                delays.handling_to_po) == (2.0, 5.0, 2.5, 0.1)
        assert (scenario.contracts[0].lead_time, scenario.contracts[0].volume_commitment) == (2.0, 0)
        assert scenario.suppliers[0].spot_lead_time == 3.0
        assert (sf.runs.count, sf.runs.parallelism) == (100, 1)
        assert (sf.output.directory, sf.output.histogram_bins, sf.output.export_events) == ("out", 100, False)


class TestLoadScenario:
    def test_bundled_reference_scenario(self, paper_scenario):
        catalog = paper_scenario.catalog
        assert sum(len(c.products) for c in catalog.categories) == 3
        assert [s.id for s in paper_scenario.suppliers] == ["A", "B", "C"]
        rates = {c.supplier_id: list(c.product_rates.values())[0] for c in paper_scenario.contracts}
        assert rates == {"A": 11.0, "B": 11.0, "C": 12.0}
        commitments = {c.supplier_id: c.volume_commitment for c in paper_scenario.contracts}
        assert commitments == {"A": 75, "B": 75, "C": 150}
        spot = paper_scenario.spot
        assert spot.rates[("P1", "A")].baseline == 10.0
        assert spot.rates[("P1", "B")].baseline == 10.0
        assert spot.rates[("P1", "C")].baseline == 12.0
        assert paper_scenario.horizon == 365.0

    def test_missing_horizon_names_the_field(self, scenario_doc):
        scenario_doc.pop("horizon_days")
        with pytest.raises(ScenarioFormatError, match="horizon_days"):
            parse_scenario(scenario_doc)

    def test_unsupported_schema_version(self, scenario_doc):
        scenario_doc["schema_version"] = 99
        with pytest.raises(ScenarioFormatError, match="unsupported schema"):
            parse_scenario(scenario_doc)

    def test_unknown_field_rejected_with_path(self, scenario_doc):
        scenario_doc["catalog"]["categories"][0]["typo"] = 1
        with pytest.raises(ScenarioFormatError, match=r"catalog.categories\[0\]"):
            parse_scenario(scenario_doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "horizon_days": }\n')
        with pytest.raises(ScenarioFormatError, match="line 2"):
            load_scenario(path)

    def test_format_error_is_a_validation_error(self, scenario_doc):
        scenario_doc["catalog"]["categories"][0]["typo"] = 1
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(scenario_doc)
        assert type(err.value) is ScenarioFormatError
        assert err.value.path == "catalog.categories[0]"
        assert str(err.value) == "catalog.categories[0]: unknown field 'typo'"

    def test_oversized_assignment_space_fails_at_validate(self, tmp_path, capsys):
        # 12 eligible suppliers and 6 products under a per_supplier_total markup;
        # at slope 0 the file's own cell is uncoupled, but compare can reach a coupled one
        expected = ("error: catalog.categories[0]: per_supplier_total assignment space of 2985984 "
                    "exceeds the enumeration bound of 1048576")
        for slope in (0.0, 0.05):
            path = tmp_path / f"wide_{slope}.json"
            sf = ScenarioFile(scenario=uniform_market_scenario(12, 6, slope=slope), runs=RunsConfig(),
                              output=OutputConfig())
            path.write_text(json.dumps(dump_scenario(sf)))
            assert main(["validate", str(path)]) == 1
            assert expected in capsys.readouterr().err
            out = tmp_path / f"o_{slope}"
            assert main(["run", str(path), "--runs", "2", "--out", str(out)]) == 1
            assert expected in capsys.readouterr().err
            assert main(["compare", str(path), "--slopes", "0,0.05", "--runs", "2", "--out", str(out)]) == 1
            assert expected in capsys.readouterr().err
            assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes('{"schema_version": 1}'.encode("utf-16"))  # starts with the BOM ff fe
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: not UTF-8 text: invalid start byte at byte 0"

    def test_bare_bundled_name_resolves(self):
        sf = load_scenario("paper_s5.json")
        assert sf.scenario.horizon == 365.0

    def test_bundled_path_is_found_from_the_package_copy_that_asks(self, tmp_path, monkeypatch):
        # a second copy imported under another name reads its own scenarios, not rto_sim's
        copy = tmp_path / "rto_sim_copy"
        shutil.copytree(Path(cli.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            path = importlib.import_module("rto_sim_copy.cli").bundled_scenario_path("paper_s5.json")
        finally:
            for name in [n for n in sys.modules if n.partition(".")[0] == "rto_sim_copy"]:
                del sys.modules[name]
        assert path.resolve() == (copy / "scenarios" / "paper_s5.json").resolve()
        assert path.is_file()

    def test_defaults_applied(self, scenario_doc):
        del scenario_doc["delays"]
        del scenario_doc["policy"]["po_overhead"]
        del scenario_doc["spot"]["noise_sd"]
        del scenario_doc["output"]
        sf = parse_scenario(scenario_doc)
        d = sf.scenario.delays
        assert (d.creation_to_approval, d.approval_to_handling, d.rfq_response, d.handling_to_po) \
            == (2.0, 5.0, 2.5, 0.1)
        assert sf.scenario.policy.po_overhead == 10.0
        assert sf.scenario.spot.noise_sd == 1.0
        assert sf.output.histogram_bins == 100


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "paper_s5.json", "--runs", "5", "--seed", "42",
                       "--out", str(out1)) == 0
        assert run_cli("run", "paper_s5.json", "--runs", "5", "--seed", "42",
                       "--out", str(out2)) == 0
        for name in ("runs.csv", "summary.json", "histogram_terminal_cost.csv",
                     "histogram_utilization_A.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_runs_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "paper_s5.json", "--runs", "0", "--out", str(tmp_path / "o"))
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_competition_slope_is_a_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "paper_s5.json", "--competition-slope", value, "--out", str(tmp_path / "o"))
        assert exit_info.value.code == 2
        assert f"argument --competition-slope: invalid slope '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (("run", "paper_s5.json", "--policy", "dynamic", "--competition-slope", "1e306"),
         "error: --competition-slope: competition slope of 1e+306 overflows an order total"),
        (("compare", "paper_s5.json", "--slopes", "0,1e306"),
         "error: --slopes: competition slope of 1e+306 overflows an order total"),
    ], ids=["run", "compare"])
    def test_overflowing_flag_slope_fails_before_the_batch(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert run_cli(*flags, "--runs", "2", "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_statistic_fails_with_its_metric(self, tmp_path, capsys, monkeypatch):
        # a cost std past ~1e154 overflows to inf, which summary.json cannot hold
        real = cli.summarize_batch

        def overflowing(results):
            summaries = real(results)
            summaries["terminal_cost"] = dataclasses.replace(summaries["terminal_cost"], std=math.inf)
            return summaries

        monkeypatch.setattr(cli, "summarize_batch", overflowing)
        out = tmp_path / "o"
        assert run_cli("compare", "paper_s5.json", "--slopes", "0,0.1", "--runs", "2",
                       "--out", str(out)) == 1
        assert "metric 'terminal_cost' has a non-finite statistic" in capsys.readouterr().err
        assert not out.exists()

    def test_pathological_hazard_fails_bounded(self, tmp_path, capsys, scenario_doc):
        # passes validate, but thinning would need ~1e10 proposals for one gap
        scenario_doc["vessels"][0]["hazards"]["consumables"] = {
            "baseline": {"kind": "weibull", "shape": 1.5, "scale": 12.0},
            "covariates": [{"coefficient": 20.0, "amplitude": 1.0, "period": 365.0, "phase": math.pi}],
        }
        path = tmp_path / "spin.json"
        path.write_text(json.dumps(scenario_doc))
        started = time.perf_counter()
        assert run_cli("run", str(path), "--runs", "1", "--parallelism", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert time.perf_counter() - started < 60.0
        err = capsys.readouterr().err
        assert "run 0 failed" in err and "1000000 proposals under covariate bound" in err

    def test_a_tiny_weibull_shape_runs(self, tmp_path, scenario_doc):
        # at shape 0.001 a gap's Weibull power is past every float about one
        # draw in eight; such a gap lies past the horizon, so the batch succeeds
        scenario_doc["vessels"][0]["hazards"]["consumables"]["baseline"]["shape"] = 0.001
        path = tmp_path / "tiny_shape.json"
        path.write_text(json.dumps(scenario_doc))
        assert run_cli("validate", str(path)) == 0
        assert run_cli("run", str(path), "--runs", "20", "--out", str(tmp_path / "o")) == 0

    def test_policy_and_slope_overrides_land_in_summary(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "paper_s5.json", "--runs", "2", "--seed", "1",
                       "--policy", "dynamic", "--competition-slope", "0.10",
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["policy"] == "dynamic"
        assert summary["config"]["competition_slope"] == 0.1

    def test_export_events_writes_per_run_logs(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "paper_s5.json", "--runs", "3", "--seed", "1",
                       "--export-events", "--out", str(out)) == 0
        for i in range(3):
            lines = (out / f"events_{i}.csv").read_text().splitlines()
            assert lines[0] == "time,kind,pr_id,vessel_id,category_id,supplier_id,detail"
            assert len(lines) > 1

    def test_stale_event_logs_fail_before_the_batch(self, tmp_path, capsys):
        # a second run into the same --out would leave events_2.csv and
        # events_3.csv beside outputs of two runs
        out = tmp_path / "o"
        assert run_cli("run", "paper_s5.json", "--runs", "4", "--seed", "1",
                       "--export-events", "--out", str(out)) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert {f"events_{i}.csv" for i in range(4)} <= set(before)
        capsys.readouterr()
        assert run_cli("run", "paper_s5.json", "--runs", "2", "--seed", "1", "--out", str(out)) == 1
        assert f"{out / 'events_0.csv'}: a stale event log" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # with logs, only the runs beyond the new count are stale
        assert run_cli("run", "paper_s5.json", "--runs", "2", "--seed", "1",
                       "--export-events", "--out", str(out)) == 1
        assert f"{out / 'events_2.csv'}: a stale event log" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_left_over_temporary_log_is_overwritten_or_ignored(self, tmp_path):
        # a killed command may leave events_<i>.csv.tmp behind; it is no event log
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        out.mkdir()
        (out / "events_0.csv.tmp").write_text("junk")
        (out / "events_9.csv.tmp").write_text("junk")
        for directory in (out, fresh):
            assert run_cli("run", "paper_s5.json", "--runs", "2", "--seed", "1",
                           "--export-events", "--out", str(directory)) == 0
        assert (out / "events_0.csv").read_bytes() == (fresh / "events_0.csv").read_bytes()
        assert sorted(p.name for p in out.glob("*.tmp")) == ["events_9.csv.tmp"]

    def test_rfq_lines_carry_their_suppliers_lead_time(self, tmp_path):
        doc = json.loads(bundled_scenario_path("paper_s5.json").read_text())
        lead_times = {"A": "1.5", "B": "4.25", "C": "3"}
        for supplier in doc["suppliers"]:
            supplier["spot_lead_time"] = float(lead_times[supplier["id"]])
        path = tmp_path / "lead_times.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--runs", "3", "--seed", "1", "--policy", "dynamic",
                       "--export-events", "--out", str(out)) == 0
        responses = collections.Counter()
        for i in range(3):
            with open(out / f"events_{i}.csv", newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if row["kind"] == "rfq_response":
                        assert row["detail"].endswith(f";lead_time={lead_times[row['supplier_id']]}"), row
                        responses[row["supplier_id"]] += 1
        assert sorted(responses) == ["A", "B", "C"]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        doc = json.loads(bundled_scenario_path("paper_s5.json").read_text())
        del doc["runs"]["master_seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("RTO_SIM_SEED", "777")
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--runs", "2", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["master_seed"] == 777

    def test_flag_seed_beats_file_seed(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "paper_s5.json", "--runs", "2", "--seed", "9",
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["master_seed"] == 9

    def test_failure_exits_nonzero(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "missing.json")) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--runs", "--parallelism"])
    @pytest.mark.parametrize("value", ["0", "x"])
    def test_count_below_one_names_the_flag(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "paper_s5.json", flag, value, "--out", str(tmp_path / "o"))
        assert exit_info.value.code == 2
        assert f"argument {flag}: expected an integer of at least 1, got '{value}'" in capsys.readouterr().err

    def test_matches_the_same_cell_of_compare(self, tmp_path):
        common = ("--runs", "20", "--seed", "5", "--export-events")
        assert run_cli("run", "paper_s5.json", "--policy", "dynamic", "--competition-slope", "0.01",
                       *common, "--out", str(tmp_path / "run")) == 0
        assert run_cli("compare", "paper_s5.json", "--slopes", "0,0.01", *common,
                       "--out", str(tmp_path / "grid")) == 0
        cell = tmp_path / "grid" / "dynamic_slope0.01"
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == sorted(p.name for p in cell.iterdir())
        assert "events_19.csv" in names
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (cell / name).read_bytes(), name


class TestEventExport:
    """Each run's log is written where it is simulated, as it ends, and renamed into place."""

    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        # the pool is capped at the CPU count; pin it, so that on a 1-CPU host
        # a parallel batch still goes to the forked pool
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_peak_memory_does_not_grow_with_runs(self, tmp_path, parallelism):
        def peak(runs):
            tracemalloc.start()
            try:
                assert run_cli("run", "paper_s5.json", "--runs", str(runs), "--seed", "1",
                               "--export-events", "--parallelism", str(parallelism),
                               "--out", str(tmp_path / str(runs))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # warm the caches and imports, which only the first command pays for
        assert peak(200) - peak(50) < 2**20

    @pytest.mark.parametrize("parallelism", [
        1, pytest.param(2, marks=pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                                    reason="workers must inherit the patched run_once")),
    ])
    def test_failed_run_leaves_earlier_logs_and_no_partial_ones(self, tmp_path, capsys, monkeypatch,
                                                               parallelism):
        out = tmp_path / "o"
        command = ("run", "paper_s5.json", "--seed", "1", "--export-events",
                   "--parallelism", str(parallelism), "--out", str(out))
        assert run_cli(*command, "--runs", "1") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert "events_0.csv" in before and not any(name.endswith(".tmp") for name in before)
        real = engine.run_once

        def exploding(scenarios, run_index, master_seed, **kwargs):
            if run_index == 3:
                raise RuntimeError("boom")
            return real(scenarios, run_index, master_seed, **kwargs)

        monkeypatch.setattr(engine, "run_once", exploding)
        capsys.readouterr()
        assert run_cli(*command, "--runs", "8") == 1
        assert "run 3 failed: RuntimeError('boom')" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failure_after_the_batch_leaves_earlier_logs(self, tmp_path, capsys, monkeypatch, command,
                                                         parallelism):
        # every file is renamed into place after the command's last one, so
        # none has replaced an earlier command's when the last cell's
        # summary.json fails: not the logs, nor the files of the cells before
        out = tmp_path / "o"
        argv = (command, "paper_s5.json", "--runs", "2", "--export-events", "--parallelism", str(parallelism),
                "--out", str(out))
        failing = out
        if command == "compare":
            argv += ("--slopes", "0")
            failing = out / "dynamic_slope0"
        assert run_cli(*argv, "--seed", "1") == 0
        earlier = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert sum(path.name.startswith("events_") for path in earlier) == (2 if command == "run" else 4)
        assert (out / "comparison.csv" in earlier) == (command == "compare")
        real = cli.write_summary_json

        def write_summary_json(path, *args):
            if path.parent == failing:
                raise OSError("disk full")
            real(path, *args)

        monkeypatch.setattr(cli, "write_summary_json", write_summary_json)
        assert run_cli(*argv, "--seed", "2") == 1
        assert "disk full" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == earlier


class TestCompareCommand:
    def test_grid_outputs_and_table(self, tmp_path, capsys):
        out = tmp_path / "grid"
        assert run_cli("compare", "paper_s5.json", "--policies", "naive,dynamic",
                       "--slopes", "0,0.01", "--runs", "3", "--seed", "42",
                       "--out", str(out)) == 0
        table = (out / "comparison.csv").read_text().splitlines()
        assert table[0].startswith("policy,slope,runs,mean_cost,median_cost")
        assert len(table) == 5
        for cell in ("naive_slope0", "naive_slope0.01", "dynamic_slope0", "dynamic_slope0.01"):
            assert (out / cell / "runs.csv").exists()
        printed = capsys.readouterr().out
        assert "mean_cost" in printed

    def test_stale_event_logs_in_a_cell_fail_before_the_batch(self, tmp_path, capsys):
        out = tmp_path / "o"
        grid = ("compare", "paper_s5.json", "--policies", "naive,dynamic", "--slopes", "0", "--seed", "1",
                "--out", str(out))
        assert run_cli(*grid, "--runs", "2", "--export-events") == 0
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        capsys.readouterr()
        assert run_cli(*grid, "--runs", "1", "--export-events") == 1
        assert f"{out / 'naive_slope0' / 'events_1.csv'}: a stale event log" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    def test_bad_slope_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("compare", "paper_s5.json", "--slopes", "0,x", "--out", str(tmp_path / "o"))
        assert exit_info.value.code == 2
        assert "argument --slopes: invalid slope 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.fixture
    def failing_second_cell(self, monkeypatch):
        real = cli.write_summary_json

        def write_summary_json(path, *args):
            if path.parent.name == "dynamic_slope0":
                raise OSError("disk full")
            real(path, *args)

        monkeypatch.setattr(cli, "write_summary_json", write_summary_json)

    def test_failure_removes_the_directories_it_created(self, tmp_path, capsys, failing_second_cell):
        out = tmp_path / "new" / "grid"
        assert run_cli("compare", "paper_s5.json", "--slopes", "0", "--runs", "2",
                       "--out", str(out)) == 1
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_an_existing_out_directory(self, tmp_path, failing_second_cell):
        out = tmp_path / "grid"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        assert run_cli("compare", "paper_s5.json", "--slopes", "0", "--runs", "2",
                       "--out", str(out)) == 1
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_single_cell_rejected(self, tmp_path, capsys):
        for grid in (["--policies", "naive", "--slopes", "0"], ["--policies", ","],
                     ["--slopes", ","]):
            with pytest.raises(SystemExit) as exit_info:
                run_cli("compare", "paper_s5.json", *grid, "--runs", "2", "--out", str(tmp_path / "x"))
            assert exit_info.value.code == 2, grid
            err = capsys.readouterr().err
            assert "--policies" in err and "--slopes" in err, grid
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--policies", "naive,greedy", "invalid policy 'greedy'"),
        ("--policies", "naive,naive", "repeated policy 'naive'"),
        ("--policies", "dynamic, naive,dynamic", "repeated policy 'dynamic'"),
        ("--slopes", "0,0.01,0.010", "repeated slope '0.010'"),
        ("--slopes", "0,0.0", "repeated slope '0.0'"),
        ("--slopes", "0,-1", "invalid slope '-1'"),
        ("--slopes", "nan,0", "invalid slope 'nan'"),
        ("--slopes", "inf,0", "invalid slope 'inf'"),
    ], ids=["unknown-policy", "repeated-policy", "repeated-policy-spaced", "repeated-slope",
            "repeated-slope-zero", "negative-slope", "nan-slope", "infinite-slope"])
    def test_bad_or_repeated_grid_value_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("compare", "paper_s5.json", flag, value, "--out", str(tmp_path / "o"))
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_common_random_numbers_across_policies(self, tmp_path):
        # request times and quantities must match per run across policy cells
        out = tmp_path / "grid"
        assert run_cli("compare", "paper_s5.json", "--policies", "naive,dynamic",
                       "--slopes", "0", "--runs", "3", "--seed", "5",
                       "--export-events", "--out", str(out)) == 0
        for run in range(3):
            cells = []
            for cell in ("naive_slope0", "dynamic_slope0"):
                rows = (out / cell / f"events_{run}.csv").read_text().splitlines()[1:]
                cells.append([r for r in rows if r.split(",")[1] == "pr_generation"])
            assert cells[0] == cells[1]
            assert len(cells[0]) > 0

    def test_event_logs_identical_across_parallelism(self, tmp_path):
        # every file, event logs included, whether the logs are written by one
        # process or by worker processes; no temporary log is left
        outputs = []
        for parallelism in (1, 2):
            out = tmp_path / f"par{parallelism}"
            assert run_cli("compare", "paper_s5.json", "--slopes", "0,0.1", "--runs", "12", "--seed", "4",
                           "--export-events", "--parallelism", str(parallelism), "--out", str(out)) == 0
            outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert sum(p.name.startswith("events_") for p in outputs[0]) == 48
        assert not any(p.suffix == ".tmp" for p in outputs[0])
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("source", ["paper_s5", "wide-market"])
    def test_shuffled_scenario_file_gives_identical_outputs(self, tmp_path, monkeypatch, source):
        # entry order in the file carries no meaning; covariates keep theirs,
        # because their terms are summed in list order
        if source == "paper_s5":
            doc = json.loads(bundled_scenario_path("paper_s5.json").read_text())
        else:
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
            from workloads import wide_market_doc

            doc = wide_market_doc(0)
        outputs = []
        for seed in (None, 1, 2):
            path = tmp_path / f"scenario_{seed}.json"
            path.write_text(json.dumps(doc if seed is None else shuffled(doc, random.Random(seed))))
            out = tmp_path / f"out_{seed}"
            assert run_cli("compare", str(path), "--slopes", "0,0.05", "--runs", "20", "--seed", "3",
                           "--export-events", "--out", str(out)) == 0
            outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert len(outputs[0]) > 100
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


def digest_table(out: Path) -> dict[str, str]:
    """sha256 of every file under `out` by relative path; each cell's event logs fold into one digest.

    The fold hashes the logs' "<path> <sha256>" lines in run-index order, as
    perfbench/checks.digest_summary does, under the key `<cell>/events_*.csv`.
    """
    table: dict[str, str] = {}
    logs = collections.defaultdict(list)
    for path in out.rglob("*"):
        if not path.is_file():
            continue
        name, digest = path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name.startswith("events_"):
            logs[path.parent].append((int(path.stem.split("_")[1]), name, digest))
        else:
            table[name] = digest
    for cell, entries in logs.items():
        joined = "".join(f"{name} {digest}\n" for _, name, digest in sorted(entries)).encode()
        table[(cell / "events_*.csv").relative_to(out).as_posix()] = hashlib.sha256(joined).hexdigest()
    return dict(sorted(table.items()))


# Every output file of two small commands, recorded under Python 3.11.7, numpy
# 2.4.6 and glibc 2.36.  A change that alters outputs on purpose pastes in the
# table its failure prints and says so in CHANGES.md.
OUTPUT_DIGESTS = {
    "paper_s5": {
        "comparison.csv": "4e3b441a4afca49bcdc3f3e264babba8219cde106403aff68a050086d42a3d01",
        "dynamic_slope0.1/events_*.csv": "a337172fa8688297b9afca7be61d907a4f654957a74d66f98cfd4ae1231730b4",
        "dynamic_slope0.1/histogram_terminal_cost.csv": "c01b2c38995aef2504577f4ae8399a8ad7ed4e80cbc2944b7799957af51094e5",
        "dynamic_slope0.1/histogram_utilization_A.csv": "ac219f79176d6407fc3819536552162ad527fe74525ca3dd1e2880dcde7c212b",
        "dynamic_slope0.1/histogram_utilization_B.csv": "f3505b497dd1f0da3ac82f500dac32c2e890a8d21091c0fb3fe75e8945366309",
        "dynamic_slope0.1/histogram_utilization_C.csv": "97ddfaaa1bfa55b227f74a8e846a028303be382807fb29fc732485db3b32b36f",
        "dynamic_slope0.1/runs.csv": "0bdc987f6db19f6f7c9503c9a9c9e47107246aa31d63754522cc93dad983a2a5",
        "dynamic_slope0.1/summary.json": "13c16ea15093210f78fcf78cc83d2d5bd5ce6e994f71cf1f713ec8e591b3e335",
        "dynamic_slope0/events_*.csv": "5329369b075af9b6c8efaf1d194bc70504de32bcf3d0e4df19fe79e6a8d0cac4",
        "dynamic_slope0/histogram_terminal_cost.csv": "94462a7124bc0fa4909b46152069d91cd5ce2cf601fda21a4fcd6776ed418cb4",
        "dynamic_slope0/histogram_utilization_A.csv": "ac219f79176d6407fc3819536552162ad527fe74525ca3dd1e2880dcde7c212b",
        "dynamic_slope0/histogram_utilization_B.csv": "e56ac6b2a292e77449918b21bc14b75f0755887601f5e0310df22877349ac525",
        "dynamic_slope0/histogram_utilization_C.csv": "7696c45b61740cbd8e5107b075242256757941238f992b565f4186d3e565c25b",
        "dynamic_slope0/runs.csv": "b07c6e9fd6132c40f834e44ae794ab9fc599d5fac9205dd9a9213016debcb4cd",
        "dynamic_slope0/summary.json": "85e3de04043567026ec3d1e1b3b6cacaee6648ce3120daa5290b76ae1f9a28ec",
        "naive_slope0.1/events_*.csv": "04e1638535e91278d30a41bdea93a8aa9bcb6d6e9776a8ce249ea3f6e1ca32bc",
        "naive_slope0.1/histogram_terminal_cost.csv": "a63c784bc69de4de4df8c2466969419f486a0caad9172bbaf32a345dcdad1552",
        "naive_slope0.1/histogram_utilization_A.csv": "5f17e2f02afc5763c31815cd374120482e06284976cc302a456e54123ac034ba",
        "naive_slope0.1/histogram_utilization_B.csv": "c62c8b3ec81f8cfa03c35e82db3c2fd9c7d3683d6f7ad94d9ebf8d9dacc35470",
        "naive_slope0.1/histogram_utilization_C.csv": "b05493a51bedae0ca0fc2da446b735a3767fdc28c3b4fff6bb09ee1528862206",
        "naive_slope0.1/runs.csv": "bfa03f3ce391eafe90db4792611e09ac65b03f8cda2f8c1751e212a7808bb375",
        "naive_slope0.1/summary.json": "94b7613453145cb5656ee6e8073a45a9169bd92566f9a327516df65cd49b39d7",
        "naive_slope0/events_*.csv": "18f44d89536803235c12b934db2d061d768cc1a852a0cc6ee940ae177ea697df",
        "naive_slope0/histogram_terminal_cost.csv": "7648ed1ff1845eca99f6d7cdba6fd41b65d4b86a0e71a44b56c248892f005c16",
        "naive_slope0/histogram_utilization_A.csv": "5f17e2f02afc5763c31815cd374120482e06284976cc302a456e54123ac034ba",
        "naive_slope0/histogram_utilization_B.csv": "c62c8b3ec81f8cfa03c35e82db3c2fd9c7d3683d6f7ad94d9ebf8d9dacc35470",
        "naive_slope0/histogram_utilization_C.csv": "b05493a51bedae0ca0fc2da446b735a3767fdc28c3b4fff6bb09ee1528862206",
        "naive_slope0/runs.csv": "e5e4c64229ce72f0ff6c3735575d0412a00dfd2fa1d1009747436ed6e62e6de5",
        "naive_slope0/summary.json": "48dde1e3c661479aedc796a8c7cf3e54ec448fc8305a71211ebf5bcc510a3f08",
    },
    "wide-market": {
        "comparison.csv": "3234293025a13545103d0fe83985a1b9c9c6766adf5056d3aed76018dd18e36f",
        "dynamic_slope0.05/histogram_terminal_cost.csv": "3a8b72e3b26ea5b8c69a85b0f47d038d1bab8a7e217a838b3c8f6cdb2484b348",
        "dynamic_slope0.05/histogram_utilization_S2.csv": "84ccb2cc17c1b0572339a74aea55bbe5bb0a3cdac1883cbabe515254beb291a2",
        "dynamic_slope0.05/histogram_utilization_S4.csv": "f171c28b9b05f567be66766f8e6599ae41079d0723ae75adde522acc6650ff18",
        "dynamic_slope0.05/histogram_utilization_S5.csv": "a5bb0107bc3c6368926e7e06399f52100ebffbabf31de012d099827b3ed9be13",
        "dynamic_slope0.05/histogram_utilization_S6.csv": "4fc1bed263513d3794efa4f0b7cfe57e4678e39e9efc6357a8e65b33a0a25b00",
        "dynamic_slope0.05/runs.csv": "4386fe71d357cdce906e30a05ca5af74c77de5d3dd40acef7fc2d82a4f3bf569",
        "dynamic_slope0.05/summary.json": "fef0b013c43ad3f1116eb40c7ed100835d122a5033c9079ac5ca40743a30a44a",
        "dynamic_slope0/histogram_terminal_cost.csv": "0741dedc12c97e15bd1cf543e84d65110d50d0915fb96419c15a5ad8dae224ae",
        "dynamic_slope0/histogram_utilization_S2.csv": "2d475c54c44edd175ad1aea454f2aea32789f98b68e756402f96b971a6075f88",
        "dynamic_slope0/histogram_utilization_S4.csv": "2b2d0dfc2991a180a1fc21402360171abb0b27109f2e12001d5a9dc6dd21944e",
        "dynamic_slope0/histogram_utilization_S5.csv": "2b2d0dfc2991a180a1fc21402360171abb0b27109f2e12001d5a9dc6dd21944e",
        "dynamic_slope0/histogram_utilization_S6.csv": "8299b44c1bbb1b67737fa2f3cbffc2c018a6d30225fc4aae8c91e6464ea48ee6",
        "dynamic_slope0/runs.csv": "09b570156879538ac359fcc44098a8c1555705e3aad2a48025355fd8e67612ec",
        "dynamic_slope0/summary.json": "632df66ec89093e0e3db956a42486d558b4deda5ea54deae6a75404a43cbc013",
        "naive_slope0.05/histogram_terminal_cost.csv": "7699292f3bdd6eba0e57a1d166ba2c64b3345f38306ed416f2ea295fd8f59984",
        "naive_slope0.05/histogram_utilization_S2.csv": "9ba9c3d2857471cf9041fe5c2391026e0dd21412d836f1ae9b0590e0921f94d8",
        "naive_slope0.05/histogram_utilization_S4.csv": "c440301560dce5cd590864e71573254b817cf84854c9426074385dfb062ec0a5",
        "naive_slope0.05/histogram_utilization_S5.csv": "2a996e04f3a3f5cdb96515b3a1c14f6a9ad418b56406b44b6e7d843508515ddf",
        "naive_slope0.05/histogram_utilization_S6.csv": "87e5dcb889ebbb4ec445f1c1c142da267a551eda08b582c8fbd741eb34187528",
        "naive_slope0.05/runs.csv": "52122f6c890a266bebe92bee931b198e3da7056de0c272c0346c75953f2e43e6",
        "naive_slope0.05/summary.json": "f8982b73415eaab59dbacc7ec43000cef1ac8c5c5251cab31dd313eee0a0b109",
        "naive_slope0/histogram_terminal_cost.csv": "09c00f84382a2c15bde790fee9c0d00ddf505ffde1430737ce9b61fd68e7b0ee",
        "naive_slope0/histogram_utilization_S2.csv": "9ba9c3d2857471cf9041fe5c2391026e0dd21412d836f1ae9b0590e0921f94d8",
        "naive_slope0/histogram_utilization_S4.csv": "c440301560dce5cd590864e71573254b817cf84854c9426074385dfb062ec0a5",
        "naive_slope0/histogram_utilization_S5.csv": "2a996e04f3a3f5cdb96515b3a1c14f6a9ad418b56406b44b6e7d843508515ddf",
        "naive_slope0/histogram_utilization_S6.csv": "87e5dcb889ebbb4ec445f1c1c142da267a551eda08b582c8fbd741eb34187528",
        "naive_slope0/runs.csv": "fd3c256a21689c4f45ac45754ef98ff13e8bdb0cfc05927ab16f13b8d7e343cc",
        "naive_slope0/summary.json": "0bc0bec1e6fd56e71ff330ea6af39ddef86d0bd974e06a0033449d6253ef50ae",
    },
}


class TestOutputDigests:
    """Outputs stay byte-identical to the recorded table unless a change declares otherwise."""

    @pytest.mark.parametrize("source", ["paper_s5", "wide-market"])
    def test_outputs_match_the_recorded_digests(self, tmp_path, monkeypatch, source):
        out = tmp_path / "o"
        if source == "paper_s5":
            argv = ("compare", "paper_s5.json", "--slopes", "0,0.1", "--runs", "8", "--seed", "42",
                    "--parallelism", "2", "--export-events")
        else:
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
            from workloads import wide_market_doc

            path = tmp_path / "wide.json"
            path.write_text(json.dumps(wide_market_doc(3)))
            argv = ("compare", str(path), "--slopes", "0,0.05", "--runs", "4", "--seed", "42")
        assert run_cli(*argv, "--out", str(out)) == 0
        actual = digest_table(out)
        assert actual == OUTPUT_DIGESTS[source], (
            f"outputs of {source} changed; the actual table:\n{json.dumps(actual, indent=4)}")


class TestValidateCommand:
    def test_reports_ok(self, capsys):
        assert run_cli("validate", "paper_s5.json") == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_bundled_name_under_a_missing_directory_fails(self, capsys):
        assert run_cli("validate", "/no/such/dir/paper_s5.json") == 1
        assert "scenario file not found: /no/such/dir/paper_s5.json" in capsys.readouterr().err

    def test_invalid_scenario_fails(self, tmp_path, capsys):
        doc = json.loads(bundled_scenario_path("paper_s5.json").read_text())
        doc["contracts"][0]["valid_until"] = doc["contracts"][0]["valid_from"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", str(path)) == 1
        assert "empty validity window" in capsys.readouterr().err


    def test_ids_that_would_share_a_stream_key_fail(self, tmp_path, capsys):
        # vessel V stocking category a:b and vessel V:a stocking category b would
        # both key their clocks V:a:b and draw the same triggers
        hazard = HazardSpec(WeibullBaseline(shape=1.5, scale=12.0))
        categories = tuple(Category(id=c, eligible_suppliers=("S1",), products=(
            Product(id=f"P{i}", family_id="F", baseline_stock=10, depletion_rate=0.5),))
            for i, c in enumerate(("a:b", "b")))
        scenario = Scenario(
            horizon=100.0, catalog=Catalog(categories=categories),
            vessels=(Vessel(id="V", hazards={"a:b": hazard}), Vessel(id="V:a", hazards={"b": hazard})),
            suppliers=(Supplier(id="S1"),),
            spot=SpotModel(rates={("P0", "S1"): SpotRate(5.0), ("P1", "S1"): SpotRate(5.0)}),
        )
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(dump_scenario(ScenarioFile(scenario=scenario))))
        expected = "error: catalog.categories[0].id: id 'a:b' holds the reserved character ':'"
        assert run_cli("validate", str(path)) == 1
        assert expected in capsys.readouterr().err
        assert run_cli("run", str(path), "--runs", "2", "--out", str(tmp_path / "o")) == 1
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_supplier_id_that_would_split_a_csv_field_fails(self, tmp_path, capsys):
        # A,x would add header fields to runs.csv and a comma to a histogram's file name
        text = bundled_scenario_path("paper_s5.json").read_text()
        path = tmp_path / "comma.json"
        path.write_text(text.replace('"A"', '"A,x"'))
        expected = "error: suppliers[0].id: id 'A,x' holds the reserved character ','"
        assert run_cli("validate", str(path)) == 1
        assert expected in capsys.readouterr().err
        assert run_cli("run", str(path), "--runs", "2", "--out", str(tmp_path / "o")) == 1
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBenchmarkTrace:
    def test_traced_run_reaches_every_layer(self, tmp_path):
        # the benchmark's traced path patches layer functions by name; a moved
        # or renamed one would leave its span with no calls
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), "trace", str(tmp_path / "s.csv.gz"),
             "run", "paper_s5.json", "--runs", "3", "--export-events", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["rc"] == 0
        for layer in ("hazards.sample_gap", "demand.build_requisition", "market.make_quote"):
            assert out["layers"][f"{layer}.calls"][0] > 0, layer
        # the walk keeps one sample_gap call per gap and one build_requisition
        # call per trigger: each of paper_s5's 3 clocks, in each of the 3 runs,
        # ends on the one gap that falls past the horizon
        gaps = out["layers"]["hazards.sample_gap.calls"][0]
        assert gaps == out["layers"]["demand.build_requisition.calls"][0] + 9
        assert out["layers"]["hazards.sample_gap.none_frac"][0] * gaps == pytest.approx(9)
        # the engine builds each decision with policy.build_cost_matrix, then solves
        # each replication's in one policy.allocate_batch call, which no span
        # covers, so the single-decision solver spans stay empty
        assert out["layers"]["policy.allocate_min_cost.calls"][0] == 0
        assert out["layers"]["policy.build_cost_matrix.self_s"][0] > 0
        with gzip.open(tmp_path / "s.csv.gz", "rt", encoding="utf-8") as fh:
            spans = collections.Counter(row["name"] for row in csv.DictReader(fh))  # one row per span
        for name in ("cli.main", "cli.load_scenario", "engine.run_batch", "engine.run_once",
                     "engine.stream", "hazards.sample_gap", "demand.build_requisition",
                     "market.terms_snapshot", "market.make_quote", "policy.decide_rfq_scope",
                     "policy.build_cost_matrix", "metrics.record_allocation", "metrics.summarize_batch",
                     "cli.write_runs_csv", "cli.write_summary_json", "cli.write_histogram_csv",
                     "cli.write_events_csv"):
            assert spans[name] >= 1, name
        assert not any(name.startswith("policy.allocate_min_cost") for name in spans)

    def test_every_patched_name_resolves(self, monkeypatch):
        # install_spans rebinds each traced function on every module that looks
        # it up; on a module that lacks the name, setattr would add it unseen
        # instead of tracing a call.  With a tracer that wraps nothing, every
        # namespace must therefore come out exactly as it went in
        from rto_sim import demand, engine, hazards, market, metrics, policy

        class PassThrough:
            def __init__(self):
                self.names = []

            def wrap(self, name, fn, **options):
                self.names.append(name)
                return fn

            def count(self, key, amount=1):
                pass

        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
        spec = importlib.util.spec_from_file_location("perfbench_child", path)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        owners = (cli, demand, engine, hazards, market, metrics, policy, engine.RngPlan, market.ContractBook)

        def bindings():
            return [{name: id(value) for name, value in vars(owner).items()} for owner in owners]

        before = bindings()
        tracer = PassThrough()
        assert child.install_spans(tracer) is cli.main
        assert bindings() == before
        assert {"policy.allocate_min_cost", "policy.build_cost_matrix", "engine.run_once"} <= set(tracer.names)
