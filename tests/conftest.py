"""Shared fixtures and deterministic test scaffolding."""

from __future__ import annotations

import collections.abc
import math
import random
import types
import typing
from typing import Any, Sequence

import numpy as np
import pytest

from rto_sim.cli import (
    _KINDS,
    _SCALARS,
    _SPOT_RATE_KEY,
    SCHEMA_VERSION,
    OutputConfig,
    RunsConfig,
    ScenarioFile,
    _members,
    bundled_scenario_path,
    load_scenario,
)
from rto_sim.domain import (
    Catalog,
    Category,
    Contract,
    DelayConfig,
    PolicyKind,
    Product,
    Scenario,
    SpotModel,
    SpotRate,
    Supplier,
    Vessel,
)
from rto_sim.engine import RngPlan
from rto_sim.hazards import ConstantBaseline, CovariateTerm, HazardSpec, WeibullBaseline

# U such that -mean*ln(1-U) == mean: forces an exponential draw to its mean
U_MEAN = 1.0 - 1.0 / math.e


def u_for_delay(delay: float, mean: float) -> float:
    """Uniform draw that makes sample_exponential_delay(mean, ...) return `delay`."""
    return 1.0 - math.exp(-delay / mean)


class StubRng:
    """Scripted stand-in for a numpy Generator: pops queued draws, one or `size` at a time."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)

    def random(self, size=None):
        return self.uniforms.pop(0) if size is None else _take(self.uniforms, size)

    def standard_normal(self, size=None):
        return self.normals.pop(0) if size is None else _take(self.normals, size)


def _take(queue: list, size: int) -> np.ndarray:
    """The next `size` scripted draws as an array, or as many as are left."""
    taken, queue[:size] = queue[:size], []
    return np.array(taken, dtype=float)


class FakePlan:
    """RngPlan lookalike serving scripted streams for chosen (purpose, entity) pairs."""

    def __init__(self, master_seed: int = 0, scripts=None):
        self._plan = RngPlan(master_seed)
        self.scripts = dict(scripts or {})

    def stream(self, run_index: int, purpose: str, entity: str = ""):
        key = (purpose, entity)
        if key in self.scripts:
            return self.scripts[key]
        return self._plan.stream(run_index, purpose, entity)


@pytest.fixture(scope="session")
def paper_file():
    return load_scenario(bundled_scenario_path("paper_s5.json"))


@pytest.fixture(scope="session")
def paper_scenario(paper_file):
    return paper_file.scenario


def count_local_maxima(counts: Sequence[float], smooth_window: int = 1) -> int:
    """Local maxima of a histogram after moving-average smoothing.

    Runs of equal smoothed values collapse to one candidate; a run counts as a
    maximum when it sits above both neighbours (edges compare to the single
    inner neighbour).
    """
    n = len(counts)
    if n == 0:
        return 0
    half = max(0, smooth_window // 2)
    # edge replication keeps every window the same length; truncated windows
    # would alias jitter into spurious edge peaks
    padded = [counts[0]] * half + list(counts) + [counts[-1]] * half
    width = 2 * half + 1
    smoothed = [sum(padded[i:i + width]) / width for i in range(n)]
    levels: list[float] = []
    for v in smoothed:
        if not levels or v != levels[-1]:
            levels.append(v)
    peaks = 0
    for i, v in enumerate(levels):
        left_lower = i == 0 or levels[i - 1] < v
        right_lower = i == len(levels) - 1 or levels[i + 1] < v
        if left_lower and right_lower and len(levels) > 1:
            peaks += 1
    return peaks


_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def _encode(hint: Any, value: Any) -> Any:
    if value is None or hint in _SCALARS:
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType and type(None) in args:
        return _encode(args[0], value)
    if origin is types.UnionType:
        return {"kind": _KIND_OF[type(value)], **_encode(type(value), value)}
    if origin is tuple:
        return [_encode(args[0], v) for v in value]
    if origin is collections.abc.Mapping and args[0] is str:
        return {k: _encode(args[1], v) for k, v in sorted(value.items())}
    if origin is collections.abc.Mapping:
        return [{**dict(zip(_SPOT_RATE_KEY, key)), **_encode(args[1], v)} for key, v in sorted(value.items())]
    return {m.key: _encode(m.hint, getattr(value, m.name)) for m in _members(hint)}


def dump_scenario(sf: ScenarioFile) -> dict:
    """Inverse of rto_sim.cli.parse_scenario: a JSON-ready document that parses back equal."""
    return {"schema_version": SCHEMA_VERSION, **_encode(Scenario, sf.scenario),
            "runs": _encode(RunsConfig, sf.runs), "output": _encode(OutputConfig, sf.output)}


def single_product_scenario(*, contracted: bool, horizon: float = 100.0,
                            commitment: int = 0) -> Scenario:
    """One vessel, one product, one supplier; used by the forced-sequence tests."""
    catalog = Catalog(categories=(
        Category(id="cat", eligible_suppliers=("S1",), products=(
            Product(id="P", family_id="F", baseline_stock=10, depletion_rate=0.5),
        )),
    ))
    contracts = ()
    if contracted:
        contracts = (Contract(supplier_id="S1", product_rates={"P": 5.0}, lead_time=2.0,
                              valid_from=0.0, valid_until=horizon, volume_commitment=commitment),)
    return Scenario(
        horizon=horizon,
        catalog=catalog,
        vessels=(Vessel(id="V", hazards={"cat": HazardSpec(ConstantBaseline(rate=0.01))}),),
        suppliers=(Supplier(id="S1"),),
        contracts=contracts,
        spot=SpotModel(rates={("P", "S1"): SpotRate(baseline=5.0)}, noise_sd=0.0),
        policy=PolicyKind(kind="naive"),
        delays=DelayConfig(),
    )


def three_supplier_spot_scenario(horizon: float = 100.0) -> Scenario:
    """One vessel, one uncontracted product, three spot suppliers."""
    catalog = Catalog(categories=(
        Category(id="cat", eligible_suppliers=("S1", "S2", "S3"), products=(
            Product(id="P", family_id="F", baseline_stock=10, depletion_rate=0.5),
        )),
    ))
    rates = {("P", "S1"): SpotRate(5.0), ("P", "S2"): SpotRate(6.0), ("P", "S3"): SpotRate(7.0)}
    return Scenario(
        horizon=horizon,
        catalog=catalog,
        vessels=(Vessel(id="V", hazards={"cat": HazardSpec(ConstantBaseline(rate=0.01))}),),
        suppliers=(Supplier(id="S1"), Supplier(id="S2"), Supplier(id="S3")),
        contracts=(),
        spot=SpotModel(rates=rates, noise_sd=0.0),
        policy=PolicyKind(kind="naive"),
        delays=DelayConfig(),
    )


def uniform_market_scenario(n_suppliers: int, n_products: int, *, basis: str = "per_supplier_total",
                            slope: float = 0.05, kind: str = "naive", holders: int = 0) -> Scenario:
    """One category with every supplier eligible and no vessels.

    The first `holders` suppliers hold a contract on every product.
    """
    suppliers = [f"S{i:02d}" for i in range(n_suppliers)]
    products = [f"P{i:02d}" for i in range(n_products)]
    return Scenario(
        horizon=100.0,
        catalog=Catalog(categories=(Category(id="cat", eligible_suppliers=tuple(suppliers), products=tuple(
            Product(id=p, family_id="F", baseline_stock=10, depletion_rate=0.5) for p in products)),)),
        vessels=(),
        suppliers=tuple(Supplier(id=s) for s in suppliers),
        contracts=tuple(Contract(supplier_id=s, product_rates=dict.fromkeys(products, 5.0),
                                 valid_from=0.0, valid_until=100.0) for s in suppliers[:holders]),
        spot=SpotModel(rates={(p, s): SpotRate(baseline=5.0) for p in products for s in suppliers},
                       competition_slope=slope, competition_basis=basis),
        policy=PolicyKind(kind=kind),
    )


def random_scenario(seed: int) -> Scenario:
    """Small structurally valid scenario with randomized shape, for invariant sweeps."""
    rng = random.Random(seed)
    n_products = rng.randint(1, 4)
    n_suppliers = rng.randint(2, 3)
    supplier_ids = [f"S{i}" for i in range(n_suppliers)]
    horizon = rng.uniform(60.0, 250.0)

    products = tuple(
        Product(id=f"P{i}", family_id=f"F{i % 2}",
                baseline_stock=rng.randint(20, 120),
                depletion_rate=rng.uniform(0.05, 0.6))
        for i in range(n_products)
    )
    category = Category(id="cat", products=products, eligible_suppliers=tuple(supplier_ids))

    vessels = []
    for v in range(rng.randint(1, 2)):
        if rng.random() < 0.3:
            baseline = ConstantBaseline(rate=rng.uniform(0.02, 0.2))
        else:
            baseline = WeibullBaseline(shape=rng.uniform(0.8, 2.5), scale=rng.uniform(5.0, 25.0))
        covariates = ()
        if rng.random() < 0.5:
            covariates = (CovariateTerm(coefficient=rng.uniform(-0.5, 0.5), amplitude=1.0,
                                        period=365.0, phase=rng.uniform(-math.pi, math.pi)),)
        vessels.append(Vessel(id=f"V{v}", hazards={"cat": HazardSpec(baseline, covariates)}))

    contracts = []
    for sid in supplier_ids:
        if rng.random() < 0.6:
            covered = [p.id for p in products if rng.random() < 0.7]
            if not covered:
                covered = [products[0].id]
            start = rng.uniform(0.0, horizon * 0.4)
            contracts.append(Contract(
                supplier_id=sid,
                product_rates={pid: rng.uniform(8.0, 15.0) for pid in covered},
                lead_time=rng.uniform(1.0, 5.0),
                valid_from=start,
                valid_until=start + rng.uniform(horizon * 0.2, horizon),
                volume_commitment=rng.randint(0, 120),
            ))

    spot_rates = {
        (p.id, sid): SpotRate(baseline=rng.uniform(8.0, 14.0),
                              amplitude=rng.uniform(0.0, 3.0),
                              phase=rng.uniform(-math.pi, math.pi))
        for p in products for sid in supplier_ids
    }
    spot = SpotModel(
        rates=spot_rates,
        period=365.0,
        noise_sd=rng.choice([0.0, 0.5, 1.0]),
        competition_slope=rng.choice([0.0, 0.01, 0.1]),
        competition_basis="per_supplier_total" if rng.random() < 0.2 else "per_item",
    )

    return Scenario(
        horizon=horizon,
        catalog=Catalog(categories=(category,)),
        vessels=tuple(vessels),
        suppliers=tuple(Supplier(id=sid, spot_lead_time=rng.uniform(1.0, 6.0)) for sid in supplier_ids),
        contracts=tuple(contracts),
        spot=spot,
        policy=PolicyKind(kind=rng.choice(["naive", "dynamic"]), po_overhead=rng.choice([0.0, 10.0, 25.0])),
        delays=DelayConfig(),
    )
