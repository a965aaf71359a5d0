"""Contract-book lookup and spot-market quote synthesis."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .domain import Contract, Requisition, SpotModel

__all__ = [
    "ContractBook",
    "make_quote",
    "scope_quote",
]

MIN_SPOT_RATE = 0.01  # floor keeps Gaussian noise from producing negative prices


class ContractBook:
    """Immutable (product, supplier, time) index over a contract list."""

    def __init__(self, contracts: Iterable[Contract]):
        self._by_pair: dict[tuple[str, str], list[Contract]] = {}
        for contract in contracts:
            for product_id in contract.product_rates:
                self._by_pair.setdefault((product_id, contract.supplier_id), []).append(contract)
        for spans in self._by_pair.values():
            spans.sort(key=lambda c: c.valid_from)

    def terms_snapshot(self, product_ids: Iterable[str], supplier_ids: Iterable[str],
                       t: float) -> dict[str, dict[str, float]]:
        """Active contract terms at time t: product -> supplier -> unit rate.

        A contract is active over its half-open window valid_from <= t < valid_until.
        """
        snapshot: dict[str, dict[str, float]] = {}
        for product_id in product_ids:
            terms = {}
            for supplier_id in supplier_ids:
                for contract in self._by_pair.get((product_id, supplier_id), ()):
                    if contract.valid_from <= t < contract.valid_until:
                        terms[supplier_id] = contract.product_rates[product_id]
                        break
            if terms:
                snapshot[product_id] = terms
        return snapshot


def make_quote(model: SpotModel, requisition: Requisition, supplier_id: str,
               response_time: float, rng, *, category_product_ids: Sequence[str]) -> dict[str, float]:
    """One supplier's RFQ response: the base unit rate of every requested item.

    A rate is the seasonal curve plus Gaussian noise, floored at 0.01.  Noise
    is drawn once per product of `category_product_ids`, in that order and in
    one call, which draws what one scalar call per product would, so a
    dedicated (request, supplier) stream gives an item the same rate whatever
    else is requested.
    """
    rates, noise_sd = model.rates, model.noise_sd
    noise: dict[str, float] = {}
    if noise_sd > 0.0:
        noise = dict(zip(category_product_ids, rng.standard_normal(len(category_product_ids)).tolist()))
    angle = 2.0 * math.pi * response_time / model.period  # of every curve, before its phase
    unit_rates: dict[str, float] = {}
    for product_id in requisition.items:
        curve = rates[(product_id, supplier_id)]
        rate = curve.baseline + curve.amplitude * math.cos(angle + curve.phase)
        rate += noise_sd * noise.get(product_id, 0.0)
        unit_rates[product_id] = max(rate, MIN_SPOT_RATE)
    return unit_rates


def scope_quote(bases: Mapping[str, Mapping[str, float]], requisition: Requisition, items: Sequence[str],
                model: SpotModel) -> dict[str, dict[str, float]]:
    """Each supplier's base rates (supplier -> item -> rate) cut to an RFQ item scope, marked up.

    Under per_item a rate rises linearly with the quantity requested.  The
    per_supplier_total markup depends on the allocation; the solver adds it,
    so here the slope is 0.0, which leaves every rate (all >= 0.01) unchanged.
    """
    if not items:
        raise ValueError("RFQ issued with an empty item scope")
    quantities = requisition.items
    slope = model.competition_slope if model.competition_basis == "per_item" else 0.0
    return {supplier_id: {item: base[item] + slope * quantities[item] for item in items}
            for supplier_id, base in bases.items()}
