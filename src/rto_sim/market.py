"""Contract-book lookup and spot-market quote synthesis."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .domain import Contract, Quote, Requisition, SpotModel, SpotRate

__all__ = [
    "ContractBook",
    "competition_adjust",
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

    def lookup(self, product_id: str, supplier_id: str, t: float) -> float | None:
        """Contracted unit rate if a contract covering the product is active at t."""
        for contract in self._by_pair.get((product_id, supplier_id), ()):
            if contract.active_at(t):
                return contract.product_rates[product_id]
        return None

    def terms_snapshot(self, product_ids: Iterable[str], supplier_ids: Iterable[str],
                       t: float) -> dict[str, dict[str, float]]:
        """Active contract terms at time t: product -> supplier -> unit rate."""
        snapshot: dict[str, dict[str, float]] = {}
        for product_id in product_ids:
            terms = {}
            for supplier_id in supplier_ids:
                hit = self.lookup(product_id, supplier_id, t)
                if hit is not None:
                    terms[supplier_id] = hit
            if terms:
                snapshot[product_id] = terms
        return snapshot


def _seasonal_rate(params: SpotRate, period: float, t: float) -> float:
    return params.baseline + params.amplitude * math.cos(2.0 * math.pi * t / period + params.phase)


def competition_adjust(rate: float, slope: float, quantity: int) -> float:
    """Quantity-sensitive markup: spot rates rise linearly with the amount requested."""
    if quantity < 1:
        raise ValueError("quantity must be at least 1")
    return rate + slope * quantity


def make_quote(model: SpotModel, requisition: Requisition, supplier_id: str,
               response_time: float, rng, *, category_product_ids: Iterable[str],
               lead_time: float) -> Quote:
    """One supplier's RFQ response at base rates for every requested item.

    A rate is the seasonal curve plus Gaussian noise, floored at 0.01.  Noise
    is drawn once per product of `category_product_ids` in that order, so a
    dedicated (request, supplier) stream gives an item the same rate whatever
    else is requested.
    """
    noise: dict[str, float] = {}
    if model.noise_sd > 0.0:
        for product_id in category_product_ids:
            noise[product_id] = rng.standard_normal()
    unit_rates: dict[str, float] = {}
    for product_id in requisition.items:
        rate = _seasonal_rate(model.rates[(product_id, supplier_id)], model.period, response_time)
        rate += model.noise_sd * noise.get(product_id, 0.0)
        unit_rates[product_id] = max(rate, MIN_SPOT_RATE)
    return Quote(unit_rates=unit_rates, lead_time=lead_time)


def scope_quote(base: Quote, requisition: Requisition, items: Sequence[str],
                model: SpotModel) -> Quote:
    """A base-rate quote cut to an RFQ item scope, with the per_item competition markup.

    The per_supplier_total markup depends on the allocation; the solver adds it.
    """
    if not items:
        raise ValueError("RFQ issued with an empty item scope")
    rates = base.unit_rates
    slope = model.competition_slope if model.competition_basis == "per_item" else None
    unit_rates = {item: rates[item] if slope is None
                  else competition_adjust(rates[item], slope, requisition.items[item])
                  for item in items}
    return Quote(unit_rates=unit_rates, lead_time=base.lead_time)
