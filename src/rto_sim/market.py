"""Contract-book lookup and spot-market quote synthesis."""

from __future__ import annotations

import math
from typing import Iterable

from .domain import Contract, Quote, Requisition, SpotModel, SpotRate

__all__ = [
    "ContractBook",
    "spot_rate",
    "competition_adjust",
    "make_quote",
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

    def lookup(self, product_id: str, supplier_id: str, t: float) -> tuple[float, float] | None:
        """Contracted (rate, lead time) if a contract covering the product is active at t."""
        for contract in self._by_pair.get((product_id, supplier_id), ()):
            if contract.active_at(t):
                return contract.product_rates[product_id], contract.lead_time
        return None

    def terms_snapshot(self, product_ids: Iterable[str], supplier_ids: Iterable[str],
                       t: float) -> dict[str, dict[str, tuple[float, float]]]:
        """Active contract terms at time t: product -> supplier -> (rate, lead time)."""
        snapshot: dict[str, dict[str, tuple[float, float]]] = {}
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


def spot_rate(model: SpotModel, product_id: str, supplier_id: str, t: float, rng) -> float:
    """One spot unit-rate draw: seasonal curve plus Gaussian noise, floored at 0.01."""
    rate = _seasonal_rate(model.rates[(product_id, supplier_id)], model.period, t)
    if model.noise_sd > 0.0:
        rate += model.noise_sd * rng.standard_normal()
    return max(rate, MIN_SPOT_RATE)


def competition_adjust(rate: float, slope: float, quantity: int) -> float:
    """Quantity-sensitive markup: spot rates rise linearly with the amount requested."""
    if quantity < 1:
        raise ValueError("quantity must be at least 1")
    return rate + slope * quantity


def make_quote(model: SpotModel, requisition: Requisition, supplier_id: str,
               response_time: float, rng, *, items: Iterable[str] | None = None,
               category_product_ids: Iterable[str] | None = None,
               lead_time: float) -> Quote:
    """Synthesize one supplier's RFQ response at its response time.

    `items` restricts the quote to a subset of the requisition (default: all
    included items).  Noise is drawn once per product of `category_product_ids`
    in that order, whether quoted or not, so a dedicated (request, supplier)
    stream produces identical rates for an item regardless of which other
    items end up in the quoting scope.  Per-item competition markup is applied
    here; under the per_supplier_total basis rates stay unadjusted because the
    markup depends on the final allocation.
    """
    quoted = sorted(requisition.items if items is None else items)
    if not quoted:
        raise ValueError("RFQ issued with an empty item scope")
    draw_order = tuple(category_product_ids) if category_product_ids is not None else tuple(quoted)
    noise: dict[str, float] = {}
    if model.noise_sd > 0.0:
        for product_id in draw_order:
            noise[product_id] = rng.standard_normal()
    unit_rates: dict[str, float] = {}
    for product_id in quoted:
        rate = _seasonal_rate(model.rates[(product_id, supplier_id)], model.period, response_time)
        rate += model.noise_sd * noise.get(product_id, 0.0)
        rate = max(rate, MIN_SPOT_RATE)
        if model.competition_basis == "per_item":
            rate = competition_adjust(rate, model.competition_slope, requisition.items[product_id])
        unit_rates[product_id] = rate
    return Quote(supplier_id=supplier_id, responded_at=response_time,
                 unit_rates=unit_rates, lead_time=lead_time)
