"""Requisition generation from latent shipboard inventories.

Triggers come from a renewal clock per (vessel, category) that resets at each
request (`hazards.sample_gap`).  Content comes from a replenishment model:
stock depletes linearly, the chance of including a product grows with the
depleted fraction, and included products are restocked to their baseline
level.
"""

from __future__ import annotations

import math

from .domain import Category, Requisition, Vessel

__all__ = [
    "inventory_level",
    "propensity",
    "build_requisition",
]


def inventory_level(q0: int, depletion_rate: float, t: float, t_last: float) -> float:
    """Linear depletion since the last restock, clamped at zero so it stays a valid stock level."""
    if t < t_last:
        raise ValueError("query time precedes last replenishment")
    return max(0.0, q0 - depletion_rate * (t - t_last))


def propensity(q0: int, level: float) -> float:
    """Inclusion probability: the depleted fraction of baseline stock."""
    if q0 <= 0:
        raise ValueError("baseline stock must be positive")
    if level < 0 or level > q0:
        raise ValueError("level outside [0, q0]")
    return (q0 - level) / q0


def build_requisition(vessel: Vessel, category: Category, last_replenished: dict[str, float],
                      t: float, rng, pr_id: str = "") -> Requisition | None:
    """Sample the content of a request triggered at time t; None when nothing is included.

    `last_replenished` maps each product id to its last restock day; stock
    levels derive from it.  Inclusion is decided per product by inverse
    transform (include iff U < p), consuming exactly one draw per product
    regardless of outcome, so a fixed stream yields comparable draws across
    scenarios.  Included products are restocked to baseline (quantity =
    depleted amount, rounded up, restock day t); `last_replenished` is
    untouched when the draw comes up empty.
    """
    items: dict[str, int] = {}
    for product in category.products:
        level = inventory_level(product.baseline_stock, product.depletion_rate,
                                t, last_replenished[product.id])
        p = propensity(product.baseline_stock, level)
        if rng.random() < p:
            items[product.id] = math.ceil(product.baseline_stock - level)
    if not items:
        return None
    for product_id in items:
        last_replenished[product_id] = t
    return Requisition(id=pr_id, vessel_id=vessel.id, category_id=category.id,
                       created_at=t, items=items)

