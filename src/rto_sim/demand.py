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
    "build_requisition",
]


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
    for product_id, q0, depletion_rate in category.stock_terms:
        # the stock level depletes linearly since the last restock, clamped at
        # zero as max(0.0, level) would; the inclusion probability is the
        # depleted fraction of q0
        level = q0 - depletion_rate * (t - last_replenished[product_id])
        level = level if level > 0.0 else 0.0
        if rng.random() < (q0 - level) / q0:
            items[product_id] = math.ceil(q0 - level)
    if not items:
        return None
    for product_id in items:
        last_replenished[product_id] = t
    return Requisition(pr_id, vessel.id, category.id, t, items)  # items in product order, each >= 1

