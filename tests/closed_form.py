"""The single-period closed form's value, kept as the tests' oracle.

With price p, unit cost c and salvage s < p, the expected end-of-period net
worth of ordering q >= 0 from state (x, y) is

    G(q, x, y) = p(x+q) - (p-s) T(x+q) + B(c(y-q)),

where T(z) = E[(z - D)^+] and B values the signed bank position: a(1+i)
for a deposit a >= 0, a(1+l) for a loan, or a tiered schedule's rate.
G is concave in q, and the two-threshold rule maximizes it. The solvers
read only that rule's order (`single_period.optimal_order`); the value, the
tiered and the capped single-period rules, and the demand's cdf and loss
live here, where no solver can call them, and the tests hold every
solver's last period against them.

Not a test module: the tests import it as they import conftest.
"""

from dataclasses import replace

import numpy as np

from cashstock.demand import Uniform
from cashstock.single_period import fractiles, optimal_order, order_bands


def cdf(demand, t):
    """P(D <= t)."""
    t = np.asarray(t, dtype=float)
    if isinstance(demand, Uniform):
        return np.clip((t - demand.lo) / (demand.hi - demand.lo), 0.0, 1.0)
    return (demand.atoms <= t[..., None]) @ demand.probs


def loss(demand, x):
    """Expected leftover E[(x - D)^+]."""
    x = np.asarray(x, dtype=float)
    if isinstance(demand, Uniform):
        # (x - lo)^2 / (2 (hi - lo)) on the support, x - mean above it
        inside = np.clip(x, demand.lo, demand.hi) - demand.lo
        return 0.5 * inside ** 2 / (demand.hi - demand.lo) + np.maximum(x - demand.hi, 0.0)
    return np.maximum(x[..., None] - demand.atoms, 0.0) @ demand.probs


def G(q, x, y, params, salvage, demand, bank=None):
    """Expected end-of-period net worth of ordering q >= 0 from (x, y).

    `bank` maps the currency bank position c(y - q) to its end-of-period
    value, as `dp._next_state`'s does; by default the two-rate term."""
    q = np.asarray(q, dtype=float)
    if np.any(q < -1e-12):
        raise ValueError("order quantity must be nonnegative")
    amount = params.cost * (y - q)
    if bank is None:
        flow = np.minimum(amount * (1.0 + params.deposit_rate),
                          amount * (1.0 + params.loan_rate))
    else:
        flow = bank(amount)
    z = x + q
    return params.price * z - (params.price - salvage) * loss(demand, z) + flow


def value(x, y, params, salvage, demand):
    """max_q G(q, x, y), at the two-threshold rule's order. With q = 0 and
    y < 0 the debt accrues at the loan rate."""
    bands = order_bands(fractiles(params, salvage), demand)
    return G(optimal_order(x, y, bands), x, y, params, salvage, demand)


def capped_order(x, y, bands, capacity):
    """The rule's order cut to cash plus loan capacity, y^+ + capacity: G is
    concave in q, so the cut order is the best feasible one."""
    return np.minimum(optimal_order(x, y, bands), np.maximum(y, 0.0) + capacity)


def tier_levels(params, salvage, schedule, demand):
    """(borrow levels per loan tier, deposit levels per deposit tier): a
    tier's level is the base model's at the tier's rate, 0 where that rate
    makes ordering unprofitable."""

    def bands(**rate):
        return order_bands(fractiles(replace(params, **rate), salvage), demand)

    return (tuple(bands(loan_rate=r).borrow for r in schedule.loan_rates),
            tuple(bands(deposit_rate=r).deposit for r in schedule.deposit_rates))


def tier_flow(schedule):
    """The tiered bank term: a position a is the loan balance -a, held at the
    rate of the tier with lowest < -a <= highest (`schedule.tiers`)."""
    rates, _, highest = (np.array(column) for column in zip(*schedule.tiers))
    return lambda amount: amount * (1.0 + rates[np.searchsorted(highest, -np.asarray(amount))])


def tier_order(x, y, params, salvage, schedule, demand):
    """The tiered single-period rule, exactly. On each tier G is concave with
    its maximum at the tier's level, so the best order is among zero, the
    cash on hand and each tier's level clamped to the orders it holds; ties
    go to the smallest order."""
    borrow, deposit = tier_levels(params, salvage, schedule, demand)
    qs = [0.0, max(y, 0.0)]
    for (_, lowest, highest), level in zip(schedule.tiers, (*deposit[::-1], *borrow)):
        # the orders q >= 0 whose balance c(q - y) the tier holds; existing
        # debt (y < 0) counts toward it
        lo, hi = max(y + lowest / params.cost, 0.0), y + highest / params.cost
        if lo <= hi:
            qs.append(float(np.clip(level - x, lo, hi)))
    qs = np.unique(qs)
    vals = G(qs, x, y, params, salvage, demand, tier_flow(schedule))
    best = vals.max()
    return float(qs[np.argmax(vals >= best - 1e-9 * (1.0 + abs(best)))])
