"""Closed-form solution of the one-period ordering/financing problem.

With selling price p, unit cost c, salvage s < p, deposit rate i and loan
rate l, the expected end-of-period net worth of ordering q from state (x, y)
is

    G(q, x, y) = p(x+q) - (p-s) T(x+q)
                 + c (y-q) [(1+i) if q <= y else (1+l)],

where T(z) = E[(z - D)^+]. G is concave in q, and the maximizer follows a
two-threshold rule: order up to the deposit-financed level when net worth is
high, spend exactly the available cash in between, and order up to the
loan-financed level when net worth is low.

The same closed form with a modified salvage value gives the two myopic
policies that bracket the multi-period levels of every period before the
last:

* lower: leftover stock is charged only its holding cost (s = -h),
* upper: leftover stock is additionally credited next period's unit cost
  (s = c_next - h), a fictitious liquidation that requires
  c(1+l) + h >= c_next to preclude unbounded stocking.

Both collapse to the plain single-period solution in the final period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import Demand
from .model import HorizonSpec, PeriodParams


@dataclass(frozen=True)
class CriticalRatios:
    """Probability levels whose demand quantiles are the two order-up-to levels.

    borrow = (p - c(1+l)) / (p - s),  deposit = (p - c(1+i)) / (p - s);
    borrow <= deposit since i <= l.
    """

    borrow: float
    deposit: float


@dataclass(frozen=True)
class OrderBands:
    """Order-up-to levels: `borrow` financed by a loan, `deposit` by cash."""

    borrow: float
    deposit: float


def fractiles(params: PeriodParams, salvage: float) -> CriticalRatios:
    if salvage >= params.price:
        raise ValueError(f"salvage {salvage} must be below price {params.price}")
    span = params.price - salvage
    borrow = (params.price - params.cost * (1.0 + params.loan_rate)) / span
    deposit = (params.price - params.cost * (1.0 + params.deposit_rate)) / span
    return CriticalRatios(borrow, deposit)


def order_bands(ratios: CriticalRatios, demand: Demand) -> OrderBands:
    """Demand quantiles at the critical ratios (clipped into [0, 1])."""
    borrow = float(demand.quantile(min(max(ratios.borrow, 0.0), 1.0)))
    deposit = float(demand.quantile(min(max(ratios.deposit, 0.0), 1.0)))
    return OrderBands(borrow, deposit)


def expected_value_G(q, x, y, params: PeriodParams, salvage: float, demand: Demand):
    """Expected end-of-period net worth of ordering q >= 0 from (x, y)."""
    q = np.asarray(q, dtype=float)
    if np.any(q < -1e-12):
        raise ValueError("order quantity must be nonnegative")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    z = x + q
    revenue = params.price * z - (params.price - salvage) * demand.loss(z)
    rate = np.where(q <= y, 1.0 + params.deposit_rate, 1.0 + params.loan_rate)
    return revenue + params.cost * (y - q) * rate


def optimal_order(x, y, bands: OrderBands):
    """Two-threshold rule on net worth x + y; ties go to the deposit branch."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    worth = x + y
    return np.where(
        worth >= bands.deposit,
        np.maximum(bands.deposit - x, 0.0),
        np.where(worth >= bands.borrow, np.maximum(y, 0.0), np.maximum(bands.borrow - x, 0.0)),
    )


def value_closed_form(x, y, params: PeriodParams, salvage: float, demand: Demand):
    """max_q G(q, x, y), evaluated analytically at the threshold-rule order.

    Handles negative capital too: with q* = 0 and y < 0 the debt accrues at
    the loan rate, which the branch-wise threshold formula glosses over.
    """
    bands = order_bands(fractiles(params, salvage), demand)
    return expected_value_G(optimal_order(x, y, bands), x, y, params, salvage, demand)


def _myopic_pair(horizon: HorizonSpec, n: int, salvage: float) -> OrderBands:
    return order_bands(fractiles(horizon.period(n), salvage), horizon.demand_in(n))


def myopic_lower(horizon: HorizonSpec, n: int) -> OrderBands:
    """Holding-cost-only single-period levels; bound the true levels below."""
    salvage = -horizon.period(n).holding if n < horizon.n_periods else horizon.salvage
    return _myopic_pair(horizon, n, salvage)


def myopic_upper(horizon: HorizonSpec, n: int) -> OrderBands:
    """Liquidation-credit single-period levels; bound the true levels above."""
    if n >= horizon.n_periods:
        return _myopic_pair(horizon, n, horizon.salvage)
    shortfall = horizon.liquidation_shortfall(n)
    if shortfall:
        raise ValueError(shortfall)
    return _myopic_pair(horizon, n, horizon.period(n + 1).cost - horizon.period(n).holding)


def myopic_bands(horizon: HorizonSpec, which: str) -> list[OrderBands]:
    """The myopic policy's bands in every period, period 1 first: `which` is
    "lower" (holding cost only) or "upper" (liquidation credit)."""
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    pick = myopic_lower if which == "lower" else myopic_upper
    return [pick(horizon, n) for n in range(1, horizon.n_periods + 1)]
