"""Closed-form order of the one-period ordering/financing problem.

With selling price p, unit cost c, salvage s < p, deposit rate i and loan
rate l, the expected end-of-period net worth of ordering q from state (x, y)
is concave in q, and the maximizer follows a two-threshold rule: order up
to the deposit-financed level when net worth is high, spend exactly the
available cash in between, and order up to the loan-financed level when net
worth is low. The levels are demand quantiles at two critical ratios. The
solvers read only this order; the objective G and its maximum are the
tests' oracle (tests/closed_form.py).

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


def optimal_order(x, y, bands: OrderBands):
    """Two-threshold rule on net worth x + y; ties go to the deposit branch.

    With borrow <= deposit the rule is max(min(max(y, borrow - x),
    deposit - x), 0): up to the deposit level when x + y >= deposit, the
    cash y in between, up to the borrow level below borrow; never negative.
    It compares y with level - x rather than x + y with the level, so where
    x + y rounds onto a band the order may differ from the branch form by
    an ulp. The bands may be scalars or one pair per element; a pair with
    borrow > deposit orders up to the deposit level.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.maximum(np.minimum(np.maximum(y, bands.borrow - x), bands.deposit - x), 0.0)


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
