"""Model extensions: tiered interest schedules, loan limits, backorders.

Each keeps the two-threshold structure of the base model and is a parameter
of the one backward recursion in dp. Under tiered rates each tier
(`PiecewiseRateSchedule.tiers`) is a branch of the net-worth search, at its
own rate, and has an order-up-to level of its own, the base model's at the
tier's rate (tests/closed_form.py). A loan limit caps the order in every
period, at that period's unit cost. Backorders are the transition's
`backlog`: unmet demand is carried as negative stock at a per-unit penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dp import (Z_TOL, DPSolution, Grid, _concave_stage, _demand_cap, _expected_next,
                 _grid_solution, backward_induct, worth_search)
from .model import HorizonSpec


# ---------------------------------------------------------------------------
# piecewise-linear interest schedules


@dataclass(frozen=True)
class PiecewiseRateSchedule:
    """Tiered rates applied to the whole balance of the tier it falls in.

    Loan tier m holds loans between loan_breaks[m-1] and loan_breaks[m] at
    rate loan_rates[m], deposit tiers likewise; the last tier of each is
    unbounded (`tiers` lists them). Loan rates increase strictly; deposit
    rates are nondecreasing and all sit below the cheapest loan rate.
    """

    loan_rates: tuple[float, ...]
    loan_breaks: tuple[float, ...] = ()
    deposit_rates: tuple[float, ...] = (0.0,)
    deposit_breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.loan_breaks) != len(self.loan_rates) - 1:
            raise ValueError("need one loan break between consecutive loan tiers")
        if len(self.deposit_breaks) != len(self.deposit_rates) - 1:
            raise ValueError("need one deposit break between consecutive deposit tiers")
        if any(np.diff(self.loan_rates) <= 0):
            raise ValueError("loan rates must increase strictly across tiers")
        if any(np.diff(self.deposit_rates) < 0):
            raise ValueError("deposit rates must be nondecreasing across tiers")
        for breaks in (self.loan_breaks, self.deposit_breaks):
            if any(b <= 0 for b in breaks) or any(np.diff(breaks) <= 0):
                raise ValueError("tier breaks must be positive and increasing")
        if max(self.deposit_rates) >= self.loan_rates[0]:
            raise ValueError("every deposit rate must sit below the cheapest loan rate")

    @property
    def tiers(self) -> tuple[tuple[float, float, float], ...]:
        """(rate, lowest, highest loan balance) per tier, in balance order; a
        deposit is a negative balance. A tier holds the balances above its
        lowest and up to its highest, so a balance on a break takes the tier
        on its lower-balance side: the richer deposit tier, the cheaper loan
        tier. The bank term is then upper semicontinuous, so optimal orders
        are attained rather than approached."""
        dep = (0.0, *self.deposit_breaks, np.inf)
        loan = (0.0, *self.loan_breaks, np.inf)
        deposits = [(r, -hi, -lo) for r, lo, hi in zip(self.deposit_rates, dep, dep[1:])]
        return (*deposits[::-1], *zip(self.loan_rates, loan, loan[1:]))


def piecewise_dp(horizon: HorizonSpec, schedule: PiecewiseRateSchedule,
                 grid: Grid) -> DPSolution:
    """Backward induction with the bank term replaced by the tiered schedule.

    Each of `schedule.tiers` is a branch of worth_search: the span of
    z - xi over which the loan balance c(z - xi) stays in that tier,
    evaluated at the tier's own fixed rate. Whole-balance tiers make the
    bank term jump at a break, but on each branch the stage value is
    concave. At a break both neighbouring tiers are evaluated, and the
    larger is the schedule's own tie rule. Period N is the same step,
    searched like the others, with terminal wealth as the next value
    (`dp._induct`).
    """
    tiers = schedule.tiers

    def step(n, next_value):
        cost = horizon.period(n).cost
        z_max = float(grid.x_nodes[-1]) + _demand_cap(horizon, n)

        def f(z, xi, k):
            rate = 1.0 + tiers[k][0]
            return _expected_next(z, xi, horizon, n, next_value,
                                  bank=lambda amount: rate * amount)

        z, v, _ = worth_search(f, grid, z_max, Z_TOL,
                               [(a / cost, b / cost) for _, a, b in tiers],
                               concave=_concave_stage(horizon, n))
        return z, v

    return _grid_solution(horizon, grid, step)


# ---------------------------------------------------------------------------
# maximum loan limit


@dataclass(frozen=True)
class LoanLimit:
    """Largest loan the bank extends, in currency, with its unit equivalent."""

    amount: float

    def __post_init__(self):
        if self.amount <= 0:
            raise ValueError("loan limit must be positive")

    def units(self, cost: float) -> float:
        return self.amount / cost


def loan_limited_dp(horizon: HorizonSpec, limit: LoanLimit, grid: Grid) -> DPSolution:
    """Backward induction with period n's z-search capped at
    x + y^+ + limit / c_n, the last period included.

    The cap only lowers each node's upper bound, so the net-worth search of
    backward_induct still applies: the clipped maximizer stays optimal.
    """

    def z_cap(n, x, y):
        return x + np.maximum(y, 0.0) + limit.units(horizon.period(n).cost)

    return backward_induct(horizon, grid, z_cap=z_cap)


# ---------------------------------------------------------------------------
# backorders


@dataclass(frozen=True)
class BackorderParams:
    """Per-unit, per-period penalty on carried unmet demand."""

    penalty: float

    def __post_init__(self):
        if self.penalty < 0:
            raise ValueError("backorder penalty must be nonnegative")


def backorder_grid(horizon: HorizonSpec, base: Grid) -> Grid:
    """Extend the inventory axis to the deepest plausible backlog.

    The axis keeps the base's step h and largest node and starts K steps
    below its first node, the fewest that reach N demand caps below zero
    (`dp._demand_cap`). Built as one linspace, it is evenly spaced on every
    base; the base nodes move by a few ulps at most, none on a dyadic step."""
    depth = horizon.n_periods * max(_demand_cap(horizon, n)
                                    for n in range(1, horizon.n_periods + 1))
    x0, h, nx = float(base.x_nodes[0]), base._steps[0], len(base.x_nodes)
    below = int(np.ceil((x0 + depth) / h))
    return Grid(np.linspace(x0 - below * h, base.x_nodes[-1], below + nx), base.y_nodes)


def backorder_dp(horizon: HorizonSpec, b: BackorderParams, grid: Grid) -> DPSolution:
    """Backward induction with backlogged demand: x' = z - D, penalty b.

    Backorders are the base recursion with the transition's `backlog` set
    to b: unmet demand is carried as negative stock, and the penalty on it
    enters as sales valued at p + b less b E[D] (see dp._next_state). So
    this is backward_induct on the horizon at price p + b; its period N
    orders by the single-period rule at p + b, and the transition charges
    b E[D] there as in every period. The grid's inventory axis must extend
    below zero (see backorder_grid). The post-order level keeps the
    two-threshold trichotomy in net worth.
    """
    priced = HorizonSpec([replace(p, price=p.price + b.penalty) for p in horizon.periods],
                         horizon.demands, horizon.salvage)
    solution = backward_induct(priced, grid, backlog=b.penalty)
    return DPSolution(horizon, grid, solution.values, solution.policies, None)
