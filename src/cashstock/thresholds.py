"""Order-up-to thresholds per period, as functions of net worth.

For periods before the last, the two optimal order-up-to levels at net worth
w solve phi(z) = 0 (loan-financed level) and psi(z) = 0 (deposit-financed
level), where phi/psi are the one-sided derivatives of the stage value in z
on the borrowing and depositing branches. The myopic policies of
single_period bracket the roots from below (`myopic_lower`) and above
(`myopic_upper`).

Two tables come from a solved DP. `ThresholdTable.from_solution` reads both
levels off the DP's own net-worth search: where its maximizer z(w) lies
above w the loan-financed level binds, and where below, the deposit-financed
one. `solve_thresholds` is the paper's algorithm: it bisects phi and psi
between the brackets, and the tests hold the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import single_period
from .demand import _BucketSearch
from .dp import DPSolution, ValueTable, _next_state, _require_base_model, partials, worth_grid
from .model import HorizonSpec, normalized_params

#: a bracket end's slope may have the wrong sign by this share of the slope's
#: swing across the bracket before the bracket is rejected
BRACKET_TOL = 0.05

#: width to which the bisection pins each order-up-to level
EPSILON = 1e-3


class BracketError(RuntimeError):
    """A myopic bracket fails to enclose the root beyond tolerance."""


def _stage_slope(cand, worth, n, horizon, next_table: ValueTable, rate,
                 right: bool = False):
    """dG/dz at z = cand, holding the bank branch fixed at `rate`.

    = E[(dV/dx' - (p'+h') dV/dy') 1{cand > D}] - (c' rate - p') E[dV/dy'],
    the limit from the left. `right` gives the limit from the right, with
    1{cand >= D}: it differs only where demand has an atom at cand.
    """
    pp, hp, cp = normalized_params(horizon, n)
    cand = np.atleast_1d(np.asarray(cand, dtype=float))
    worth = np.atleast_1d(np.asarray(worth, dtype=float))
    nodes, w = horizon.demand_in(n).sales_nodes(cand)
    leftover, y_next = _next_state(cand[:, None], worth[:, None], nodes, n, horizon,
                                   bank=lambda amount: rate * amount)
    vx, vy = partials(next_table, leftover, y_next)
    below = (nodes <= cand[:, None]) if right else (nodes < cand[:, None])
    term1 = np.sum(w * below * (vx - (pp + hp) * vy), axis=1)
    term2 = (cp * rate - pp) * np.sum(w * vy, axis=1)
    return term1 - term2


def stage_slope_borrowing(cand, worth, n, horizon, next_table):
    """Stage-value derivative in z on the loan branch; its root is the
    loan-financed order-up-to level."""
    out = _stage_slope(cand, worth, n, horizon, next_table, 1.0 + horizon.period(n).loan_rate)
    return out if np.ndim(cand) else float(out[0])


def stage_slope_deposit(cand, worth, n, horizon, next_table):
    """Stage-value derivative in z on the deposit branch; its root is the
    deposit-financed order-up-to level."""
    out = _stage_slope(cand, worth, n, horizon, next_table, 1.0 + horizon.period(n).deposit_rate)
    return out if np.ndim(cand) else float(out[0])


def bisection_iterations(width: float, epsilon: float) -> int:
    """Midpoint evaluations needed to pin the root within epsilon."""
    if width <= epsilon:
        return 1
    return int(np.ceil(np.log2(width / epsilon)))


def _bisect(slope, lo: float, hi: float, epsilon: float, m: int) -> tuple[np.ndarray, int]:
    # midpoint-first bisection: after k halvings the midpoint is within
    # (hi-lo)/2^k of the root, so exactly ceil(log2(width/eps)) iterations
    a = np.full(m, lo)
    b = np.full(m, hi)
    n_iter = bisection_iterations(hi - lo, epsilon)
    for it in range(n_iter):
        c = 0.5 * (a + b)
        if it == n_iter - 1:
            return c, n_iter
        positive = slope(c) > 0.0
        a = np.where(positive, c, a)
        b = np.where(positive, b, c)
    return 0.5 * (a + b), n_iter


def _check_bracket(label, n, worth, lo_vals, hi_vals):
    # signs must be phi(lo-) >= 0 >= phi(hi+), up to a share of the total swing:
    # under atom demand the levels sit on atoms, where only the subgradient
    # [phi(z+), phi(z-)] contains 0
    swing = np.maximum(np.abs(lo_vals - hi_vals), 1e-12)
    bad_lo = -lo_vals > BRACKET_TOL * swing
    bad_hi = hi_vals > BRACKET_TOL * swing
    if np.any(bad_lo) or np.any(bad_hi):
        k = int(np.argmax(np.where(bad_lo, -lo_vals, 0.0) + np.where(bad_hi, hi_vals, 0.0)))
        raise BracketError(
            f"period {n}, {label} level: slope at bracket ends has wrong sign at "
            f"net worth {worth[k]:.4g} (lo {lo_vals[k]:.4g}, hi {hi_vals[k]:.4g}); "
            "the value grid is likely too coarse"
        )


@dataclass(eq=False)
class PeriodThresholds:
    n: int
    worth: np.ndarray
    borrow: np.ndarray
    deposit: np.ndarray
    lower: single_period.OrderBands
    upper: single_period.OrderBands
    borrow_iterations: int
    deposit_iterations: int
    #: binding levels that fell outside their bracket and were clipped into it
    borrow_clipped: int = 0
    deposit_clipped: int = 0

    @cached_property
    def _worth_search(self) -> _BucketSearch:
        return _BucketSearch(self.worth)

    @cached_property
    def _cell_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # per cell: worth width, borrow step, deposit step
        return np.diff(self.worth), np.diff(self.borrow), np.diff(self.deposit)

    def bands_at(self, worth):
        """(borrow, deposit) levels at `worth`: linear between the worth
        nodes, held at the end values beyond them. One lookup serves both.

        The worth axis is searched even where it is evenly spaced: the
        fraction within a cell is then taken from the cell's own ends, as
        np.interp takes it, rather than from the offset to the first node,
        whose rounding grows with the distance from it. The search is
        `_locate`'s, by table lookup. The cells' widths and steps are
        differenced once per row, so a call gathers them at its cells: the
        same numbers as `_lerp` on the levels, bit for bit."""
        q = np.asarray(worth, dtype=float)
        width, borrow_step, deposit_step = self._cell_steps
        idx = np.clip(self._worth_search(q, "right") - 1, 0, len(width) - 1)
        t = np.clip((q - self.worth[idx]) / width[idx], 0.0, 1.0)
        return (self.borrow[idx] + t * borrow_step[idx],
                self.deposit[idx] + t * deposit_step[idx])


@dataclass(eq=False)
class ThresholdTable:
    horizon: HorizonSpec
    periods: list[PeriodThresholds]

    def period(self, n: int) -> PeriodThresholds:
        return self.periods[n - 1]

    @classmethod
    def from_solution(cls, solution: DPSolution) -> "ThresholdTable":
        """Both levels read off the DP's per-worth maximizer z(w).

        Where z(w) > w the loan-financed level binds and is z(w); where
        z(w) < w the deposit-financed level binds and is z(w). A binding
        level outside its myopic bracket is clipped into it, and counted. A
        level that does not bind takes the bracket end that the rule ignores
        there, lower.borrow or upper.deposit, so borrow <= deposit. The
        final period's levels are the closed form's, as in solve_thresholds.
        """
        _require_base_model(solution, "ThresholdTable.from_solution")
        horizon = solution.horizon
        n_last = horizon.n_periods
        worth = worth_grid(solution.grid)
        pair_n = single_period.myopic_lower(horizon, n_last)
        rows = [PeriodThresholds(n_last, worth, np.full(len(worth), pair_n.borrow),
                                 np.full(len(worth), pair_n.deposit), pair_n, pair_n, 0, 0)]
        for n in range(n_last - 1, 0, -1):
            lower = single_period.myopic_lower(horizon, n)
            upper = single_period.myopic_upper(horizon, n)
            z_w = solution.worth_argmax[n - 1]
            borrow, borrow_clipped = _bound_level(z_w, z_w > worth, lower.borrow,
                                                  upper.borrow, lower.borrow)
            deposit, deposit_clipped = _bound_level(z_w, z_w < worth, lower.deposit,
                                                    upper.deposit, upper.deposit)
            rows.append(PeriodThresholds(n, worth, borrow, deposit, lower, upper, 0, 0,
                                         borrow_clipped, deposit_clipped))
        return cls(horizon, rows[::-1])


def _bound_level(z_w, binds, lo: float, hi: float, idle: float) -> tuple[np.ndarray, int]:
    # the level z_w clipped into [lo, hi] where it binds, `idle` elsewhere;
    # and how many binding levels the clip moved
    outside = binds & ((z_w < lo) | (z_w > hi))
    return np.where(binds, np.clip(z_w, lo, hi), idle), int(np.count_nonzero(outside))


def solve_thresholds(solution: DPSolution) -> ThresholdTable:
    """Tabulate both order-up-to levels on the net-worth grid by bisection.

    The final period's levels come from the closed form and are constant in
    net worth; every earlier period bisects phi/psi of the solution's value
    tables between the myopic brackets, per net-worth node, to within
    EPSILON.
    """
    _require_base_model(solution, "solve_thresholds")
    horizon, grid = solution.horizon, solution.grid
    worth = worth_grid(grid)
    m = len(worth)
    n_last = horizon.n_periods
    pair_n = single_period.myopic_lower(horizon, n_last)  # plain single period
    rows: list = [None] * n_last
    rows[-1] = PeriodThresholds(
        n_last, worth, np.full(m, pair_n.borrow), np.full(m, pair_n.deposit),
        pair_n, pair_n, 0, 0,
    )
    for n in range(n_last - 1, 0, -1):
        lower = single_period.myopic_lower(horizon, n)
        upper = single_period.myopic_upper(horizon, n)
        next_table = solution.value(n + 1)
        params = horizon.period(n)
        roots = []
        # the rule uses the borrow level only below upper.borrow and the
        # deposit level only above lower.deposit, so each bracket is checked
        # where its level can bind; the bisection still covers every worth
        for label, slope, rate, lo, hi, binds in (
                ("borrow", stage_slope_borrowing, 1.0 + params.loan_rate,
                 lower.borrow, upper.borrow, worth < upper.borrow),
                ("deposit", stage_slope_deposit, 1.0 + params.deposit_rate,
                 lower.deposit, upper.deposit, worth > lower.deposit)):

            def left_slope(c, _slope=slope, _n=n, _t=next_table):
                return _slope(c, worth, _n, horizon, _t)

            w = worth[binds]
            ends = [_stage_slope(np.full(len(w), end), w, n, horizon, next_table, rate,
                                 right=right) for end, right in ((lo, False), (hi, True))]
            _check_bracket(label, n, w, *ends)
            roots.append(_bisect(left_slope, lo, hi, EPSILON, m))
        (borrow, it_b), (deposit, it_d) = roots
        rows[n - 1] = PeriodThresholds(n, worth, borrow, deposit, lower, upper, it_b, it_d)
    return ThresholdTable(horizon, rows)


def policy_from_thresholds(table: ThresholdTable, x, y, n: int):
    """Order quantity of the two-threshold rule at net worth x + y."""
    bands = single_period.OrderBands(*table.period(n).bands_at(np.add(x, y)))
    q = single_period.optimal_order(x, y, bands)
    return q if q.ndim else float(q)
