"""The paper's threshold algorithm, kept as the tests' oracle.

For periods before the last, the two optimal order-up-to levels at net worth
w solve phi(z) = 0 (loan-financed level) and psi(z) = 0 (deposit-financed
level), where phi/psi are the one-sided derivatives of the stage value in z
on the borrowing and depositing branches. The myopic policies of
single_period bracket the roots from below (`myopic_lower`) and above
(`myopic_upper`). `solve_thresholds` bisects phi and psi between the
brackets; the tests hold its levels against those that
`ThresholdTable.from_solution` reads off the DP, which the commands ship.

Not a test module: the tests import it as they import conftest.
"""

import numpy as np

from cashstock import single_period
from cashstock.dp import _next_state, _require_base_model, interp2, worth_grid
from cashstock.model import normalized_params
from cashstock.thresholds import PeriodThresholds, ThresholdTable

#: a bracket end's slope may have the wrong sign by this share of the slope's
#: swing across the bracket before the bracket is rejected
BRACKET_TOL = 0.05

#: width to which the bisection pins each order-up-to level
EPSILON = 1e-3


class BracketError(RuntimeError):
    """A myopic bracket fails to enclose the root beyond tolerance."""


def partials(table, x, y):
    """(dV/dx, dV/dy): central differences on the grid (one-sided at its
    edges), interpolated bilinearly."""
    grid = table.grid
    return tuple(interp2(field, grid, x, y)
                 for field in np.gradient(table.values, grid.x_nodes, grid.y_nodes))


def _stage_slope(cand, worth, n, horizon, next_table, rate, right: bool = False):
    """dG/dz at z = cand, holding the bank branch fixed at `rate`: 1 + the
    loan rate gives phi, 1 + the deposit rate psi.

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


def solve_thresholds(solution) -> tuple[ThresholdTable, list[tuple[int, int]]]:
    """Both order-up-to levels on the net-worth grid by bisection, and each
    period's (borrow, deposit) bisection iterations, period 1 first.

    The final period's levels come from the closed form and are constant in
    net worth, found in 0 iterations; every earlier period bisects phi/psi
    of the solution's value tables between the myopic brackets, per
    net-worth node, to within EPSILON.
    """
    _require_base_model(solution, "solve_thresholds")
    horizon, grid = solution.horizon, solution.grid
    worth = worth_grid(grid)
    m = len(worth)
    n_last = horizon.n_periods
    pair_n = single_period.myopic_lower(horizon, n_last)  # plain single period
    rows: list = [None] * n_last
    iterations = [(0, 0)] * n_last
    rows[-1] = PeriodThresholds(n_last, worth, np.full(m, pair_n.borrow),
                                np.full(m, pair_n.deposit), pair_n, pair_n)
    for n in range(n_last - 1, 0, -1):
        lower = single_period.myopic_lower(horizon, n)
        upper = single_period.myopic_upper(horizon, n)
        next_table = solution.value(n + 1)
        params = horizon.period(n)
        roots = []
        # the rule uses the borrow level only below upper.borrow and the
        # deposit level only above lower.deposit, so each bracket is checked
        # where its level can bind; the bisection still covers every worth
        for label, rate, lo, hi, binds in (
                ("borrow", 1.0 + params.loan_rate, lower.borrow, upper.borrow,
                 worth < upper.borrow),
                ("deposit", 1.0 + params.deposit_rate, lower.deposit, upper.deposit,
                 worth > lower.deposit)):
            w = worth[binds]
            ends = [_stage_slope(np.full(len(w), end), w, n, horizon, next_table, rate,
                                 right=right) for end, right in ((lo, False), (hi, True))]
            _check_bracket(label, n, w, *ends)
            roots.append(_bisect(
                lambda c: _stage_slope(c, worth, n, horizon, next_table, rate),
                lo, hi, EPSILON, m))
        (borrow, it_b), (deposit, it_d) = roots
        rows[n - 1] = PeriodThresholds(n, worth, borrow, deposit, lower, upper)
        iterations[n - 1] = (it_b, it_d)
    return ThresholdTable(horizon, rows), iterations
