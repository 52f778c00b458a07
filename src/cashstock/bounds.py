"""Value-function bounds: selling-back upper bound and comparison reports.

Allowing the firm to sell stock back at the current unit cost collapses the
state to net worth w = x + y and yields a one-dimensional relaxation whose
value dominates the true value function. Myopic policies evaluated under the
true dynamics provide lower bounds; the report places both around the
optimum for selected states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import single_period
from .dp import (
    DPSolution,
    Grid,
    _expected_next,
    _terminal_wealth,
    backward_induct,
    golden_max,
    interp1,
    policy_value_tables,
)
from .model import HorizonSpec, require_valid

#: width to which the relaxation's golden-section bracket is narrowed
SELL_BACK_Z_TOL = 1e-3

#: relative slack of the bound chain lower <= optimal <= upper
CHAIN_TOL = 5e-3


@dataclass(eq=False)
class WorthValueTable:
    """One period of the selling-back relaxation on the net-worth grid."""

    period: int
    worth: np.ndarray
    values: np.ndarray
    target: np.ndarray          # optimal post-trade stock per worth node
    borrow_level: float         # trade up to this when worth is below it
    deposit_level: float        # trade down to this when worth is above it

    def __call__(self, w):
        return interp1(self.worth, self.values, w)


def _require_no_sellback_profit(horizon: HorizonSpec) -> None:
    for n in range(1, horizon.n_periods):
        cur, nxt = horizon.period(n), horizon.period(n + 1)
        if nxt.cost > cur.cost + cur.holding + 1e-12:
            raise ValueError(
                f"period {n}: selling back needs c_next <= c + h "
                f"({nxt.cost} > {cur.cost + cur.holding})"
            )


def selling_back_dp(horizon: HorizonSpec, worth_nodes: np.ndarray) -> list[WorthValueTable]:
    """One-dimensional backward induction of the selling-back relaxation.

    Period N trades to the single-period rule's order at zero stock and
    takes the expectation of terminal wealth through the transition, as
    backward_induct does. The optimal trade clamps net worth between the
    two extracted levels.
    """
    require_valid(horizon)
    _require_no_sellback_profit(horizon)
    worth_nodes = np.asarray(worth_nodes, dtype=float)
    n_last = horizon.n_periods
    bands = single_period.myopic_lower(horizon, n_last)
    q_term = single_period.optimal_order(0.0, worth_nodes, bands)
    v_term = _expected_next(q_term, worth_nodes, horizon, n_last, _terminal_wealth)
    tables: list = [None] * n_last
    tables[-1] = WorthValueTable(n_last, worth_nodes, v_term, q_term,
                                 bands.borrow, bands.deposit)
    zeros = np.zeros_like(worth_nodes)
    for n in range(n_last - 1, 0, -1):
        nxt = tables[n]
        z_max = float(max(worth_nodes[-1], 0.0) + horizon.demand_in(n).quantile(0.999))

        def f(z, _n=n, _nxt=nxt):
            return _expected_next(z, worth_nodes, horizon, _n, lambda xn, yn: _nxt(xn + yn))

        target, vals = golden_max(f, zeros, z_max, SELL_BACK_Z_TOL,
                                  candidates=[np.clip(worth_nodes, 0.0, z_max)])
        # the optimal trade is clamp(w, borrow, deposit): read the flat ends
        tables[n - 1] = WorthValueTable(n, worth_nodes, vals, target,
                                        float(target[0]), float(target[-1]))
    return tables


@dataclass
class BoundRow:
    n_periods: int              # horizon length the row reports
    x: float
    y: float
    optimal: float
    lower: float
    lower_gap: float
    lower_gap_pct: float
    upper: float
    upper_gap: float
    upper_gap_pct: float
    violated: bool


@dataclass
class BoundReport:
    rows: list[BoundRow]

    @property
    def any_violation(self) -> bool:
        return any(r.violated for r in self.rows)


def compare_bounds(horizon: HorizonSpec, grid: Grid, states, *,
                   lengths=None,
                   solution: DPSolution | None = None) -> BoundReport:
    """Bound chain lower <= optimal <= upper at the given states.

    Lower bound: the liquidation-credit myopic policy evaluated under the
    true dynamics. Upper bound: the selling-back relaxation at the state's
    net worth. Violations beyond CHAIN_TOL relative are flagged.

    `lengths` are the horizon lengths n <= N to report (default: N alone),
    each for every state, in the order given. The n-period horizon is the
    last n periods of `horizon`, so its rows read the one set of tables at
    offset N - n (see DPSolution.tail). `solution` must be solved on
    `horizon` and `grid`.
    """
    require_valid(horizon)
    n_last = horizon.n_periods
    lengths = [n_last] if lengths is None else list(lengths)
    if not all(1 <= n <= n_last for n in lengths):
        raise ValueError(f"horizon lengths {lengths} must lie in 1..{n_last}")
    if solution is None:
        solution = backward_induct(horizon, grid)
    elif solution.horizon != horizon or not (
            np.array_equal(solution.grid.x_nodes, grid.x_nodes)
            and np.array_equal(solution.grid.y_nodes, grid.y_nodes)):
        raise ValueError("solution was solved on another horizon or grid")
    pairs = [single_period.myopic_upper(horizon, n) for n in range(1, n_last + 1)]

    def upper_policy(n, x, y):
        return single_period.optimal_order(x, y, pairs[n - 1])

    lower_tables = policy_value_tables(horizon, grid, upper_policy)
    sell_back = selling_back_dp(horizon, default_worth_grid(grid))

    rows = []
    for n in lengths:
        k = n_last - n
        value = solution.tail(k).value(1)
        for x, y in states:
            v = float(value(x, y))
            lo = float(lower_tables[k](x, y))
            up = float(sell_back[k](x + y))
            tol = CHAIN_TOL * max(abs(v), 1.0)
            rows.append(BoundRow(
                n_periods=n, x=float(x), y=float(y), optimal=v,
                lower=lo, lower_gap=v - lo, lower_gap_pct=100.0 * (v - lo) / v,
                upper=up, upper_gap=v - up, upper_gap_pct=100.0 * (v - up) / v,
                violated=(lo > v + tol) or (v > up + tol),
            ))
    return BoundReport(rows)


def default_worth_grid(grid: Grid) -> np.ndarray:
    """Net-worth nodes at the capital grid's spacing, extended to x+y max."""
    step = float(np.min(np.diff(grid.y_nodes)))
    lo = float(grid.y_nodes[0])
    hi = float(grid.x_nodes[-1] + grid.y_nodes[-1])
    return np.arange(lo, hi + step, step)
