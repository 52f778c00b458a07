"""Value-function bounds: selling-back upper bound and comparison reports.

Allowing the firm to sell stock back at the current unit cost collapses the
state to net worth w = x + y and yields a one-dimensional relaxation whose
value dominates the true value function; it is a run of the one backward
recursion (`dp._induct`) on a net-worth axis, at zero stock. Myopic policies
evaluated under the true dynamics provide lower bounds; the report places
both around the optimum for selected states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import single_period
from .dp import (
    Z_TOL,
    DPSolution,
    Grid,
    _expected_next,
    _induct,
    _last_step,
    _require_base_model,
    _require_on_grid,
    golden_max,
    interp1,
    policy_value_tables,
)
from .model import HorizonSpec, require_valid

#: relative slack of the bound chain lower <= optimal <= upper
CHAIN_TOL = 5e-3


@dataclass(eq=False)
class WorthValueTable:
    """One period of the selling-back relaxation on the net-worth grid."""

    period: int
    worth: np.ndarray
    values: np.ndarray
    #: optimal post-trade stock per worth node, clamp(w, borrow, deposit):
    #: on an axis reaching past both levels, target[0] and target[-1]
    target: np.ndarray

    def __call__(self, x, y):
        """The value at the state (x, y): the table read at x + y."""
        return interp1(self.worth, self.values, np.add(x, y))


def _require_no_sellback_profit(horizon: HorizonSpec) -> None:
    for n in range(1, horizon.n_periods):
        cur, nxt = horizon.period(n), horizon.period(n + 1)
        if nxt.cost > cur.cost + cur.holding + 1e-12:
            raise ValueError(
                f"period {n}: selling back needs c_next <= c + h "
                f"({nxt.cost} > {cur.cost + cur.holding})"
            )


def selling_back_dp(horizon: HorizonSpec, worth_nodes: np.ndarray) -> list[WorthValueTable]:
    """Backward induction of the selling-back relaxation on `worth_nodes`.

    A run of `dp._induct` whose states are net worths at zero stock:
    period N is backward_induct's last-period step there, and each earlier
    period trades to the stock that maximizes the stage value, searched to
    Z_TOL with the kink z = w evaluated exactly. Period 1 first.
    """
    require_valid(horizon)
    _require_no_sellback_profit(horizon)
    worth_nodes = np.asarray(worth_nodes, dtype=float)
    zeros = np.zeros_like(worth_nodes)

    def step(n, next_value):
        if n == horizon.n_periods:
            return _last_step(horizon, 0.0, worth_nodes, next_value)
        z_max = float(max(worth_nodes[-1], 0.0) + horizon.demand_in(n).quantile(0.999))
        return golden_max(lambda z: _expected_next(z, worth_nodes, horizon, n, next_value),
                          zeros, z_max, Z_TOL, candidates=[np.clip(worth_nodes, 0.0, z_max)])

    return _induct(horizon, step, lambda n, z, v: WorthValueTable(n, worth_nodes, v, z))


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


def compare_bounds(solution: DPSolution, states, *, lengths=None) -> BoundReport:
    """Bound chain lower <= optimal <= upper at the given states.

    Optimal: the solution's, on its horizon and grid. Lower bound: the
    liquidation-credit myopic policy evaluated under the true dynamics.
    Upper bound: the selling-back relaxation at the state's net worth.
    Violations beyond CHAIN_TOL relative are flagged. A state outside the
    grid, where the tables would be extrapolated, raises before any bound.

    `lengths` are the horizon lengths n <= N to report (default: N alone),
    each for every state, in the order given. The n-period horizon is the
    last n periods of the solution's horizon, so its rows read the one set
    of tables at offset N - n (see DPSolution.tail).
    """
    _require_base_model(solution, "compare_bounds")
    horizon, grid = solution.horizon, solution.grid
    n_last = horizon.n_periods
    lengths = [n_last] if lengths is None else list(lengths)
    if not all(1 <= n <= n_last for n in lengths):
        raise ValueError(f"horizon lengths {lengths} must lie in 1..{n_last}")
    for k, (x, y) in enumerate(states):
        _require_on_grid(grid, f"states[{k}]", x, y)
    bands = single_period.myopic_bands(horizon, "upper")
    lower_tables = policy_value_tables(
        horizon, grid, lambda n, x, y: single_period.optimal_order(x, y, bands[n - 1]))
    sell_back = selling_back_dp(horizon, default_worth_grid(grid))

    rows = []
    for n in lengths:
        k = n_last - n
        value = solution.tail(k).value(1)
        for x, y in states:
            v = float(value(x, y))
            lo = float(lower_tables[k](x, y))
            up = float(sell_back[k](x, y))
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
