"""Value-function bounds around the optimum, and the one report of them.

Allowing the firm to sell stock back at the current unit cost collapses the
state to net worth w = x + y and yields a one-dimensional relaxation whose
value dominates the true value function; it is a run of the one backward
recursion (`dp._induct`) on a net-worth axis, at zero stock. The two myopic
policies evaluated under the true dynamics provide lower bounds. The report,
`compare_bounds`, places the bounds a caller asks for around the optimum at
selected states and horizon lengths; both of the CLI's tables print it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dp import (
    Z_TOL,
    DPSolution,
    Grid,
    _axis_step,
    _demand_cap,
    _expected_next,
    _induct,
    _last_step,
    _lerp,
    _locate,
    _out,
    _require_base_model,
    _require_on_grid,
    golden_max,
    policy_value_tables,
)
from .model import HorizonSpec
from .sim import MyopicPolicy

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
        value = self._read(np.atleast_1d(np.asarray(x, dtype=float)), y, None)
        return value if np.ndim(x) or np.ndim(y) else value[0]  # a scalar for a scalar

    def _read(self, x, y, spare):
        """The value at (x, y), in `spare` (see `dp._out`)."""
        idx, t = _locate(self.worth, self._step, np.add(x, y, out=_out(spare)), spare)
        return _lerp(self.values, idx, t, spare)

    @cached_property
    def _step(self) -> float:
        return _axis_step(self.worth, "worth")


def _require_no_sellback_profit(horizon: HorizonSpec) -> None:
    for n in range(1, horizon.n_periods):
        cur, nxt = horizon.period(n), horizon.period(n + 1)
        if nxt.cost > cur.cost + cur.holding + 1e-12:
            raise ValueError(
                f"period {n}: selling back needs c_next <= c + h "
                f"({nxt.cost} > {cur.cost + cur.holding})"
            )


def selling_back_dp(horizon: HorizonSpec, grid: Grid) -> list[WorthValueTable]:
    """Backward induction of the selling-back relaxation on the grid's
    net-worth axis, `default_worth_grid(grid)`.

    A run of `dp._induct` whose states are net worths at zero stock:
    period N is backward_induct's last-period step there, and each earlier
    period trades to the stock that maximizes the stage value, searched to
    Z_TOL with the kink z = w evaluated exactly. Period 1 first.
    """
    _require_no_sellback_profit(horizon)
    worth_nodes = default_worth_grid(grid)
    zeros = np.zeros_like(worth_nodes)

    def step(n, next_value):
        if n == horizon.n_periods:
            return _last_step(horizon, 0.0, worth_nodes, next_value)
        z_max = max(float(worth_nodes[-1]), 0.0) + _demand_cap(horizon, n)
        return golden_max(lambda z: _expected_next(z, worth_nodes, horizon, n, next_value),
                          zeros, z_max, Z_TOL, candidates=[np.clip(worth_nodes, 0.0, z_max)])

    return _induct(horizon, step, lambda n, z, v: WorthValueTable(n, worth_nodes, v, z))


#: the bounds a report can place around the optimum: the values of the two
#: myopic policies under the true dynamics, both lower bounds, under the
#: labels `sim.MyopicPolicy` gives them, and the selling-back relaxation, the
#: upper bound
BOUNDS = ("myopic-lower", "myopic-upper", "selling-back")
UPPER_BOUND = "selling-back"


@dataclass
class BoundRow:
    """The optimum and each requested bound at one state and horizon length."""

    n_periods: int              # horizon length the row reports
    x: float
    y: float
    optimal: float
    values: dict[str, float]    # bound name -> its value, in the order asked

    def gap(self, name: str) -> float:
        return self.optimal - self.values[name]

    def gap_pct(self, name: str) -> float:
        return 100.0 * (self.optimal - self.values[name]) / self.optimal

    @property
    def violated(self) -> bool:
        """A bound on the wrong side of the optimum by more than CHAIN_TOL relative."""
        tol = CHAIN_TOL * max(abs(self.optimal), 1.0)
        return any(self.optimal > v + tol if name == UPPER_BOUND else v > self.optimal + tol
                   for name, v in self.values.items())


def _bound_tables(name: str, horizon: HorizonSpec, grid: Grid) -> list:
    """The tables of bound `name` on `horizon`, period 1 first."""
    if name == UPPER_BOUND:
        return selling_back_dp(horizon, grid)
    return policy_value_tables(horizon, grid, MyopicPolicy(horizon, name.removeprefix("myopic-")))


def compare_bounds(solution: DPSolution, states, bounds, *, lengths=None) -> list[BoundRow]:
    """The optimum and the `bounds` asked for, one row per length and state.

    Optimal: the solution's, on its horizon and grid. `bounds` names some of
    BOUNDS, and only those are computed: a myopic policy evaluated under the
    true dynamics, with the solution's quadrature, is a lower bound, and the
    selling-back relaxation at the state's net worth is the upper bound. An
    unknown name, or a state outside the grid, where the tables would be
    extrapolated, raises before any bound is computed.

    `lengths` are the horizon lengths n <= N to report (default: N alone),
    each for every state, in the order given. The n-period horizon is the
    last n periods of the solution's horizon, so its rows read the one set
    of tables at offset N - n (see DPSolution.tail).
    """
    _require_base_model(solution, "compare_bounds")
    unknown = [name for name in bounds if name not in BOUNDS]
    if unknown:
        raise ValueError(f"unknown bound(s) {unknown}; each must be one of {BOUNDS}")
    horizon, grid = solution.horizon, solution.grid
    n_last = horizon.n_periods
    lengths = [n_last] if lengths is None else list(lengths)
    if not all(1 <= n <= n_last for n in lengths):
        raise ValueError(f"horizon lengths {lengths} must lie in 1..{n_last}")
    for k, (x, y) in enumerate(states):
        _require_on_grid(grid, f"states[{k}]", x, y)
    tables = {name: _bound_tables(name, horizon, grid) for name in bounds}
    rows = []
    for n in lengths:
        k = n_last - n
        value = solution.tail(k).value(1)
        for x, y in states:
            rows.append(BoundRow(n, float(x), float(y), float(value(x, y)),
                                 {name: float(t[k](x, y)) for name, t in tables.items()}))
    return rows


def default_worth_grid(grid: Grid) -> np.ndarray:
    """Net-worth nodes at the capital grid's spacing, extended to x+y max."""
    step = float(np.min(np.diff(grid.y_nodes)))
    lo = float(grid.y_nodes[0])
    hi = float(grid.x_nodes[-1] + grid.y_nodes[-1])
    return np.arange(lo, hi + step, step)
