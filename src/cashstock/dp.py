"""Multi-period solution by backward induction on an inventory-capital grid.

State is (x, y): on-hand stock and capital in product units. The decision is
the post-order stock level z >= x. Every solver moves between periods with
one transition, `_next_state`; in normalized units it is

    x' = (z - D)^+
    y' = p' z - (p' + h')(z - D)^+ + c'(xi - z) [(1+i) if z <= xi else (1+l)]

with xi = x + y and (p', h', c') the period economics divided by next
period's unit cost. In the last period y' is terminal wealth in currency,
with (p', h', c') = (p, -s, c). The extensions are parameters of it: `bank`
replaces the two-rate bank term (tiered rates) and `backlog` carries unmet
demand as negative stock (backorders).

Every solver runs one backward loop, `_induct`, from terminal wealth
(x, y) -> y and a per-period step: the grid solvers on the grid, and the
selling-back relaxation (`bounds.selling_back_dp`) on net worth x + y at
zero stock. Period N is a step like every other; backward_induct and the
relaxation share it (`_last_step`: the closed form's order), and the closed
form stays in `single_period` as the tests' independent cross-check.
Stage values are expectations of the next value over demand. Under lost
sales the next state depends on demand only through sales min(D, z), so
the demand above z is one node at the support maximum
(`Demand.sales_nodes`: beside it, 8 Gauss-Legendre points on [lo, z] for
continuous demand, and every atom up to the largest z for atom demand);
backorders carry z - D and keep every node (`Demand.expectation_nodes`).
Stage values depend on a node only through its net worth xi and are
concave in z on each branch of z - xi (one per rate tier, else one), so
the maximization runs once per branch and distinct net worth (golden-section
search plus kink candidates), and each node takes the best branch's
maximizer clipped to its own range.

Before period N every expectation looks the next table up bilinearly. One
kernel serves values and gradient fields: on an evenly spaced axis (every
Grid.regular grid) a query's cell is found by arithmetic,
i = floor((q - x0) / h) clipped to the edge cells, and on any other axis by
binary search; the fraction is left unclipped, so queries outside the grid
extend linearly along the edge cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import HorizonSpec, normalized_params, require_valid
from .single_period import myopic_lower, myopic_upper, optimal_order

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

#: width to which the net-worth search's golden-section bracket is narrowed
Z_TOL = 1e-4


@dataclass(frozen=True)
class Grid:
    """Rectangular state grid with strictly increasing node vectors."""

    x_nodes: np.ndarray
    y_nodes: np.ndarray

    def __post_init__(self):
        for name, nodes in (("x", self.x_nodes), ("y", self.y_nodes)):
            arr = np.asarray(nodes, dtype=float)
            if arr.ndim != 1 or len(arr) < 2 or np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} nodes must be strictly increasing, length >= 2")
            object.__setattr__(self, f"{name}_nodes", arr)
        object.__setattr__(self, "_steps", (_axis_step(self.x_nodes), _axis_step(self.y_nodes)))

    @classmethod
    def regular(cls, x_max: float, y_min: float, y_max: float, nx: int, ny: int) -> "Grid":
        return cls(np.linspace(0.0, x_max, nx), np.linspace(y_min, y_max, ny))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.x_nodes), len(self.y_nodes)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")


def _axis_step(nodes: np.ndarray) -> float:
    # the spacing h when nodes[k] is nodes[0] + k h to rounding (as linspace
    # and arange build them), else 0: the axis is searched, not indexed
    n = len(nodes)
    h = (nodes[-1] - nodes[0]) / (n - 1)
    even = nodes[0] + h * np.arange(n)
    ulps = 8.0 * np.finfo(float).eps * max(abs(nodes[0]), abs(nodes[-1]))
    return float(h) if np.max(np.abs(nodes - even)) <= ulps else 0.0


def _locate(nodes: np.ndarray, step: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cell index clipped to the edge cells; the fraction is left unclipped so
    # points outside the grid extend linearly along the boundary cell
    if step:
        u = (q - nodes[0]) / step
        # fmax/fmin send NaN to cell 0 (its fraction stays NaN); for u >= 0
        # the cast truncates, which is floor
        idx = np.fmin(np.fmax(u, 0.0), len(nodes) - 2).astype(np.intp)
        return idx, u - idx
    idx = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, len(nodes) - 2)
    return idx, (q - nodes[idx]) / (nodes[idx + 1] - nodes[idx])


def _lerp(flat_values: np.ndarray, at, t):
    a = flat_values[at]
    return a + t * (flat_values[at + 1] - a)


def _bilinear(fields, grid: Grid, xq, yq) -> list:
    """Each (nx, ny) field in `fields` interpolated at the queries, one lookup."""
    ix, tx = _locate(grid.x_nodes, grid._steps[0], np.asarray(xq, dtype=float))
    iy, ty = _locate(grid.y_nodes, grid._steps[1], np.asarray(yq, dtype=float))
    ny = len(grid.y_nodes)
    flat = ix * ny + iy
    out = []
    for table in fields:
        v = np.ravel(table)
        lo = _lerp(v, flat, ty)
        out.append(lo + tx * (_lerp(v, flat + ny, ty) - lo))
    return out


def interp1(nodes: np.ndarray, values: np.ndarray, q):
    """Piecewise-linear interpolation, one-sided linear outside the nodes."""
    nodes = np.asarray(nodes, dtype=float)
    idx, t = _locate(nodes, _axis_step(nodes), np.asarray(q, dtype=float))
    return _lerp(np.asarray(values), idx, t)


def interp2(values: np.ndarray, grid: Grid, xq, yq):
    """Bilinear interpolation of a (nx, ny) table, linear one-sided outside."""
    return _bilinear((values,), grid, xq, yq)[0]


@dataclass(eq=False)
class ValueTable:
    """Period value function tabulated on the grid, in currency."""

    period: int
    grid: Grid
    values: np.ndarray

    @cached_property
    def _gradients(self) -> tuple[np.ndarray, np.ndarray]:
        dx = np.gradient(self.values, self.grid.x_nodes, axis=0)
        dy = np.gradient(self.values, self.grid.y_nodes, axis=1)
        return dx, dy

    def __call__(self, x, y):
        return interp2(self.values, self.grid, x, y)


@dataclass(eq=False)
class PolicyTable:
    """Optimal post-order stock level z*(x, y) per grid node."""

    period: int
    grid: Grid
    order_up_to: np.ndarray

    def order_quantity(self) -> np.ndarray:
        return self.order_up_to - self.grid.x_nodes[:, None]


def partials(table: ValueTable, x, y):
    """(dV/dx, dV/dy) from central differences on the grid, interpolated.

    Differences are one-sided at the boundary rows/columns; the difference
    fields themselves are interpolated bilinearly, both from one lookup.
    """
    gx, gy = _bilinear(table._gradients, table.grid, x, y)
    return gx, gy


def _next_state(z, xi, d, n: int, horizon: HorizonSpec, *, bank=None, backlog=None):
    """(x', y') after ordering up to z from net worth xi and meeting demand d.

    Before the last period y' is in next period's units; in period N it is
    terminal wealth in currency, with h' = -s. `bank` maps a currency bank
    position to its end-of-period value (default: the two rates). `backlog`
    is a backorder penalty b: unmet demand stays as negative stock and
    b E[D] is charged (the horizon's prices then include b).

    The two-rate bank term is min(s(1+i), s(1+l)) with s = c'(xi - z): as
    i < l and c' > 0, that is s(1+i) where z <= xi and s(1+l) elsewhere,
    bit for bit, without a mask. The bank term and y' are built in place on
    the function's own temporaries; `leftover` is not, as building it in
    z - d raised the minor page faults of `tables --which table2` at half
    grid from 219k to 274k. Scalar inputs give scalar results.
    """
    params = horizon.period(n)
    if n < horizon.n_periods:
        pp, hp, cp = normalized_params(horizon, n)
        c_next = horizon.period(n + 1).cost
    else:
        pp, hp, cp, c_next = params.price, -horizon.salvage, params.cost, 1.0
    scalar = np.ndim(z) == np.ndim(xi) == np.ndim(d) == 0
    z, xi, d = np.atleast_1d(z, xi, d)
    leftover = np.maximum(z - d, 0.0)
    if bank is None:
        spend = np.subtract(xi, z, dtype=float)
        spend *= cp
        bank_units = spend * (1.0 + params.deposit_rate)
        np.minimum(bank_units, np.multiply(spend, 1.0 + params.loan_rate, out=spend),
                   out=bank_units)
    else:
        bank_units = bank(params.cost * (xi - z)) / c_next
    y_next = (pp + hp) * leftover
    np.subtract(pp * z, y_next, out=y_next)
    y_next += bank_units
    if backlog is None:
        x_next = leftover
    else:
        x_next = z - d
        y_next -= backlog / c_next * horizon.demand_in(n).mean()
    return (x_next[0], y_next[0]) if scalar else (x_next, y_next)


def _expected_next(z, xi, horizon, n, next_value, bank=None, backlog=None):
    """E_D[ next_value(x', y') ] for per-element (z, xi) under period n.

    Lost sales take the sales nodes; a backlog carries z - D, which reads
    the demand above z, and takes every node.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    demand = horizon.demand_in(n)
    nodes, weights = demand.sales_nodes(z) if backlog is None else demand.expectation_nodes(z)
    x_next, y_next = _next_state(z[:, None], xi[:, None], nodes, n, horizon,
                                 bank=bank, backlog=backlog)
    return np.sum(next_value(x_next, y_next) * weights, axis=1)


def golden_max(f, lo, hi, tol: float, candidates=()):
    """Maximize per-element concave f over [lo, hi] by golden-section search.

    `candidates` are extra per-element points (clipped to the bracket) that
    are evaluated exactly, covering kinks the section may straddle. Ties
    within a relative 1e-9 prefer the smaller argument.
    Returns (argmax, value).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), lo.shape).copy()
    hi = np.maximum(hi, lo)
    a, b = lo.copy(), hi.copy()
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    width = float(np.max(b - a, initial=0.0))
    n_iter = int(np.ceil(np.log(tol / width) / np.log(_INVPHI))) if width > tol else 0
    for _ in range(n_iter):
        left = f1 >= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        x1n = np.where(left, b - _INVPHI * (b - a), x2)
        x2n = np.where(left, x1, a + _INVPHI * (b - a))
        fnew = f(np.where(left, x1n, x2n))
        f1, f2 = np.where(left, fnew, f2), np.where(left, f1, fnew)
        x1, x2 = x1n, x2n
    z_stack = [np.where(f1 >= f2, x1, x2), lo]
    for cand in candidates:
        z_stack.append(np.clip(np.broadcast_to(np.asarray(cand, dtype=float), lo.shape), lo, hi))
    zs = np.stack(z_stack)
    fs = np.stack([np.where(f1 >= f2, f1, f2)] + [f(zc) for zc in zs[1:]])
    return _smallest_argmax(zs, fs)


def _smallest_argmax(zs, fs):
    """(z, max f) over axis 0 of the stacked candidates, taking the smallest
    z whose f is within a relative 1e-9 of the max."""
    best = fs.max(axis=0)
    tie = best - 1e-9 * (1.0 + np.abs(best))
    return np.where(fs >= tie, zs, np.inf).min(axis=0), best


def _require_on_grid(grid: Grid, what: str, x: float, y: float) -> None:
    """A table read at a state outside the grid would be extrapolated."""
    (x_lo, x_hi), (y_lo, y_hi) = ((v[0], v[-1]) for v in (grid.x_nodes, grid.y_nodes))
    if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
        raise ValueError(
            f"{what} puts the state ({x:g}, {y:g}) outside the grid, x in [{x_lo:g}, "
            f"{x_hi:g}] and y in [{y_lo:g}, {y_hi:g}], where its value would be extrapolated")


def _require_base_model(solution: DPSolution, what: str) -> None:
    """The threshold tables and the bound and gap reports read a solve of the
    base model: their myopic policies, brackets and relaxation ignore tiered
    rates, a loan limit and backorders. An extension's solve keeps no
    per-worth maximizer, which tells it apart."""
    if solution.worth_argmax is None:
        raise ValueError(
            f"{what} needs a solve of the base model, whose levels are a rule of net "
            "worth alone; this solution has tiered rates, a loan limit or backorders")


def worth_grid(grid: Grid) -> np.ndarray:
    """Deduplicated union of x + y node sums."""
    sums = (grid.x_nodes[:, None] + grid.y_nodes[None, :]).ravel()
    return np.unique(np.round(sums, 9))


def worth_search(f, grid: Grid, hi, tol: float, branches, candidates=()):
    """Maximize f(z, xi, k) over z in [x, hi] at every node (x, y), xi = x + y.

    Branch k spans z - xi in branches[k] = (a_k, b_k), ends possibly
    infinite; f must depend on a node only through xi and be concave in z
    on each branch. One golden-section search per branch and distinct net
    worth w, with the kink z = w, the branch's ends and the scalar
    `candidates` evaluated exactly, gives z_k(w). A node clips it into
    [max(x, xi + a_k), min(hi, xi + b_k)] and evaluates f there if the clip
    binds; a branch that misses [x, hi] gives -inf. The best branch wins
    (`_smallest_argmax`). `hi` is a scalar or one bound per node in
    grid.mesh() order, as are the results. Returns (argmax, value, z_w),
    z_w the list of each branch's z_k(w) on worth_grid(grid), before any
    node's clip.
    """
    X, Y = grid.mesh()
    x_flat = X.ravel()
    xi_flat = x_flat + Y.ravel()
    hi = np.maximum(np.broadcast_to(np.asarray(hi, dtype=float), x_flat.shape), x_flat)
    worth = worth_grid(grid)
    # worth_grid rounds the same sums, so every node finds its exact entry
    at = np.searchsorted(worth, np.round(xi_flat, 9))
    z_parts, v_parts, z_worth = [], [], []
    for k, (a, b) in enumerate(branches):
        # golden_max evaluates the bracket's lower end; add the upper, if finite
        ends = [worth + b] if np.isfinite(b) else []
        z_w, v_w = golden_max(lambda z, _k=k: f(z, worth, _k),
                              np.maximum(worth + a, grid.x_nodes[0]),
                              np.minimum(worth + b, hi.max()), tol,
                              candidates=[worth, *ends, *candidates])
        lo_k, hi_k = np.maximum(x_flat, xi_flat + a), np.minimum(hi, xi_flat + b)
        z = np.clip(z_w[at], lo_k, hi_k)
        v = v_w[at]
        bind = z != z_w[at]
        if np.any(bind):
            v[bind] = f(z[bind], xi_flat[bind], k)
        v[lo_k > hi_k] = -np.inf
        z_parts.append(z)
        v_parts.append(v)
        z_worth.append(z_w)
    if len(z_parts) == 1:  # its own best; stacked copies would grow the heap
        return z_parts[0], v_parts[0], z_worth
    return (*_smallest_argmax(np.stack(z_parts), np.stack(v_parts)), z_worth)


def _myopic_targets(horizon: HorizonSpec, n: int) -> list[float]:
    pairs = [myopic_lower(horizon, n)]
    if horizon.upper_myopic_valid:
        pairs.append(myopic_upper(horizon, n))
    return [level for pair in pairs for level in (pair.borrow, pair.deposit)]


@dataclass(eq=False)
class DPSolution:
    horizon: HorizonSpec
    grid: Grid
    values: list[ValueTable]    # values[n-1] is period n
    policies: list[PolicyTable]
    #: row n-1 is period n's maximizer on worth_grid(grid), before each
    #: node's clip to [x, hi], for n < N; None where the levels are not a
    #: rule of net worth alone (tiered rates, a loan limit, backorders)
    worth_argmax: np.ndarray | None

    def value(self, n: int) -> ValueTable:
        return self.values[n - 1]

    def policy(self, n: int) -> PolicyTable:
        return self.policies[n - 1]

    def tail(self, k: int) -> "DPSolution":
        """The solution of the horizon's last N - k periods, renumbered from 1.

        The backward recursion never looks before the period it solves, so
        period k + n here is period n of HorizonSpec(periods[k:], demands[k:],
        salvage). The tables share this solution's arrays. The myopic search
        candidates depend on `upper_myopic_valid` over the whole horizon, so
        a direct solve of a tail that changes it may differ within Z_TOL.
        """
        if not 0 <= k < self.horizon.n_periods:
            raise ValueError(f"tail offset {k} outside 0..{self.horizon.n_periods - 1}")
        hz = self.horizon
        return DPSolution(
            HorizonSpec(hz.periods[k:], hz.demands[k:], hz.salvage), self.grid,
            [ValueTable(t.period - k, t.grid, t.values) for t in self.values[k:]],
            [PolicyTable(t.period - k, t.grid, t.order_up_to) for t in self.policies[k:]],
            None if self.worth_argmax is None else self.worth_argmax[k:])


def _terminal_wealth(x, y):
    """The value after the last period: y' there is terminal wealth."""
    return y


def _induct(horizon: HorizonSpec, step, table) -> list:
    """The backward recursion of every solver.

    `step(n, next_value)` gives period n's (order-up-to, value) pair from
    period n+1's value, a callable (x', y') -> value: the table of period
    n+1, or terminal wealth when n = N. `table(n, z, v)` wraps the pair as
    period n's table, which is period n-1's next value. Returns the tables,
    period 1 first.
    """
    tables = [_terminal_wealth]
    for n in range(horizon.n_periods, 0, -1):
        tables.append(table(n, *step(n, tables[-1])))
    return tables[:0:-1]


def _grid_solution(horizon: HorizonSpec, grid: Grid, step, worth_argmax=None) -> DPSolution:
    """`_induct` with grid tables: a value and a policy table per period,
    the step's arrays in grid.mesh() order."""
    policies = []

    def table(n, z, v):
        policies.insert(0, PolicyTable(n, grid, np.reshape(z, grid.shape)))
        return ValueTable(n, grid, np.reshape(v, grid.shape))

    return DPSolution(horizon, grid, _induct(horizon, step, table), policies, worth_argmax)


def _last_step(horizon: HorizonSpec, x, y, next_value, hi=np.inf, backlog=None):
    """Period N's (order-up-to, value) at the states (x, y): the closed
    form's order (the rule at `myopic_lower(horizon, N)`), cut at `hi`, and
    the expectation of terminal wealth `next_value` through the transition.
    The objective is concave in the order, so the cut order stays optimal."""
    n = horizon.n_periods
    z = np.minimum(x + optimal_order(x, y, myopic_lower(horizon, n)), hi)
    return z, _expected_next(z, x + y, horizon, n, next_value, backlog=backlog)


def backward_induct(horizon: HorizonSpec, grid: Grid, *, z_cap=None,
                    backlog=None) -> DPSolution:
    """Solve the horizon on the grid; returns value and policy tables.

    Period N is `_last_step`. Earlier periods maximize the stage value
    over z in [x, z_max] with worth_search on one unbounded branch, with the
    myopic order-up-to levels evaluated explicitly. Without z_cap or backlog
    the solution keeps each period's per-worth maximizer, from which
    `ThresholdTable.from_solution` reads both levels. `z_cap(n, x, y)`
    optionally tightens period n's upper bound per node (loan limits); in
    period N it cuts the closed form's order. `backlog` is a backorder
    penalty (see _next_state and backorder_dp); the grid may then hold
    negative stock.
    """
    require_valid(horizon)
    if backlog is None and grid.x_nodes[0] < -1e-12:
        raise ValueError("inventory nodes must be nonnegative under lost sales")
    X, Y = grid.mesh()
    x, y = X.ravel(), Y.ravel()
    # z(w) gives a two-threshold rule of w alone only without a per-node cap
    # or a backlog. One array for every period, allocated before the
    # search's temporaries: a table kept per period would sit among them on
    # the heap and cost 40% more page faults (tables --which table2)
    worth_argmax = (np.empty((horizon.n_periods - 1, len(worth_grid(grid))))
                    if z_cap is None and backlog is None else None)

    def step(n, next_value):
        if n == horizon.n_periods:
            hi = np.inf if z_cap is None else z_cap(n, x, y)
            return _last_step(horizon, x, y, next_value, hi, backlog)
        z_max = float(grid.x_nodes[-1] + horizon.demand_in(n).quantile(0.999))
        hi = np.minimum(z_cap(n, x, y), z_max) if z_cap is not None else z_max

        def f(z, xi, _k):
            return _expected_next(z, xi, horizon, n, next_value, backlog=backlog)

        z, v, (z_w,) = worth_search(f, grid, hi, Z_TOL, [(-np.inf, np.inf)],
                                    _myopic_targets(horizon, n))
        if worth_argmax is not None:
            worth_argmax[n - 1] = z_w
        return z, v

    return _grid_solution(horizon, grid, step, worth_argmax)


def policy_value_tables(horizon: HorizonSpec, grid: Grid, policy) -> list[ValueTable]:
    """Expected terminal wealth tables of following `policy` in every period.

    `policy(n, x, y)` returns the order quantity per node (vectorized).
    """
    require_valid(horizon)
    X, Y = grid.mesh()
    x, y = X.ravel(), Y.ravel()

    def step(n, next_value):
        z = x + np.maximum(policy(n, x, y), 0.0)
        return z, _expected_next(z, x + y, horizon, n, next_value)

    return _grid_solution(horizon, grid, step).values
