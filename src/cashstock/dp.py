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

Before period N every expectation looks the next table up bilinearly
(`interp2`). Every axis is evenly spaced (a Grid refuses any other), so a
query's cell is found by arithmetic, i = floor((q - x0) / h) clipped to the
edge cells; the fraction is left unclipped, so queries outside the grid
extend linearly along the edge cell.

An expectation runs in blocks of BLOCK_ELEMENTS // k points, k demand nodes
per point, split evenly over the batch. Every (points x nodes) array of a
block (nodes, weights, x', y', cell indices, fractions, corner values) is
written with out= into one scratch pool of SCRATCH_BUFFERS arrays of
BLOCK_ELEMENTS floats (1.75 MiB, within a core's 2 MiB L2 cache). `_induct`
opens the pool and drops it when the solve returns or raises, so every step
of a solve reuses it and the Monte Carlo that follows never holds it; a
call outside a solve gets a pool of its own. Built in one piece, a step
made about 25 fresh arrays of 150-300 KiB, which glibc maps and unmaps
afresh: the extensions-lib benchmark process (2-core Xeon, numpy 2.4) took
227,716 minor page faults and about 0.5 s of system time, against 6,734 and
0.05 s on the pool, with the same bits out (each element sees the same
operations in the same order).
Atom demand keeps its nodes cut at the whole batch's largest z.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import HorizonSpec, normalized_params
from .single_period import myopic_lower, myopic_upper, optimal_order

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

#: width to which the net-worth search's golden-section bracket is narrowed
Z_TOL = 1e-4

#: elements of one (points x demand nodes) block of an expectation; every
#: buffer of the scratch pool holds one block. Swept over 2^13..2^16 on the
#: benchmark's workloads: 2^15 ran table2-half fastest and extensions-lib as
#: fast as any; smaller blocks cost more numpy calls, and 2^16 only added
#: peak memory
BLOCK_ELEMENTS = 1 << 15

#: buffers in the scratch pool: a grid-table read holds seven at once
SCRATCH_BUFFERS = 7


@dataclass(frozen=True)
class Grid:
    """Rectangular state grid with strictly increasing, evenly spaced axes."""

    x_nodes: np.ndarray
    y_nodes: np.ndarray

    def __post_init__(self):
        for name, nodes in (("x", self.x_nodes), ("y", self.y_nodes)):
            arr = np.asarray(nodes, dtype=float)
            if arr.ndim != 1 or len(arr) < 2 or np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} nodes must be strictly increasing, length >= 2")
            object.__setattr__(self, f"{name}_nodes", arr)
        object.__setattr__(self, "_steps", (_axis_step(self.x_nodes, "x"),
                                            _axis_step(self.y_nodes, "y")))

    @classmethod
    def regular(cls, x_max: float, y_min: float, y_max: float, nx: int, ny: int) -> "Grid":
        return cls(np.linspace(0.0, x_max, nx), np.linspace(y_min, y_max, ny))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.x_nodes), len(self.y_nodes)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")


def _axis_step(nodes: np.ndarray, name: str) -> float:
    # the spacing h when nodes[k] = nodes[0] + k h to 8 ulps (as linspace and
    # arange build them); any other axis raises, as `_locate` only indexes
    n = len(nodes)
    h = (nodes[-1] - nodes[0]) / (n - 1)
    even = nodes[0] + h * np.arange(n)
    ulps = 8.0 * np.finfo(float).eps * max(abs(nodes[0]), abs(nodes[-1]))
    if not np.max(np.abs(nodes - even)) <= ulps:
        raise ValueError(f"{name} nodes must be evenly spaced")
    return float(h)


def _out(spare):
    """A buffer from `spare` to write into, or None, so that numpy allocates.

    `spare` is None or a list of free float arrays of the queries' shape. A
    lookup given a list pops the buffers it fills, puts back (`_release`)
    those it is done with, and treats its queries as its own: once read,
    they join the list. Without a list it allocates and leaves its queries
    as they are."""
    return spare.pop() if spare else None


def _release(spare, array) -> None:
    if spare is not None:
        spare.append(array.view(np.float64))


def _locate(nodes: np.ndarray, step: float, q: np.ndarray, spare):
    """(cell index, fraction) of the queries on the axis `nodes`, `step` apart.

    The index is clipped to the edge cells; the fraction is left unclipped so
    points outside the grid extend linearly along the boundary cell. See
    `_out` for `spare`."""
    u = np.subtract(q, nodes[0], out=_out(spare))
    u /= step
    _release(spare, q)
    # fmax/fmin send NaN to cell 0 (its fraction stays NaN); for u >= 0 the
    # cast to intp truncates, which is floor
    w = np.fmax(u, 0.0, out=_out(spare))
    np.fmin(w, len(nodes) - 2, out=w)
    buffer = _out(spare)
    if buffer is None:
        idx = w.astype(np.intp)
    else:
        idx = buffer.view(np.intp)
        np.copyto(idx, w, casting="unsafe")
    _release(spare, w)
    u -= idx
    return idx, u


def _take(values, at, spare):
    # values[at] for indices known to be in range; mode="clip" writes into
    # `out` directly, where the default mode would copy through a temporary.
    # np.take wants both arrays in C order, which a pool view (see
    # _Scratch.views) is when transposed
    out = _out(spare)
    if out is None:
        return np.take(values, at, mode="clip")
    np.take(values, at.T, out=out.T, mode="clip")
    return out


def _lerp(flat_values: np.ndarray, at, t, spare=None):
    """values[at] + t (values[at + 1] - values[at])."""
    a = _take(flat_values, at, spare)
    b = _take(flat_values[1:], at, spare)
    b -= a
    np.multiply(t, b, out=b)
    b += a
    _release(spare, a)
    return b


def interp2(values: np.ndarray, grid: Grid, xq, yq, spare=None):
    """Bilinear interpolation of a (nx, ny) table, linear one-sided outside.
    See `_out` for `spare`."""
    xq, yq = np.broadcast_arrays(np.asarray(xq, dtype=float), np.asarray(yq, dtype=float))
    scalar = xq.ndim == 0
    if scalar:  # the kernel works in place, which a scalar cannot be
        xq, yq, spare = xq.reshape(1), yq.reshape(1), None
    ix, tx = _locate(grid.x_nodes, grid._steps[0], xq, spare)
    iy, ty = _locate(grid.y_nodes, grid._steps[1], yq, spare)
    ny = len(grid.y_nodes)
    flat = np.multiply(ix, ny, out=ix)
    flat += iy
    _release(spare, iy)
    v = np.ravel(values)
    lo = _lerp(v, flat, ty, spare)
    hi = _lerp(v[ny:], flat, ty, spare)  # row ix + 1
    hi -= lo
    np.multiply(tx, hi, out=hi)
    hi += lo
    _release(spare, lo)
    return hi[0] if scalar else hi


@dataclass(eq=False)
class ValueTable:
    """Period value function tabulated on the grid, in currency."""

    period: int
    grid: Grid
    values: np.ndarray

    def __call__(self, x, y):
        return interp2(self.values, self.grid, x, y)

    def _read(self, x, y, spare):
        """The table at (x, y), in `spare` (see `_out`)."""
        return interp2(self.values, self.grid, x, y, spare)


@dataclass(eq=False)
class PolicyTable:
    """Optimal post-order stock level z*(x, y) per grid node."""

    period: int
    grid: Grid
    order_up_to: np.ndarray

    def order_quantity(self) -> np.ndarray:
        return self.order_up_to - self.grid.x_nodes[:, None]


def _next_state(z, xi, d, n: int, horizon: HorizonSpec, *, bank=None, backlog=None,
                out=(None, None)):
    """(x', y') after ordering up to z from net worth xi and meeting demand d.

    Before the last period y' is in next period's units; in period N it is
    terminal wealth in currency, with h' = -s. `bank` maps a currency bank
    position to its end-of-period value (default: the two rates). `backlog`
    is a backorder penalty b: unmet demand stays as negative stock and
    b E[D] is charged (the horizon's prices then include b). `out` is a
    pair of arrays of the result's shape that receive x' and y' (None
    allocates). Scalar inputs give scalar results.

    The two-rate bank term is min(s(1+i), s(1+l)) with s = c'(xi - z): as
    i < l and c' > 0, that is s(1+i) where z <= xi and s(1+l) elsewhere,
    bit for bit, without a mask. The bank term and y' are built in place on
    the function's own temporaries. Without `out`, z - d and its positive
    part are separate arrays: building one in the other raised the minor
    page faults of `tables --which table2` at half grid from 219k to 274k.
    """
    params = horizon.period(n)
    if n < horizon.n_periods:
        pp, hp, cp = normalized_params(horizon, n)
        c_next = horizon.period(n + 1).cost
    else:
        pp, hp, cp, c_next = params.price, -horizon.salvage, params.cost, 1.0
    scalar = np.ndim(z) == np.ndim(xi) == np.ndim(d) == 0
    z, xi, d = np.atleast_1d(z, xi, d)
    x_out, y_out = out
    leftover = np.maximum(np.subtract(z, d, out=x_out), 0.0, out=x_out)
    if bank is None:
        spend = np.subtract(xi, z, dtype=float)
        spend *= cp
        bank_units = spend * (1.0 + params.deposit_rate)
        np.minimum(bank_units, np.multiply(spend, 1.0 + params.loan_rate, out=spend),
                   out=bank_units)
    else:
        bank_units = bank(params.cost * (xi - z)) / c_next
    y_next = np.multiply(pp + hp, leftover, out=y_out)
    np.subtract(pp * z, y_next, out=y_next)
    y_next += bank_units
    if backlog is None:
        x_next = leftover
    else:
        x_next = np.subtract(z, d, out=x_out)  # with `out`, over the spent leftover
        y_next -= backlog / c_next * horizon.demand_in(n).mean()
    return (x_next[0], y_next[0]) if scalar else (x_next, y_next)


def _blocks(m: int, rows: int) -> list[tuple[int, int]]:
    """[start, stop) of ceil(m / rows) blocks of near-equal size covering m."""
    count = -(-m // rows)
    return [(j * m // count, (j + 1) * m // count) for j in range(count)]


class _Scratch:
    """SCRATCH_BUFFERS float buffers of `size` elements, handed out per block."""

    def __init__(self, size: int):
        self._buffers = [np.empty(size) for _ in range(SCRATCH_BUFFERS)]

    def views(self, rows: int, k: int) -> list:
        """Every buffer as a (rows, k) array; none if a block does not fit.

        The views are laid out node by node (column-major), so that an
        operation between a per-point (rows, 1) column and a block runs
        along the rows, not in loops of k elements."""
        if rows * k > len(self._buffers[0]):
            return []
        return [b[:rows * k].reshape(k, rows).T for b in self._buffers]


#: the pool of the solve that runs in this thread (see _scratch_scope)
_SOLVE = threading.local()


@contextmanager
def _scratch_scope():
    """Give the expectations in the block one scratch pool, dropped on
    exit whether the block returns or raises; inside an open scope the
    outer pool serves."""
    outer = getattr(_SOLVE, "scratch", None)
    _SOLVE.scratch = outer or _Scratch(BLOCK_ELEMENTS)
    try:
        yield
    finally:
        _SOLVE.scratch = outer


def _expected_next(z, xi, horizon, n, next_value, bank=None, backlog=None):
    """E_D[ next_value(x', y') ] for per-element (z, xi) under period n.

    Lost sales take the sales nodes; a backlog carries z - D, which reads
    the demand above z, and takes every node. The points run in blocks of
    BLOCK_ELEMENTS // k rows, k nodes per point, on the open solve's
    scratch pool or, outside a solve, on one of the call's own. A next
    value with a `_read(x, y, spare)` method (the grid and worth tables)
    is read there with its intermediates in the pool (see `_out`); any
    other is called.
    """
    z, xi = np.broadcast_arrays(np.atleast_1d(np.asarray(z, dtype=float)),
                                np.atleast_1d(np.asarray(xi, dtype=float)))
    demand = horizon.demand_in(n)
    build = demand.sales_nodes if backlog is None else demand.expectation_nodes
    # an empty batch gives a continuous demand's (0, k) nodes, a row per
    # point, built block by block; atom demand gives its one row shared by
    # every point, built here once, cut at the whole batch's largest z
    nodes, weights = build(z[:0])
    per_point = not len(nodes)
    if not per_point:
        nodes, weights = build(z)
    k = nodes.shape[-1]
    rows = max(BLOCK_ELEMENTS // k, 1)
    pool = getattr(_SOLVE, "scratch", None) or _Scratch(min(len(z), rows) * k)
    read = getattr(next_value, "_read", None)
    result = np.empty(len(z))
    for start, stop in _blocks(len(z), rows):
        spare = pool.views(stop - start, k)
        if per_point:
            out = (spare.pop(), spare.pop()) if spare else None
            nodes, weights = build(z[start:stop], out=out)
        x_next, y_next = _next_state(z[start:stop, None], xi[start:stop, None], nodes, n,
                                     horizon, bank=bank, backlog=backlog,
                                     out=(_out(spare), _out(spare)))
        if per_point:
            _release(spare, nodes)
        value = read(x_next, y_next, spare) if read else next_value(x_next, y_next)
        # the product point by point (row-major), so that each row's sum
        # adds its k terms in the order a one-piece batch's rows do
        prod = _out(spare)
        prod = np.multiply(value, weights, order="C",
                           out=None if prod is None else prod.T.reshape(prod.shape))
        np.sum(prod, axis=1, out=result[start:stop])
    return result


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
    """The threshold tables and the bound report read a solve of the base
    model: their myopic policies, brackets and relaxation ignore tiered
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
        lo_w = np.maximum(worth + a, grid.x_nodes[0])
        hi_w = np.minimum(worth + b, hi.max())
        # golden_max evaluates the bracket's lower end; add the upper, if finite
        ends = [worth + b] if np.isfinite(b) else []
        z_w, v_w = _bracket_max(f, k, worth, lo_w, hi_w, tol, [worth, *ends, *candidates])
        # an infinite end leaves the node's own bound, which needs no copy
        lo_k = x_flat if a == -np.inf else np.maximum(x_flat, xi_flat + a)
        hi_k = hi if b == np.inf else np.minimum(hi, xi_flat + b)
        z_at = z_w[at]
        z = np.clip(z_at, lo_k, hi_k)
        v = v_w[at]
        bind = z != z_at
        if np.any(bind):
            v[bind] = f(z[bind], xi_flat[bind], k)
        if lo_k is not x_flat or hi_k is not hi:  # hi >= x_flat empties no node
            v[lo_k > hi_k] = -np.inf
        z_parts.append(z)
        v_parts.append(v)
        z_worth.append(z_w)
    if len(z_parts) == 1:  # its own best; stacked copies would grow the heap
        return z_parts[0], v_parts[0], z_worth
    return (*_smallest_argmax(np.stack(z_parts), np.stack(v_parts)), z_worth)


def _bracket_max(f, k: int, worth, lo, hi, tol: float, candidates):
    """golden_max of f(z, worth, k) over [lo, hi] per worth, the candidates
    given per worth or as scalars. A closed bracket (hi <= lo), where every
    point golden_max would evaluate is lo, is evaluated once there instead
    of once per iteration and candidate: tiered rates close many (47% of
    `piecewise_dp`'s on the extensions-lib benchmark instance)."""
    closed = hi <= lo
    if not closed.any():
        return golden_max(lambda z: f(z, worth, k), lo, hi, tol, candidates)
    z_w, v_w = lo.copy(), np.empty(len(lo))
    v_w[closed] = f(lo[closed], worth[closed], k)
    open_ = ~closed
    if open_.any():
        w_open = worth[open_]
        z_w[open_], v_w[open_] = golden_max(
            lambda z: f(z, w_open, k), lo[open_], hi[open_], tol,
            [c[open_] if np.ndim(c) else c for c in candidates])
    return z_w, v_w


def _demand_cap(horizon: HorizonSpec, n: int) -> float:
    """Period n's 0.999 demand quantile: how far a search looks past the grid."""
    return float(horizon.demand_in(n).quantile(0.999))


def _myopic_targets(horizon: HorizonSpec, n: int) -> list[float]:
    pairs = [myopic_lower(horizon, n)]
    if horizon.liquidation_shortfall(n) is None:
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
        salvage), bit for bit: each period's search candidates, its myopic
        levels among them, depend on that period and the next alone. The
        tables share this solution's arrays.
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
    period 1 first. The steps' expectations share one scratch pool, which
    goes when the recursion returns or raises.
    """
    tables = [_terminal_wealth]
    with _scratch_scope():
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
        z_max = float(grid.x_nodes[-1]) + _demand_cap(horizon, n)
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
    X, Y = grid.mesh()
    x, y = X.ravel(), Y.ravel()

    def step(n, next_value):
        z = x + np.maximum(policy(n, x, y), 0.0)
        return z, _expected_next(z, x + y, horizon, n, next_value)

    return _grid_solution(horizon, grid, step).values
