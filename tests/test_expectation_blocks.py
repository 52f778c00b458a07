"""Expectations in blocks on one scratch pool: the same bits as in one piece,
a bounded heap, and a pool that lives exactly as long as a solve."""

import tracemalloc

import numpy as np
import pytest

import cashstock as cs
from cashstock import dp
from cashstock.bounds import WorthValueTable, default_worth_grid, selling_back_dp
from cashstock.demand import QUAD_ORDER
from cashstock.dp import (BLOCK_ELEMENTS, Grid, ValueTable, _blocks, _expected_next,
                          _next_state, _scratch_scope, _terminal_wealth, worth_grid)
from cashstock.extensions import PiecewiseRateSchedule, piecewise_dp

from closed_form import tier_flow
from conftest import DEMANDS, make_horizon

SCHEDULE = PiecewiseRateSchedule(loan_rates=(0.15, 0.30), loan_breaks=(5000.0,),
                                 deposit_rates=(0.01,))
N_PERIODS = 2


def one_piece(z, xi, hz, n, next_value, bank=None, backlog=None):
    """The expectation built in one piece, every (point, node) pair at once."""
    demand = hz.demand_in(n)
    nodes, weights = demand.sales_nodes(z) if backlog is None else demand.expectation_nodes(z)
    x_next, y_next = _next_state(z[:, None], xi[:, None], nodes, n, hz,
                                 bank=bank, backlog=backlog)
    return np.sum(next_value(x_next, y_next) * weights, axis=1)


def smooth_table(grid):
    # concave in both coordinates, so interpolation weights all matter
    X, Y = grid.mesh()
    return 2000.0 * np.sqrt(1.0 + X) + 1500.0 * Y - 2.0 * Y ** 2 / (1.0 + X)


def next_values():
    """Period 1's next value, by name: a grid table and a selling-back table."""
    grid = Grid.regular(40, -60, 120, 41, 51)
    worth = default_worth_grid(grid)
    return {
        "table": ValueTable(2, grid, smooth_table(grid)),
        "worth": WorthValueTable(2, worth, 1800.0 * worth - 0.5 * worth ** 2,
                                 np.zeros_like(worth)),
    }


NEXT = next_values()

#: (period, next value, transition keywords)
CASES = {
    "lost-sales": (1, "table", {}),
    "worth-table": (1, "worth", {}),
    "terminal-wealth": (N_PERIODS, "terminal", {}),
    "backlog": (1, "table", {"backlog": 300.0}),
    "tiered-bank": (1, "table", {"bank": tier_flow(SCHEDULE)}),
    "tiered-bank-terminal": (N_PERIODS, "terminal", {"bank": tier_flow(SCHEDULE)}),
}


def batch(m, seed):
    # z[0] is the batch's largest z, so atom demand's cut, and with it the
    # node count, is the same for every m
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 30.0, m)
    z[0] = 30.0
    return z, rng.uniform(-60.0, 160.0, m)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("key", ["u0_20", "zip18", "iu0_20"])
def test_blocks_equal_the_one_piece_formula(key, case):
    n, name, kw = CASES[case]
    hz = make_horizon(key, N_PERIODS)
    next_value = _terminal_wealth if name == "terminal" else NEXT[name]
    demand = hz.demand_in(n)
    build = demand.expectation_nodes if "backlog" in kw else demand.sales_nodes
    k = build(batch(1, 0)[0])[0].shape[-1]
    rows = BLOCK_ELEMENTS // k
    for m in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
        z, xi = batch(m, m)
        assert len(build(z)[0][0]) == k
        want = one_piece(z, xi, hz, n, next_value, **kw)
        # outside a solve on the call's own pool, inside on the solve's
        got = _expected_next(z, xi, hz, n, next_value, **kw)
        with _scratch_scope():
            got_in_scope = _expected_next(z, xi, hz, n, next_value, **kw)
        assert np.array_equal(got, want), (m, np.max(np.abs(got - want)))
        assert np.array_equal(got_in_scope, want), m


def allocating_locate(nodes, step, q):
    # reference lookup: the same operations, each into a fresh array
    u = (q - nodes[0]) / step
    idx = np.fmin(np.fmax(u, 0.0), len(nodes) - 2).astype(np.intp)
    return idx, u - idx


def allocating_lerp(values, at, t):
    a = values[at]
    return a + t * (values[at + 1] - a)


def allocating_bilinear(fields, grid, xq, yq):
    ix, tx = allocating_locate(grid.x_nodes, grid._steps[0], np.asarray(xq, dtype=float))
    iy, ty = allocating_locate(grid.y_nodes, grid._steps[1], np.asarray(yq, dtype=float))
    ny = len(grid.y_nodes)
    flat = ix * ny + iy
    out = []
    for table in fields:
        v = np.ravel(table)
        lo = allocating_lerp(v, flat, ty)
        out.append(lo + tx * (allocating_lerp(v, flat + ny, ty) - lo))
    return out


@pytest.mark.parametrize("name", ["table"])
def test_kernels_in_place_equal_the_allocating_ones(name):
    # the in-place lookup, on its own arrays and on a pool's node-major
    # views, gives the bits of the same operations into fresh arrays: inside
    # and outside the grid, at NaN, for scalar, 1-D and 2-D queries
    table = NEXT[name]
    grid = table.grid
    rng = np.random.default_rng(9)
    xq = rng.uniform(-10.0, 50.0, (37, 11))
    yq = rng.uniform(-80.0, 140.0, (37, 11))
    xq[3, 4], yq[5, 6] = np.nan, np.nan
    # the values and their central differences along x and y
    fields = (table.values, *np.gradient(table.values, grid.x_nodes, grid.y_nodes))
    want = allocating_bilinear(fields, grid, xq, yq)
    want_scalar = allocating_bilinear(fields, grid, 7.3, -12.1)
    for field, w, w_scalar in zip(fields, want, want_scalar, strict=True):
        assert np.array_equal(dp.interp2(field, grid, xq, yq), w, equal_nan=True)
        assert dp.interp2(field, grid, 7.3, -12.1) == w_scalar
    assert np.array_equal(dp.interp2(table.values, grid, xq[0], yq[0]), want[0][0],
                          equal_nan=True)
    spare = dp._Scratch(xq.size).views(*xq.shape)
    xv, yv = spare.pop(), spare.pop()
    xv[...], yv[...] = xq, yq
    assert np.array_equal(table._read(xv, yv, spare), want[0], equal_nan=True)
    worth = NEXT["worth"]
    q = (xq + yq).ravel()
    assert np.array_equal(worth(q, 0.0),
                          allocating_lerp(worth.values, *allocating_locate(worth.worth, worth._step, q)),
                          equal_nan=True)


@pytest.mark.parametrize("m, rows", [(1, 7), (7, 7), (8, 7), (26, 7), (10925, 3640)])
def test_blocks_split_evenly(m, rows):
    blocks = _blocks(m, rows)
    sizes = [stop - start for start, stop in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == m
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert len(blocks) == -(-m // rows) and max(sizes) <= rows and max(sizes) - min(sizes) <= 1


def test_uniform_nodes_equal_the_concatenated_rule():
    # the node builders fill their rows in place; the reference concatenates
    # the same rule: 8 GL points on [lo, z] (and on [z, hi] for
    # expectation_nodes) and, over sales, one tail node at hi
    demand = cs.Uniform(2, 18)
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)
    density = 1.0 / (demand.hi - demand.lo)
    z = np.clip(np.random.default_rng(3).uniform(-5.0, 25.0, 997), demand.lo, demand.hi)

    def segments(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        return mid[:, None] + half[:, None] * gx, half[:, None] * gw * density

    lo, hi = np.full_like(z, demand.lo), np.full_like(z, demand.hi)
    n1, w1 = segments(lo, z)
    n2, w2 = segments(z, hi)
    sales = (np.concatenate([n1, hi[:, None]], axis=1),
             np.concatenate([w1, ((demand.hi - z) * density)[:, None]], axis=1))
    every = np.concatenate([n1, n2], axis=1), np.concatenate([w1, w2], axis=1)
    for got, want in ((demand.sales_nodes(z), sales), (demand.expectation_nodes(z), every)):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        out = (np.empty_like(want[0]), np.empty_like(want[1]))
        filled = (demand.sales_nodes if want is sales else demand.expectation_nodes)(z, out=out)
        assert all(f is o for f, o in zip(filled, out))
        assert all(np.array_equal(o, w) for o, w in zip(out, want))


def test_a_desk_grid_step_allocates_under_two_of_its_batches(desk_grid):
    # one golden-section step on the desk grid: 4,333 worths x 9 nodes. In
    # one piece its temporaries peaked at 4.4 MB against 0.3 MB for one
    # (points x nodes) array; on the solve's pool only per-row arrays remain
    hz = make_horizon("u0_20", N_PERIODS)
    worth = worth_grid(desk_grid)
    z = np.clip(worth, 0.0, None) + 5.0
    table = ValueTable(2, desk_grid, smooth_table(desk_grid))
    k = hz.demand_in(1).sales_nodes(z[:1])[0].shape[-1]
    with _scratch_scope():
        _expected_next(z, worth, hz, 1, table)  # builds the GL rule's cache
        tracemalloc.start()
        try:
            _expected_next(z, worth, hz, 1, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(worth) == 4333 and k == 9
    assert peak < 2 * len(worth) * k * 8, peak


def open_pool():
    return getattr(dp._SOLVE, "scratch", None)


def test_the_pool_lives_for_a_solve(small_grid):
    hz = make_horizon("u0_20", 3)
    seen = []

    def policy(n, x, y):
        seen.append(open_pool())
        return np.zeros_like(x)

    cs.policy_value_tables(hz, small_grid, policy)
    assert len(seen) == 3 and seen[0] is not None and all(p is seen[0] for p in seen)
    assert open_pool() is None
    for solve in (lambda: cs.backward_induct(hz, small_grid),
                  lambda: piecewise_dp(hz, SCHEDULE, small_grid),
                  lambda: selling_back_dp(hz, small_grid)):
        solve()
        assert open_pool() is None


def test_the_pool_goes_when_a_step_raises(small_grid):
    hz = make_horizon("zip18", 3)

    def policy(n, x, y):
        if n == 1:
            raise RuntimeError("policy fails in period 1")
        return np.zeros_like(x)

    with pytest.raises(RuntimeError, match="period 1"):
        cs.policy_value_tables(hz, small_grid, policy)
    assert open_pool() is None


def test_the_monte_carlo_runs_without_the_pool(small_grid):
    hz = make_horizon("zip18", 3)
    table = cs.ThresholdTable.from_solution(cs.backward_induct(hz, small_grid))
    seen = []
    policy = cs.ThresholdPolicy(table)

    def watched(n, x, y):
        seen.append(open_pool())
        return policy(n, x, y)

    cs.run_policies(hz, [watched], cs.State(0.0, 0.0), 1000, 0)
    assert seen and all(p is None for p in seen)


def test_nested_scopes_share_the_outer_pool():
    with _scratch_scope():
        outer = open_pool()
        with _scratch_scope():
            assert open_pool() is outer
        assert open_pool() is outer
    assert open_pool() is None


@pytest.mark.parametrize("key", ["u0_20", "zip18", "iu0_20"])
def test_an_empty_batch_tells_per_point_nodes_from_a_shared_row(key):
    # _expected_next asks the node builders for an empty batch's nodes: a
    # continuous demand gives (0, k), a row per point; atom demand gives
    # its one row, which every point shares
    demand, z = DEMANDS[key], np.array([3.0, 12.0])
    for build in (demand.sales_nodes, demand.expectation_nodes):
        empty, full = build(z[:0])[0], build(z)[0]
        if key.startswith("u"):
            assert empty.shape == (0, full.shape[1]) and full.shape[0] == 2
        else:
            assert len(empty) == 1 and full.shape[0] == 1
