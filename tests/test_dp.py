import numpy as np
import pytest

import cashstock as cs
from cashstock import bounds, dp
from cashstock.demand import _Atoms
from cashstock.dp import (
    Z_TOL,
    Grid,
    ValueTable,
    _concave_stage,
    _expected_next,
    _grid_solution,
    _myopic_targets,
    _next_state,
    _smallest_argmax,
    _terminal_wealth,
    golden_max,
    interp2,
    worth_grid,
    worth_search,
)
from cashstock.bounds import WorthValueTable, selling_back_dp
from cashstock.extensions import backorder_dp, backorder_grid

from bisection import partials, solve_thresholds
from closed_form import G, capped_order, value
from conftest import BASE_ECON, SALVAGE, make_horizon
from search_oracle import full_search, golden_section

PARAMS = cs.PeriodParams(**BASE_ECON)
U20 = cs.Uniform(0, 20)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0]), np.array([0.0, 1.0]))
    # a cell is found by arithmetic alone, so each axis must be evenly spaced
    even, uneven = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0])
    for x, y, name in ((uneven, even, "x"), (even, uneven, "y")):
        with pytest.raises(ValueError, match=f"{name} nodes must be evenly spaced"):
            Grid(x, y)
    g = Grid.regular(10, -5, 5, 11, 21)
    assert g.shape == (11, 21)


def test_interp2_node_identity_and_linearity():
    g = Grid.regular(10, -5, 5, 6, 6)
    X, Y = g.mesh()
    table = 3.0 * X - 2.0 * Y + 1.0
    assert interp2(table, g, X.ravel(), Y.ravel()) == pytest.approx(table.ravel())
    rng = np.random.default_rng(0)
    xq, yq = rng.uniform(-4, 20, 100), rng.uniform(-12, 12, 100)  # incl. outside
    assert np.allclose(interp2(table, g, xq, yq), 3 * xq - 2 * yq + 1, atol=1e-12)


def test_interp2_preserves_monotonicity_along_lines():
    rng = np.random.default_rng(1)
    g = Grid.regular(10, 0, 10, 8, 9)
    table = np.cumsum(np.cumsum(rng.uniform(0, 1, g.shape), axis=0), axis=1)
    xq = np.linspace(0, 10, 200)
    for y in (0.0, 3.3, 10.0):
        vals = interp2(table, g, xq, np.full_like(xq, y))
        assert np.all(np.diff(vals) >= -1e-12)


def test_interp1_linear_extension():
    nodes, values = np.array([0.0, 1.5, 3.0]), np.array([0.0, 2.0, 4.0])
    table = WorthValueTable(1, nodes, values, nodes)
    assert table(np.array([-1.0, 0.25, 2.0, 5.0]), np.array([-0.5, 0.5, 0.25, 1.0])) \
        == pytest.approx([-2.0, 1.0, 3.0, 8.0])
    uneven = np.array([0.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="worth nodes must be evenly spaced"):
        WorthValueTable(1, uneven, values, uneven)(0.5, 0.0)


def _search_locate(nodes, q):
    idx = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, len(nodes) - 2)
    return idx, (q - nodes[idx]) / (nodes[idx + 1] - nodes[idx])


def search_interp1(nodes, values, q):
    """Reference: binary-search lookup and two-weight sum."""
    idx, t = _search_locate(nodes, np.asarray(q, dtype=float))
    return (1.0 - t) * values[idx] + t * values[idx + 1]


def search_interp2(values, grid, xq, yq):
    """Reference: binary-search lookup per axis and the four-weight sum."""
    ix, tx = _search_locate(grid.x_nodes, np.asarray(xq, dtype=float))
    iy, ty = _search_locate(grid.y_nodes, np.asarray(yq, dtype=float))
    return ((1.0 - tx) * (1.0 - ty) * values[ix, iy] + tx * (1.0 - ty) * values[ix + 1, iy]
            + (1.0 - tx) * ty * values[ix, iy + 1] + tx * ty * values[ix + 1, iy + 1])


def _kernel_queries(x_nodes, y_nodes):
    """(xq, yq) pairs: every node (the last included), points outside on all
    four sides, and scalar, 1-D, 2-D and broadcast query shapes."""
    rng = np.random.default_rng(11)
    x0, x1, y0, y1 = x_nodes[0], x_nodes[-1], y_nodes[0], y_nodes[-1]
    sx, sy = 0.2 * (x1 - x0), 0.2 * (y1 - y0)
    X, Y = np.meshgrid(x_nodes, y_nodes, indexing="ij")
    side = rng.uniform(y0, y1, 50)
    across = rng.uniform(x0, x1, 50)
    return [
        (X.ravel(), Y.ravel()),
        (float(x1), float(y1)),
        (float(x0 - 0.3 * sx), float(y0 + 0.5 * sy)),
        (rng.uniform(x0 - sx, x0, 50), side),          # below x
        (rng.uniform(x1, x1 + sx, 50), side),          # above x
        (across, rng.uniform(y0 - sy, y0, 50)),        # below y
        (across, rng.uniform(y1, y1 + sy, 50)),        # above y
        (rng.uniform(x0 - sx, x1 + sx, (7, 9)), rng.uniform(y0 - sy, y1 + sy, (7, 9))),
        (rng.uniform(x0, x1, (6, 1)), rng.uniform(y0, y1, (1, 5))),
    ]


def _kernel_grids():
    # the backlog axis of a base whose step, 3/7, is not dyadic
    backorder = backorder_grid(make_horizon("u0_20", 3), Grid.regular(30, -40, 80, 71, 41))
    return {"regular": Grid.regular(40, -60, 120, 41, 51), "backorder": backorder}


@pytest.mark.parametrize("name", ["regular", "backorder"])
def test_bilinear_kernel_matches_search_reference(name):
    grid = _kernel_grids()[name]
    # the arithmetic cell index gives the cells of a binary search
    assert grid._steps[0] > 0 and grid._steps[1] > 0
    X, Y = grid.mesh()
    rng = np.random.default_rng(5)
    table = ValueTable(1, grid, 900.0 * np.sqrt(X - X.min() + 1.0) + 35.0 * Y
                       - 0.1 * Y ** 2 + 2.0 * X * Y + rng.normal(0.0, 40.0, grid.shape))
    gx, gy = (np.gradient(table.values, grid.x_nodes, axis=0),
              np.gradient(table.values, grid.y_nodes, axis=1))
    for xq, yq in _kernel_queries(grid.x_nodes, grid.y_nodes):
        got = interp2(table.values, grid, xq, yq)
        want = search_interp2(table.values, grid, xq, yq)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(table.values))
        dx, dy = partials(table, xq, yq)
        for field, d in ((gx, dx), (gy, dy)):
            ref = search_interp2(field, grid, xq, yq)
            assert np.shape(d) == np.shape(ref)
            assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(field))


@pytest.mark.parametrize("nodes", [np.linspace(-3.0, 17.0, 41), np.arange(-2.5, 7.0, 0.3)])
def test_interp1_matches_search_reference(nodes):
    values = np.sin(nodes) * 50.0 + nodes ** 2
    table = WorthValueTable(1, nodes, values, nodes)
    lo, hi = nodes[0], nodes[-1]
    queries = [nodes, float(hi), float(lo), lo - np.array([0.1, 2.0, 5.0]),
               hi + np.array([0.1, 2.0, 5.0]),
               np.random.default_rng(2).uniform(lo - 3.0, hi + 3.0, (4, 6))]
    for q in queries:
        got, want = table(0.0, q), search_interp1(nodes, values, q)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(values))


def test_partials_linear_field():
    g = Grid.regular(10, -5, 5, 11, 11)
    X, Y = g.mesh()
    table = ValueTable(1, g, 2000.0 * X + 17.0 * Y)
    dx, dy = partials(table, np.array([2.3, 7.9]), np.array([-1.2, 4.4]))
    assert dx == pytest.approx([2000.0, 2000.0])
    assert dy == pytest.approx([17.0, 17.0])


def closed_form_table(grid, n):
    """Period n's table when it is the last: the single-period optimum under
    U(0,20) on the grid nodes, from the closed form."""
    X, Y = grid.mesh()
    return ValueTable(n, grid, value(X, Y, PARAMS, SALVAGE, U20))


def test_partials_terminal_table_deposit_slope(desk_grid):
    vt = closed_form_table(desk_grid, 1)
    # interior point with x above the deposit band: dV/dy = c (1+i) = 1010
    _, dy = partials(vt, 20.0, 30.0)
    assert float(dy) == pytest.approx(1010.0, rel=1e-9)


def test_partials_concave_table_nonincreasing():
    g = Grid.regular(10, 0, 10, 21, 5)
    X, Y = g.mesh()
    table = ValueTable(1, g, -((X - 4.0) ** 2) - 0.3 * (Y - 2.0) ** 2)
    xs = np.linspace(0.5, 9.5, 40)
    dx, _ = partials(table, xs, np.full_like(xs, 3.0))
    assert np.all(np.diff(dx) <= 1e-9)


def test_transition_examples():
    hz = make_horizon("u0_20", 3)
    # stationary normalized economics: p' = 2, h' = 0.5, c' = 1; from the
    # state (4, 6), net worth 10
    assert _next_state(10.0, 10.0, 4.0, 1, hz) == pytest.approx((6.0, 5.0))
    assert _next_state(12.0, 10.0, 15.0, 1, hz) == pytest.approx((0.0, 21.7))


def test_transition_hold_and_deposit():
    # z = x = 5 from (5, 7), no demand, h = 0, i = 0: stock unchanged, cash
    # re-deposited flat
    params = cs.PeriodParams(2000, 1000, 0.0, 0.0, 0.15)
    hz = cs.HorizonSpec.stationary(3, params, U20, SALVAGE)
    assert _next_state(5.0, 12.0, 0.0, 1, hz) == pytest.approx((5.0, 7.0))


def masked_transition(z, xi, d, n, hz):
    """The lost-sales transition with its bank rate chosen by the mask
    z <= xi, written out: the form the min of the two rates must equal."""
    params = hz.period(n)
    if n < hz.n_periods:
        pp, hp, cp = cs.normalized_params(hz, n)
    else:
        pp, hp, cp = params.price, -hz.salvage, params.cost
    leftover = np.maximum(z - d, 0.0)
    dep, loan = 1.0 + params.deposit_rate, 1.0 + params.loan_rate
    bank = cp * (xi - z) * np.where(z <= xi, dep, loan)
    return leftover, pp * z - (pp + hp) * leftover + bank


@pytest.mark.parametrize("n", [1, 3])
def test_transition_equals_the_masked_bank_term(n):
    # bit for bit, on both sides of the kink z = xi and at it, before the
    # last period (normalized units) and in it (currency), for the Monte
    # Carlo's flat arrays, the DP's (points, nodes) batches and scalars
    hz = cs.HorizonSpec([cs.PeriodParams(2000, 1000, 500, 0.01, 0.15),
                         cs.PeriodParams(2100, 1050, 400, 0.02, 0.2),
                         cs.PeriodParams(2000, 1000, 500, 0.01, 0.15)], [U20] * 3, SALVAGE)
    rng = np.random.default_rng(23)
    z = rng.uniform(0.0, 40.0, 50_000)
    xi = z + rng.choice([-1.0, 0.0, 1.0], len(z)) * rng.uniform(0.0, 30.0, len(z))
    d = rng.uniform(0.0, 20.0, len(z))
    assert np.any(z == xi) and np.any(z < xi) and np.any(z > xi)
    for args in ((z, xi, d), (z[:500, None], xi[:500, None], rng.uniform(0.0, 20.0, (500, 9)))):
        for got, want in zip(_next_state(*args, n, hz), masked_transition(*args, n, hz)):
            assert got.shape == want.shape and np.array_equal(got, want)
    for args in ((12.0, 10.0, 4.0), (10.0, 12.0, 15.0), (10.0, 10.0, 3.0)):
        got = _next_state(*args, n, hz)
        assert all(np.ndim(v) == 0 for v in got)
        assert got == masked_transition(*args, n, hz)


def period_n_tables(solver, key, grid):
    """(solver's period-N table, the closed form's) on a 2-period horizon;
    the closed form never goes through the solver's code."""
    hz = make_horizon(key, 2)
    demand = hz.demand_in(2)
    X, Y = grid.mesh()
    if solver == "backward_induct":
        got = cs.backward_induct(hz, grid).value(2).values
        return got, value(X, Y, PARAMS, SALVAGE, demand)
    if solver == "loan_limited_dp":
        limit = cs.LoanLimit(5000.0)
        got = cs.loan_limited_dp(hz, limit, grid).value(2).values
        q = capped_order(X, Y, cs.myopic_lower(hz, 2), limit.units(PARAMS.cost))
        return got, G(q, X, Y, PARAMS, SALVAGE, demand)
    if solver == "backorder_dp":
        b = 200.0
        grid = backorder_grid(hz, grid)
        X, Y = grid.mesh()
        got = backorder_dp(hz, cs.BackorderParams(b), grid).value(2).values
        priced = cs.PeriodParams(**{**BASE_ECON, "price": PARAMS.price + b})
        return got, value(X, Y, priced, SALVAGE, demand) - b * demand.mean()
    if solver == "policy_value_tables":
        policy = cs.MyopicPolicy(hz, "upper").order
        got = cs.policy_value_tables(hz, grid, policy)[1].values
        q = policy(2, X.ravel(), Y.ravel()).reshape(X.shape)
        return got, G(q, X, Y, PARAMS, SALVAGE, demand)
    table = selling_back_dp(hz, grid)[1]
    return table.values, value(0.0, table.worth, PARAMS, SALVAGE, demand)


@pytest.mark.parametrize("solver, key", [
    ("backward_induct", "u0_20"), ("backward_induct", "zip18"), ("backward_induct", "iu0_20"),
    ("loan_limited_dp", "u0_20"), ("backorder_dp", "u0_20"), ("policy_value_tables", "u0_20"),
    ("selling_back_dp", "u0_20")])
def test_period_n_table_is_the_closed_form(small_grid, solver, key):
    # period N is a step through the one transition with terminal wealth as
    # its next value; the single-period closed form is the independent check
    got, want = period_n_tables(solver, key, small_grid)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pure_debt_service_in_period_n():
    # no order from (0, -5): the debt accrues at the loan rate, c (1+l) per unit
    params = cs.PeriodParams(2000, 1000, 500, 0.01, 0.15)
    hz = cs.HorizonSpec.stationary(1, params, U20, 0.0)
    grid = Grid.regular(10, -10, 10, 11, 21)
    table = cs.policy_value_tables(hz, grid, lambda n, x, y: np.zeros_like(x))[0]
    ix, iy = 0, int(np.flatnonzero(grid.y_nodes == -5.0)[0])
    assert table.values[ix, iy] == pytest.approx(-5.0 * 1000 * 1.15, rel=1e-12)


def test_stage_value_contract():
    # the stage value of z from net worth xi is the expectation of the next
    # value through the transition, per element; a constant table gives itself
    hz = make_horizon("u0_20", 2)
    g = Grid.regular(40, -60, 120, 41, 51)
    vt = ValueTable(2, g, np.full(g.shape, 123.0))
    assert _expected_next(7.0, 4.0, hz, 1, vt) == pytest.approx([123.0])
    zs = np.array([1.0, 7.0, 30.0])
    assert _expected_next(zs, np.full(3, 4.0), hz, 1, vt) == pytest.approx(np.full(3, 123.0))
    # in period N the next value is terminal wealth: the closed form's G at
    # the order z - x, here from (1, 3)
    assert _expected_next(7.0, 4.0, hz, 2, _terminal_wealth) == pytest.approx(
        [G(6.0, 1.0, 3.0, PARAMS, SALVAGE, U20)], rel=1e-12)


def brute_force_two_period(x, y, z_lattice, d_lattice):
    """Independent oracle: discretize both the decision and the demand."""
    best = -np.inf
    for z in z_lattice[z_lattice >= x]:
        xn = np.maximum(z - d_lattice, 0.0)
        rate = 1.01 if z <= x + y else 1.15
        yn = 2.0 * z - 2.5 * xn + (x + y - z) * rate
        vals = value(xn, yn, PARAMS, SALVAGE, U20)
        best = max(best, float(np.mean(vals)))
    return best


def test_stage_value_against_brute_force():
    hz = make_horizon("u0_20", 2)
    grid = Grid.regular(40, -60, 120, 161, 201)
    vt = closed_form_table(grid, 2)
    z_lattice = np.linspace(0, 30, 601)
    d_lattice = np.linspace(0.005, 19.995, 2000) * 1.0  # midpoint rule on U(0,20)
    for x, y in [(0.0, 0.0), (3.0, 8.0), (10.0, -4.0)]:
        oracle = brute_force_two_period(x, y, z_lattice, d_lattice)
        zs = np.maximum(z_lattice, x)
        got = _expected_next(zs, np.full_like(zs, x + y), hz, 1, vt).max()
        assert got == pytest.approx(oracle, rel=5e-3)


def test_backward_induct_single_period_equals_closed_form(small_grid):
    hz = make_horizon("u0_20", 1)
    sol = cs.backward_induct(hz, small_grid)
    X, Y = small_grid.mesh()
    closed = value(X, Y, PARAMS, SALVAGE, U20)
    assert np.allclose(sol.value(1).values, closed, rtol=5e-3)
    # the transition's expectation of terminal wealth at the closed form's order
    assert np.max(np.abs(sol.value(1).values - closed)) < 1e-9


def test_policy_table_order_quantity(small_grid):
    hz = make_horizon("u0_20", 2)
    sol = cs.backward_induct(hz, small_grid)
    q = sol.policy(1).order_quantity()
    assert np.all(q >= -1e-9)


def test_golden_max_quadratic():
    m = np.array([1.0, 4.0, 9.5])
    lo = np.zeros(3)
    for concave in (True, False):
        z, v = golden_max(lambda z, at: -((z - m[at]) ** 2), lo, 10.0, 1e-6, concave=concave)
        assert z == pytest.approx(m, abs=1e-4)
        assert v == pytest.approx([0.0, 0.0, 0.0], abs=1e-8)


def test_golden_max_tie_prefers_smaller():
    for concave in (True, False):
        z, _ = golden_max(lambda z, at: np.zeros_like(z), np.full(2, 3.0), 8.0, 1e-6,
                          concave=concave)
        assert z == pytest.approx([3.0, 3.0])


def test_golden_max_candidate_beats_section():
    # kinked peak exactly at a candidate point
    peak = 4.0
    for concave in (True, False):
        z, v = golden_max(lambda z, at: -np.abs(z - peak), np.zeros(1), 10.0, 1e-3,
                          candidates=[np.array([peak])], concave=concave)
        assert z[0] == pytest.approx(peak, abs=1e-9)
        assert v[0] == pytest.approx(0.0, abs=1e-12)


def test_golden_max_settles_at_a_candidate_and_narrows_the_rest():
    # peaks at a candidate (element 0), between two candidates (1), at the
    # bracket's lower end (2) and above the largest candidate (3)
    peak = np.array([4.0, 6.3, 0.0, 9.1])
    points = []

    def f(z, at):
        points.append((z.copy(), at.copy()))
        return -np.abs(z - peak[at]) - 0.1 * (z - peak[at]) ** 2

    z, v = golden_max(f, np.zeros(4), 10.0, 1e-4, [4.0, 7.0], concave=True)
    assert z == pytest.approx(peak, abs=1e-4)
    assert v == pytest.approx(np.zeros(4), abs=1e-4)
    seen = np.concatenate([at for _, at in points])
    evaluated = np.bincount(seen, minlength=4)
    # the lower end, two candidates and the probes that move: settled
    # elements stop there, the others section their neighbours' span only
    assert list(evaluated[[0, 2]]) == [5, 4]
    assert np.all(evaluated[[1, 3]] > 20)
    for zs, at in points[4:]:  # after the end, two candidates and one probe call
        assert np.all((zs[at == 1] >= 4.0) & (zs[at == 1] <= 7.0))
        assert np.all((zs[at == 3] >= 7.0) & (zs[at == 3] <= 10.0))
    _, want_v = golden_section(lambda z: f(z, np.arange(4)), np.zeros(4), 10.0, 1e-4,
                               [4.0, 7.0])
    assert np.all(v >= want_v - 1e-9)


def test_refinement_convergence():
    vals = []
    for nx, ny in [(21, 26), (41, 51), (81, 101)]:
        g = Grid.regular(40, -60, 120, nx, ny)
        sol = cs.backward_induct(make_horizon("u0_20", 3), g)
        vals.append(float(sol.value(1)(0.0, 0.0)))
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    assert d2 <= d1 / 3.0


@pytest.mark.parametrize("key", ["u0_20", "zip18"])
def test_deeper_capital_axis_leaves_values_unchanged(small_grid, key):
    # interval propagation of reachable capital from (0, 0), which assumes
    # zero demand several periods running, reaches -109 by period 5 under
    # U(0,20), below this grid's -60. The axis extended to -132 at the same
    # spacing holds that range and solves to the same V1: a gate on that
    # bound would reject a grid whose values are right, so the solver has none
    hz = make_horizon(key, 6)
    deep = Grid.regular(40, -132, 120, 41, 71)
    assert np.diff(deep.y_nodes)[0] == pytest.approx(np.diff(small_grid.y_nodes)[0])
    v_small = cs.backward_induct(hz, small_grid).value(1)
    v_deep = cs.backward_induct(hz, deep).value(1)
    for x in (0.0, 7.0, 14.0):
        assert float(v_deep(x, 0.0)) == pytest.approx(float(v_small(x, 0.0)), rel=1e-12)


def per_node_oracle(hz, grid, z_tol=1e-4, z_cap=None):
    """Value tables of the oracle's golden-section search at every node over [x, hi],
    with the kink z = x + y and the myopic levels as candidates. The last
    period is the closed form, its order cut to z_cap(N, x, y) if given."""
    X, Y = grid.mesh()
    x, y = X.ravel(), Y.ravel()
    n_last = hz.n_periods
    params, demand = hz.period(n_last), hz.demand_in(n_last)
    z = X + cs.optimal_order(X, Y, cs.myopic_lower(hz, n_last))
    if z_cap is not None:
        z = np.minimum(z, z_cap(n_last, X, Y))
    values = [None] * n_last
    values[-1] = ValueTable(n_last, grid,
                            G(z - X, X, Y, params, hz.salvage, demand))
    for n in range(hz.n_periods - 1, 0, -1):
        z_max = float(grid.x_nodes[-1] + hz.demand_in(n).quantile(0.999))
        hi = np.minimum(z_cap(n, x, y), z_max) if z_cap is not None else z_max
        lower, upper = cs.myopic_lower(hz, n), cs.myopic_upper(hz, n)
        cands = [x + y, lower.borrow, lower.deposit, upper.borrow, upper.deposit]
        _, v = golden_section(lambda z, _n=n: _expected_next(z, x + y, hz, _n, values[_n]),
                              x, hi, z_tol, candidates=cands)
        values[n - 1] = ValueTable(n, grid, v.reshape(grid.shape))
    return values


def loan_cap(n, x, y):
    return x + np.maximum(y, 0.0) + 3.0


@pytest.mark.parametrize("key, z_cap", [("u0_20", None), ("zip18", None),
                                        ("iu0_20", None), ("u0_20", loan_cap)])
def test_worth_search_matches_per_node_search(small_grid, key, z_cap):
    hz = make_horizon(key, 4)
    sol = cs.backward_induct(hz, small_grid, z_cap=z_cap)
    for got, want in zip(sol.values, per_node_oracle(hz, small_grid, z_cap=z_cap)):
        rel = (got.values - want.values) / np.abs(want.values)
        assert np.abs(rel).max() < 1e-4
        if key == "u0_20" and z_cap is None:
            # continuous demand keeps the stage value concave: never worse
            assert rel.min() > -1e-8


def full_segment_oracle(hz, grid):
    """backward_induct's solution with every stage expectation taken
    over both 8-point Gauss-Legendre segments of demand, [lo, z] and [z, hi]:
    16 lookups per (z, worth) where the solver's lost-sales path takes 9.
    Period N is the closed form."""
    X, Y = grid.mesh()

    def step(n, next_table):
        if n == hz.n_periods:
            bands = cs.myopic_lower(hz, n)
            closed = value(X, Y, hz.period(n), hz.salvage, hz.demand_in(n))
            return X + cs.optimal_order(X, Y, bands), closed

        def f(z, xi, _k):
            nodes, w = hz.demand_in(n).expectation_nodes(z)
            x_next, y_next = _next_state(z[:, None], xi[:, None], nodes, n, hz)
            return np.sum(next_table(x_next, y_next) * w, axis=1)

        z_max = float(grid.x_nodes[-1] + hz.demand_in(n).quantile(0.999))
        z, v, _ = worth_search(f, grid, z_max, Z_TOL, [(-np.inf, np.inf)],
                               _myopic_targets(hz, n), concave=_concave_stage(hz, n))
        return z, v

    return _grid_solution(hz, grid, step)


def test_lost_sales_solve_matches_full_segment_oracle(small_grid):
    hz = make_horizon("u0_20", 3)
    sol = cs.backward_induct(hz, small_grid)
    oracle = full_segment_oracle(hz, small_grid)
    for got, want in zip(sol.values, oracle.values, strict=True):
        assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()
    # the two expectations agree to 1e-12, not bit for bit, so a search may
    # settle elsewhere within its own resolution
    for got, want in zip(sol.policies, oracle.policies, strict=True):
        assert np.abs(got.order_up_to - want.order_up_to).max() <= Z_TOL


def test_backorders_keep_the_full_segment_expectation(small_grid, monkeypatch):
    # backlogged stock z - D reads the demand above z, so backorder_dp must
    # not take the one-node tail: its tables match a run whose lost-sales
    # nodes are the full 16
    hz = make_horizon("u0_20", 3)
    grid = backorder_grid(hz, small_grid)
    b = cs.BackorderParams(200.0)
    got = backorder_dp(hz, b, grid)
    monkeypatch.setattr(cs.Uniform, "sales_nodes", cs.Uniform.expectation_nodes)
    want = backorder_dp(hz, b, grid)
    for g, w in zip(got.values, want.values, strict=True):
        assert np.abs(g.values - w.values).max() <= 1e-12 * np.abs(w.values).max()


@pytest.mark.parametrize("key", ["zip18", "iu0_20"])
def test_atom_sales_nodes_match_every_atom(small_grid, monkeypatch, key):
    # under lost sales the atoms above the largest z are one node: the tables
    # match a run that looks every atom up, and the thresholds are equal
    hz = make_horizon(key, 3)
    sol = cs.backward_induct(hz, small_grid)
    levels, _ = solve_thresholds(sol)
    monkeypatch.setattr(_Atoms, "sales_nodes", _Atoms.expectation_nodes)
    want = cs.backward_induct(hz, small_grid)
    want_levels, _ = solve_thresholds(want)
    for got, w in zip(sol.values, want.values, strict=True):
        assert np.abs(got.values - w.values).max() <= 1e-12 * np.abs(w.values).max()
    for got, w in zip(levels.periods, want_levels.periods, strict=True):
        assert np.array_equal(got.borrow, w.borrow)
        assert np.array_equal(got.deposit, w.deposit)


#: periods 2 and 3 meet the liquidation condition, which period 1 breaks:
#: c_2 = 1100 > c_1 (1 + i_1) + h_1 = 1010, so period 1 alone has no
#: liquidation-credit levels among its search candidates. Under ZIP demand
#: those candidates move period 2's values (by 5e-5 on the small grid) where
#: they are left out
COST_RISE = cs.HorizonSpec(
    [cs.PeriodParams(2000, 1000, 0.0, 0.01, 0.15), cs.PeriodParams(2200, 1100, 0.0, 0.01, 0.15),
     cs.PeriodParams(2000, 1000, 500, 0.01, 0.15)], [cs.ZeroInflatedPoisson(0.18, 10)] * 3,
    SALVAGE)


@pytest.mark.parametrize("key", ["u0_20", "zip18", "cost_rise"])
def test_tail_is_the_shorter_solve(small_grid, key):
    # a stationary 6-period problem is periods 7..12 of the 12-period one,
    # and COST_RISE's periods 2..3 are a horizon whose every period meets
    # the liquidation condition
    long, k = (COST_RISE, 1) if key == "cost_rise" else (make_horizon(key, 12), 6)
    short = cs.HorizonSpec(long.periods[k:], long.demands[k:], long.salvage)
    tail = cs.backward_induct(long, small_grid).tail(k)
    direct = cs.backward_induct(short, small_grid)
    assert tail.horizon == short
    periods = list(range(1, short.n_periods + 1))
    assert [t.period for t in tail.values] == [t.period for t in tail.policies] == periods
    for got, want in zip(tail.values, direct.values, strict=True):
        assert np.array_equal(got.values, want.values)
    for got, want in zip(tail.policies, direct.policies, strict=True):
        assert np.array_equal(got.order_up_to, want.order_up_to)
    assert np.array_equal(tail.worth_argmax, direct.worth_argmax)

    # the upper myopic policy needs the condition in every period
    which = "lower" if key == "cost_rise" else "upper"
    sweep_long = cs.policy_value_tables(long, small_grid, cs.MyopicPolicy(long, which).order)
    sweep_short = cs.policy_value_tables(short, small_grid, cs.MyopicPolicy(short, which).order)
    for got, want in zip(sweep_long[k:], sweep_short, strict=True):
        assert np.array_equal(got.values, want.values)


def test_tail_offsets(small_grid):
    sol = cs.backward_induct(make_horizon("u0_20", 3), small_grid)
    whole = sol.tail(0)
    assert whole.horizon == sol.horizon
    assert all(a.values is b.values for a, b in zip(whole.values, sol.values))
    assert sol.tail(2).value(1).values is sol.value(3).values
    for k in (-1, 3):
        with pytest.raises(ValueError, match="tail offset"):
            sol.tail(k)


def clipped_worth_search(f, grid, hi, tol, branches, candidates=()):
    """Reference: worth_search with the oracle's full section per worth,
    each branch's node bounds built as max(x, xi + a) and min(hi, xi + b)
    whatever its ends, and every branch's empty ranges masked."""
    X, Y = grid.mesh()
    x_flat = X.ravel()
    xi_flat = x_flat + Y.ravel()
    hi = np.maximum(np.broadcast_to(np.asarray(hi, dtype=float), x_flat.shape), x_flat)
    worth = worth_grid(grid)
    at = np.searchsorted(worth, np.round(xi_flat, 9))
    z_parts, v_parts, z_worth = [], [], []
    for k, (a, b) in enumerate(branches):
        ends = [worth + b] if np.isfinite(b) else []
        z_w, v_w = golden_section(lambda z, _k=k: f(z, worth, _k),
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
    if len(z_parts) == 1:
        return z_parts[0], v_parts[0], z_worth
    return (*_smallest_argmax(np.stack(z_parts), np.stack(v_parts)), z_worth)


@pytest.mark.parametrize("branches", [[(-np.inf, np.inf)],
                                      [(-np.inf, -3.0), (-3.0, 4.0), (4.0, np.inf)]],
                         ids=["infinite", "finite_tiers"])
def test_worth_search_node_bounds_bit_identical(small_grid, branches):
    # an infinite end takes the node's own bound x or hi, uncopied, and
    # masks no range; searching every bracket whole, every result must match
    # the clipped bounds and the oracle's section bit for bit. Settled at
    # candidates, no value falls below the oracle's beyond the tie tolerance
    X, Y = small_grid.mesh()

    def f(z, xi, k):
        return -(z - 0.4 * xi - 6.0 + 2.0 * k) ** 2 + 0.3 * k * z

    for hi in (35.0, (X + np.maximum(Y, 0.0) + 3.0).ravel()):
        got = worth_search(f, small_grid, hi, Z_TOL, branches, [12.5], concave=False)
        want = clipped_worth_search(f, small_grid, hi, Z_TOL, branches, [12.5])
        for g, w in zip(got[:2], want[:2]):
            assert g.tobytes() == w.tobytes()
        assert [z.tobytes() for z in got[2]] == [z.tobytes() for z in want[2]]
        _, v, _ = worth_search(f, small_grid, hi, Z_TOL, branches, [12.5], concave=True)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(want[1]))
        assert np.all(v >= want[1] - 1e-9 * (1.0 + np.abs(want[1])))


def test_closed_brackets_are_evaluated_once(small_grid):
    # tiered branches close many brackets (hi <= lo), where every point of a
    # golden-section search is the lower end: golden_max evaluates a closed
    # worth once, at that end. Searching every open bracket whole, it gives
    # the oracle's numbers over every bracket bit for bit, under U(0, 20)
    hz = make_horizon("u0_20", 2)
    branches = [(-np.inf, -3.0), (-3.0, 4.0), (4.0, np.inf)]
    calls = []

    def f(z, xi, k):
        calls.append(xi.copy())
        rate = 1.0 + 0.05 * k
        return _expected_next(z, xi, hz, 2, _terminal_wealth,
                              bank=lambda amount: rate * amount)

    got = worth_search(f, small_grid, 35.0, Z_TOL, branches, [12.5], concave=False)
    want = clipped_worth_search(f, small_grid, 35.0, Z_TOL, branches, [12.5])
    for g, w in zip(got[:2], want[:2]):
        assert g.tobytes() == w.tobytes()
    assert [z.tobytes() for z in got[2]] == [z.tobytes() for z in want[2]]
    worth = worth_grid(small_grid)
    for k, (a, b) in enumerate(branches):
        lo = np.maximum(worth + a, small_grid.x_nodes[0])
        hi = np.minimum(worth + b, 35.0)
        closed = hi <= lo
        assert 0 < np.count_nonzero(closed) < len(worth)
        candidates = [worth, *([worth + b] if np.isfinite(b) else []), 12.5]
        z_ref, v_ref = golden_section(lambda z, _k=k: f(z, worth, _k), lo, hi, Z_TOL,
                                      candidates)
        for concave in (False, True):
            calls.clear()
            z_w, v_w = golden_max(lambda z, at, _k=k: f(z, worth[at], _k), lo, hi, Z_TOL,
                                  candidates, concave=concave)
            seen = np.concatenate(calls)
            evaluated = np.array([np.count_nonzero(seen == w) for w in worth])
            assert np.all(evaluated[closed] == 1)
            assert np.all(evaluated[~closed] > (1 if concave else 20))
            assert np.array_equal(z_w[closed], lo[closed])
            if concave:
                assert np.all(v_w >= v_ref - 1e-9 * (1.0 + np.abs(v_ref)))
            else:
                assert z_w.tobytes() == z_ref.tobytes() and v_w.tobytes() == v_ref.tobytes()
    # with every bracket open, the whole section evaluates every worth at once
    calls.clear()
    golden_max(lambda z, at: f(z, worth[at], 0), worth - 1.0, worth + 1.0, Z_TOL, [worth],
               concave=False)
    assert calls and all(len(xi) == len(worth) for xi in calls)


def searched_by(monkeypatch, search, run):
    """run() with `search` in golden_max's place, in dp and in bounds, and
    the count of points it passed to its objectives."""
    points = []

    def counted_search(f, *args, **kwargs):
        def counted(z, at):
            points.append(np.size(z))
            return f(z, at)
        return search(counted, *args, **kwargs)

    monkeypatch.setattr(dp, "golden_max", counted_search)
    monkeypatch.setattr(bounds, "golden_max", counted_search)
    return run(), sum(points)


@pytest.mark.parametrize("key, n_periods", [("zip18", 3), ("iu0_20", 4)])
def test_atom_demand_keeps_the_full_section(small_grid, monkeypatch, key, n_periods):
    # atom demand's stage value is not concave, so its periods settle no
    # worth: the solve and the relaxation are the oracle's bit for bit, and
    # pass their objectives exactly the oracle's points
    hz = make_horizon(key, n_periods)

    def run():
        return cs.backward_induct(hz, small_grid), selling_back_dp(hz, small_grid)

    (got, got_sb), got_points = searched_by(monkeypatch, golden_max, run)
    (want, want_sb), want_points = searched_by(monkeypatch, full_search, run)
    for g, w in zip(got.values, want.values, strict=True):
        assert g.values.tobytes() == w.values.tobytes()
    for g, w in zip(got.policies, want.policies, strict=True):
        assert g.order_up_to.tobytes() == w.order_up_to.tobytes()
    assert got.worth_argmax.tobytes() == want.worth_argmax.tobytes()
    for g, w in zip(got_sb, want_sb, strict=True):
        assert g.values.tobytes() == w.values.tobytes()
        assert g.target.tobytes() == w.target.tobytes()
    assert got_points == want_points


def test_continuous_demand_search_evaluates_half_the_oracle_points(small_grid, monkeypatch):
    # under U(0, 20) most worths settle at a candidate and the rest section
    # a neighbour's span: the objective sees at most half the oracle's
    # points, for values within 1e-9 of the table's maximum
    hz = make_horizon("u0_20", 4)

    def run():
        return cs.backward_induct(hz, small_grid)

    got, got_points = searched_by(monkeypatch, golden_max, run)
    want, want_points = searched_by(monkeypatch, full_search, run)
    assert 0 < got_points <= want_points / 2
    for g, w in zip(got.values, want.values, strict=True):
        assert np.abs(g.values - w.values).max() <= 1e-9 * np.abs(w.values).max()
