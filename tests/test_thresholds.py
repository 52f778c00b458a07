import numpy as np
import pytest

import cashstock as cs
from cashstock.dp import Grid, _lerp, _locate
from cashstock.single_period import myopic_lower, myopic_upper
from cashstock.thresholds import (
    _check_bracket,
    _stage_slope,
    BracketError,
    PeriodThresholds,
    bisection_iterations,
    solve_thresholds,
    stage_slope_borrowing,
    stage_slope_deposit,
    worth_grid,
)

from conftest import SALVAGE, make_horizon


def test_myopic_lower_reference_values():
    hz = make_horizon("u0_20", 6)
    pair = myopic_lower(hz, 2)
    # s = -h: a = 850/2500 = 0.34, b = 990/2500 = 0.396 on U(0, 20)
    params = hz.period(2)
    assert cs.fractiles(params, -params.holding).borrow == pytest.approx(0.34, abs=1e-12)
    assert pair.borrow == pytest.approx(6.8, abs=1e-9)
    assert pair.deposit == pytest.approx(7.92, abs=1e-9)
    # final period: plain salvage, the closed-form pair
    last = myopic_lower(hz, 6)
    assert last.borrow == pytest.approx(12.142857142857142)
    assert last.deposit == pytest.approx(14.142857142857144)


def test_myopic_lower_no_holding_collapse():
    params = cs.PeriodParams(2000, 1000, 0.0, 0.01, 0.15)
    hz = cs.HorizonSpec.stationary(3, params, cs.Uniform(0, 20), SALVAGE)
    pair = myopic_lower(hz, 1)
    plain = cs.order_bands(cs.fractiles(params, 0.0), cs.Uniform(0, 20))
    assert (pair.borrow, pair.deposit) == pytest.approx((plain.borrow, plain.deposit))


def test_myopic_upper_reference_values():
    hz = make_horizon("u0_20", 6)
    pair = myopic_upper(hz, 3)
    # s = c_next - h = 500: a = 850/1500, b = 990/1500 = 0.66
    salvage = hz.period(4).cost - hz.period(3).holding
    assert cs.fractiles(hz.period(3), salvage).borrow == pytest.approx(850 / 1500, abs=1e-12)
    assert pair.borrow == pytest.approx(11.333333333333334, abs=1e-9)
    assert pair.deposit == pytest.approx(13.2, abs=1e-9)
    last = myopic_upper(hz, 6)
    assert (last.borrow, last.deposit) == pytest.approx((12.142857142857142, 14.142857142857144))


def test_myopic_upper_requires_no_liquidation_speculation():
    periods = (
        cs.PeriodParams(4000, 1000, 0.0, 0.01, 0.15),   # c(1+l)+h = 1150 < 2000
        cs.PeriodParams(4000, 2000, 0.0, 0.01, 0.15),
    )
    hz = cs.HorizonSpec(periods, (cs.Uniform(0, 20),) * 2, SALVAGE)
    with pytest.raises(ValueError):
        myopic_upper(hz, 1)


def test_myopic_upper_deposit_ratio_at_one():
    # i = 0, h = 0, stationary c: deposit ratio hits exactly 1
    params = cs.PeriodParams(2000, 1000, 0.0, 0.0, 1e-4)
    hz = cs.HorizonSpec.stationary(2, params, cs.Uniform(0, 20), SALVAGE)
    pair = myopic_upper(hz, 1)
    assert cs.fractiles(params, params.cost - params.holding).deposit == 1.0
    assert pair.deposit == pytest.approx(20.0)  # quantile at 1 = support max


def test_bisection_iterations():
    # baseline-economics deposit bracket: width 13.2 - 7.92 = 5.28
    assert bisection_iterations(5.28, 1e-3) == 13
    assert bisection_iterations(1.8667, 1e-3) == 11
    assert bisection_iterations(1e-3, 1e-3) == 1  # immediate tolerance


def test_check_bracket_raises_on_bad_signs():
    worth = np.array([0.0, 1.0])
    with pytest.raises(BracketError):
        _check_bracket("borrow", 1, worth, np.array([-5.0, 4.0]), np.array([-6.0, -4.0]))
    # tiny wrong-signed noise is tolerated
    _check_bracket("borrow", 1, worth, np.array([-1e-9, 4.0]), np.array([-6.0, -4.0]))


@pytest.fixture(scope="module")
def small_solution():
    hz = make_horizon("u0_20", 4)
    grid = Grid.regular(40, -60, 120, 81, 101)
    sol = cs.backward_induct(hz, grid)
    return hz, grid, sol


def test_slope_bracket_signs(small_solution):
    hz, grid, sol = small_solution
    worth = np.linspace(-20, 60, 30)
    lower, upper = myopic_lower(hz, 3), myopic_upper(hz, 3)
    nxt = sol.value(4)
    phi_lo = stage_slope_borrowing(np.full(30, lower.borrow), worth, 3, hz, nxt)
    phi_hi = stage_slope_borrowing(np.full(30, upper.borrow), worth, 3, hz, nxt)
    swing = np.abs(phi_lo - phi_hi)
    assert np.all(phi_lo >= -0.05 * swing)
    assert np.all(phi_hi <= 0.05 * swing)
    psi_lo = stage_slope_deposit(np.full(30, lower.deposit), worth, 3, hz, nxt)
    psi_hi = stage_slope_deposit(np.full(30, upper.deposit), worth, 3, hz, nxt)
    swing = np.abs(psi_lo - psi_hi)
    assert np.all(psi_lo >= -0.05 * swing)
    assert np.all(psi_hi <= 0.05 * swing)


def test_deposit_slope_exceeds_borrowing_slope_at_kink(small_solution):
    # at z = net worth the two transitions coincide, so
    # psi - phi = c'(l - i) E[dV/dy] > 0 exactly
    hz, grid, sol = small_solution
    worth = np.array([5.0, 10.0, 25.0])
    nxt = sol.value(4)
    phi = stage_slope_borrowing(worth.copy(), worth, 3, hz, nxt)
    psi = stage_slope_deposit(worth.copy(), worth, 3, hz, nxt)
    from cashstock.dp import partials
    from cashstock.model import normalized_params
    pp, hp, cp = normalized_params(hz, 3)
    nodes, w = hz.demand_in(3).expectation_nodes(worth)
    leftover = np.maximum(worth[:, None] - nodes, 0.0)
    y_next = pp * worth[:, None] - (pp + hp) * leftover  # bank term is zero at z = worth
    _, vy = partials(nxt, leftover, y_next)
    expected = cp * (0.15 - 0.01) * np.sum(w * vy, axis=1)
    assert psi - phi == pytest.approx(expected, rel=1e-9)
    assert np.all(psi > phi)


def test_right_slope_equals_left_slope_without_atoms(small_solution):
    # continuous demand has no atom at z, so both one-sided slopes weigh the
    # same sales nodes, at an interior z and at the support maximum alike
    hz, grid, sol = small_solution
    worth = np.linspace(-20, 60, 9)
    for z in (7.5, 20.0):
        for rate in (1.15, 1.01):
            cand = np.full(len(worth), z)
            left = _stage_slope(cand, worth, 3, hz, sol.value(4), rate)
            right = _stage_slope(cand, worth, 3, hz, sol.value(4), rate, right=True)
            assert np.array_equal(right, left)


def test_solve_thresholds_structure(small_solution):
    hz, grid, sol = small_solution
    table = solve_thresholds(sol)
    for row in table.periods:
        assert np.all(row.borrow <= row.deposit + 1e-3)
        n = row.n
        if n < hz.n_periods:
            assert np.all(row.borrow >= row.lower.borrow - 1e-9)
            assert np.all(row.borrow <= row.upper.borrow + 1e-9)
            assert np.all(row.deposit >= row.lower.deposit - 1e-9)
            assert np.all(row.deposit <= row.upper.deposit + 1e-9)
            assert row.borrow_iterations == bisection_iterations(
                row.upper.borrow - row.lower.borrow, 1e-3)
        else:
            assert np.all(row.borrow == row.borrow[0])  # worth-independent
            assert row.borrow[0] == pytest.approx(12.142857142857142)
            assert row.deposit[0] == pytest.approx(14.142857142857144)
            assert row.borrow_iterations == 0


@pytest.mark.parametrize("key", ["u0_20", "iu0_20", "zip18"])
def test_levels_read_off_the_dp_reproduce_its_policy(small_grid, key):
    # where the search's per-worth maximizer lies inside its bracket, the
    # two-threshold rule on the table gives the DP's own order at every node;
    # every level lies inside its bracket
    hz = make_horizon(key, 3)
    sol = cs.backward_induct(hz, small_grid)
    table = cs.ThresholdTable.from_solution(sol)
    X, Y = small_grid.mesh()
    x, y = X.ravel(), Y.ravel()
    worth = worth_grid(small_grid)
    at = np.searchsorted(worth, np.round(x + y, 9))
    for row in table.periods:
        n, lo, up = row.n, row.lower, row.upper
        assert np.all((lo.borrow <= row.borrow) & (row.borrow <= up.borrow))
        assert np.all((lo.deposit <= row.deposit) & (row.deposit <= up.deposit))
        assert np.all(row.borrow <= row.deposit)
        if n < hz.n_periods:
            z_w, w = sol.worth_argmax[n - 1][at], worth[at]
            inside = (((z_w > w) & (lo.borrow <= z_w) & (z_w <= up.borrow))
                      | ((z_w < w) & (lo.deposit <= z_w) & (z_w <= up.deposit))
                      | ((z_w == w) & (lo.borrow <= w) & (w <= up.deposit)))
            # on U(0,20) the deposit level sits at its upper bracket end, and
            # the grid puts 8 and 19 worths' maximizers just beyond it (2% of
            # the nodes); the rest must follow the rule
            assert inside.mean() > 0.95
        else:
            inside = np.ones_like(x, dtype=bool)
        z_rule = x + cs.policy_from_thresholds(table, x, y, n)
        z_dp = sol.policy(n).order_up_to.ravel()
        assert np.abs(z_rule - z_dp)[inside].max() <= 1e-9, n


def test_levels_read_off_a_tail_are_the_tail_of_the_levels(small_solution):
    hz, grid, sol = small_solution
    whole = cs.ThresholdTable.from_solution(sol)
    tail = cs.ThresholdTable.from_solution(sol.tail(1))
    assert tail.horizon == make_horizon("u0_20", 3)
    for got, want in zip(tail.periods, whole.periods[1:], strict=True):
        assert got.n == want.n - 1
        for field in ("borrow", "deposit"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.borrow_clipped, got.deposit_clipped) == (want.borrow_clipped,
                                                             want.deposit_clipped)


@pytest.mark.parametrize("solver", [
    lambda hz, g: cs.piecewise_dp(hz, cs.PiecewiseRateSchedule((0.15, 0.30), (5000.0,), (0.01,)), g),
    lambda hz, g: cs.loan_limited_dp(hz, cs.LoanLimit(3000.0), g),
    lambda hz, g: cs.backorder_dp(hz, cs.BackorderParams(50.0), cs.backorder_grid(hz, g)),
], ids=["piecewise", "loan_limited", "backorder"])
def test_levels_need_a_rule_of_net_worth_alone(small_grid, solver):
    # tiered rates search several branches; a loan cap and the backorder
    # horizon's priced search move the levels off the lost-sales brackets
    sol = solver(make_horizon("u0_20", 2), small_grid)
    assert sol.worth_argmax is None
    with pytest.raises(ValueError, match="net worth alone"):
        cs.ThresholdTable.from_solution(sol)


def test_nearly_equal_rates_collapse_roots():
    params = cs.PeriodParams(2000, 1000, 500, 0.0999999, 0.1)
    hz = cs.HorizonSpec.stationary(2, params, cs.Uniform(0, 20), SALVAGE)
    grid = Grid.regular(40, -60, 120, 81, 101)
    table = solve_thresholds(cs.backward_induct(hz, grid))
    row = table.period(1)
    assert np.all(np.abs(row.borrow - row.deposit) < 1e-2)


def test_policy_from_thresholds_cases(small_solution):
    table = solve_thresholds(small_solution[2])
    row = table.period(2)
    borrow, deposit = row.bands_at(100.0)
    # worth far above the deposit level: order up to it
    assert cs.policy_from_thresholds(table, 4.0, 96.0, 2) == pytest.approx(
        float(deposit) - 4.0, abs=1e-9)
    # inside the band: spend the cash
    mid = 0.5 * (float(row.bands_at(12.0)[0]) + float(row.bands_at(12.0)[1]))
    assert cs.policy_from_thresholds(table, 3.0, mid - 3.0, 2) == pytest.approx(mid - 3.0)
    # deep debt: order up to the borrow level entirely on credit
    borrow0, _ = row.bands_at(-10.0)
    assert cs.policy_from_thresholds(table, 0.0, -10.0, 2) == pytest.approx(float(borrow0))


def _rows_for_bands_at(small_solution):
    row = solve_thresholds(small_solution[2]).period(1)  # searched worth axis
    rng = np.random.default_rng(4)
    worth = np.linspace(-60.0, 160.0, 221)  # evenly spaced: indexed worth axis
    even = PeriodThresholds(1, worth, rng.uniform(0, 20, 221), rng.uniform(0, 20, 221),
                            row.lower, row.upper, 0, 0)
    return [row, even]


def test_bands_at_matches_np_interp(small_solution):
    # within 4 ulps of the level at nodes, midpoints and random points, and
    # held at the end levels (not extrapolated) beyond the worth range; equal
    # to the searched `_locate` lookup, which the table lookup replaces
    rng = np.random.default_rng(8)
    for row in _rows_for_bands_at(small_solution):
        w = row.worth
        cell = rng.integers(0, len(w) - 1, 20_000)
        queries = np.concatenate([
            w, 0.5 * (w[:-1] + w[1:]), w[cell] + rng.random(20_000) * (w[cell + 1] - w[cell]),
            np.nextafter(w, -np.inf), np.nextafter(w, np.inf), rng.uniform(-1.0, 1.0, 2_000),
            w[0] - np.array([1e-9, 1.0, 1e3]), w[-1] + np.array([1e-9, 1.0, 1e3])])
        idx, t = _locate(w, 0.0, queries)
        t = np.clip(t, 0.0, 1.0)
        for got, level in zip(row.bands_at(queries), (row.borrow, row.deposit)):
            want = np.interp(queries, w, level)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
            assert np.array_equal(got, _lerp(level, idx, t))
        below, above = row.bands_at(np.array([w[0] - 1e3, w[-1] + 1e3]))[0]
        assert below == row.borrow[0] and above == row.borrow[-1]
        for q in (w[0] - 1.0, float(w[len(w) // 2]), 0.3, w[-1] + 1.0):
            b, d = row.bands_at(q)
            assert np.ndim(b) == 0 and np.ndim(d) == 0
            assert abs(b - np.interp(q, w, row.borrow)) <= 4 * np.spacing(abs(b))
            assert abs(d - np.interp(q, w, row.deposit)) <= 4 * np.spacing(abs(d))


def test_worth_grid_deduplicates():
    g = Grid(np.array([0.0, 1.0, 2.0]), np.array([-1.0, 0.0, 1.0]))
    w = worth_grid(g)
    assert np.array_equal(w, [-1.0, 0.0, 1.0, 2.0, 3.0])


def test_expectation_product_inequality():
    # comonotone functions of one random variable have nonnegative covariance;
    # countermonotone functions flip the sign
    rng = np.random.default_rng(9)
    for _ in range(100):
        k = rng.integers(2, 8)
        atoms = np.sort(rng.uniform(0, 20, k))
        probs = rng.dirichlet(np.ones(k))
        f = np.sort(rng.normal(size=k))          # increasing in the atom index
        g_inc = np.sort(rng.uniform(-3, 5, k))
        g_dec = g_inc[::-1]
        e = lambda v: float(v @ probs)
        assert e(f * g_inc) >= e(f) * e(g_inc) - 1e-12
        assert e(f * g_dec) <= e(f) * e(g_dec) + 1e-12
