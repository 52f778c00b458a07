import numpy as np
import pytest

import cashstock as cs
from cashstock.bounds import (
    compare_bounds,
    default_worth_grid,
    selling_back_dp,
)
from cashstock.dp import Grid

from conftest import BASE_ECON, SALVAGE, make_horizon

PARAMS = cs.PeriodParams(**BASE_ECON)
U20 = cs.Uniform(0, 20)


def test_xi_transition_examples():
    # next net worth x' + y' from net worth xi = 10, as the selling-back
    # relaxation reads the transition
    hz = make_horizon("u0_20", 3)

    def worth_next(z, d):
        s = cs.transition(cs.State(0.0, 10.0), z, d, 1, hz)
        return s.x + s.y

    # stationary normalized economics: p' = 2, h' = 0.5, c' = 1
    assert worth_next(10.0, 4.0) == pytest.approx(11.0)
    # no trading: everything compounds at the deposit rate
    assert worth_next(0.0, 7.0) == pytest.approx(10.0 * 1.01)
    # stockout branch: d >= z, z <= worth
    assert worth_next(8.0, 15.0) == pytest.approx(2 * 8 + (10 - 8) * 1.01)
    with pytest.raises(ValueError):
        worth_next(-1.0, 4.0)


def test_selling_back_single_period_equals_closed_form():
    hz = make_horizon("u0_20", 1)
    worth = np.linspace(-40, 80, 121)
    tables = selling_back_dp(hz, worth)
    closed = cs.value_closed_form(0.0, worth, PARAMS, SALVAGE, U20)
    assert np.allclose(tables[0].values, closed, rtol=1e-12)


def test_selling_back_precondition():
    periods = (
        cs.PeriodParams(4000, 1000, 100.0, 0.01, 0.15),
        cs.PeriodParams(4000, 2000, 100.0, 0.01, 0.15),  # c_next > c + h
    )
    hz = cs.HorizonSpec(periods, (U20,) * 2, SALVAGE)
    with pytest.raises(ValueError):
        selling_back_dp(hz, np.linspace(-10, 40, 51))


@pytest.fixture(scope="module")
def small_bounds():
    hz = make_horizon("u0_20", 4)
    grid = Grid.regular(40, -60, 120, 81, 101)
    sol = cs.backward_induct(hz, grid)
    sell = selling_back_dp(hz, default_worth_grid(grid))
    return hz, grid, sol, sell


def test_worth_table_monotone_concave(small_bounds):
    _, _, _, sell = small_bounds
    for table in sell:
        assert np.all(np.diff(table.values) >= -1e-9)
        assert np.all(np.diff(table.values, 2) <= 1e-6 * np.abs(table.values).max())


def test_clamp_structure(small_bounds):
    _, _, _, sell = small_bounds
    for table in sell[:-1]:
        cell = float(np.max(np.diff(table.worth)))
        clamp = np.clip(table.worth, table.borrow_level, table.deposit_level)
        assert np.max(np.abs(table.target - clamp)) <= cell + 1e-3
        assert table.borrow_level <= table.deposit_level


def test_value_chain(small_bounds):
    hz, grid, sol, sell = small_bounds
    lower = cs.policy_value_tables(hz, grid, cs.MyopicPolicy(hz, "upper"))[0]
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 15, 25)
    ys = rng.uniform(-20, 40, 25)
    v = sol.value(1)(xs, ys)
    lo = lower(xs, ys)
    up = sell[0](xs + ys)
    tol = 5e-3 * np.abs(v) + 1.0
    assert np.all(lo <= v + tol)
    assert np.all(v <= up + tol)


def test_compare_bounds_report(small_bounds):
    hz, grid, sol, _ = small_bounds
    report = compare_bounds(hz, grid, [(0.0, 0.0), (7.0, 0.0), (14.0, 0.0)], solution=sol)
    assert len(report.rows) == 3
    assert not report.any_violation
    for row in report.rows:
        assert row.lower <= row.optimal + 5e-3 * abs(row.optimal)
        assert row.optimal <= row.upper + 5e-3 * abs(row.optimal)
        assert row.lower_gap == pytest.approx(row.optimal - row.lower)
        assert row.upper_gap_pct == pytest.approx(
            100 * (row.optimal - row.upper) / row.optimal)


def test_upper_bound_tight_at_zero_stock(small_bounds):
    hz, grid, sol, sell = small_bounds
    worth = np.linspace(5, 40, 8)
    v = sol.value(1)(np.zeros_like(worth), worth)
    vs = sell[0](worth)
    assert np.all(np.abs(vs - v) <= 0.01 * np.abs(v))


def test_default_worth_grid_covers_sums(small_bounds):
    _, grid, _, _ = small_bounds
    w = default_worth_grid(grid)
    assert w[0] <= grid.y_nodes[0]
    assert w[-1] >= grid.x_nodes[-1] + grid.y_nodes[-1] - 1e-9


@pytest.mark.parametrize("key", ["u0_20", "zip18"])
def test_selling_back_tail_is_the_shorter_relaxation(key):
    worth = default_worth_grid(Grid.regular(40, -60, 120, 41, 51))
    long = selling_back_dp(make_horizon(key, 12), worth)
    short = selling_back_dp(make_horizon(key, 6), worth)
    for got, want in zip(long[6:], short, strict=True):
        assert got.period == want.period + 6
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.target, want.target)
        assert (got.borrow_level, got.deposit_level) == (want.borrow_level, want.deposit_level)


def test_compare_bounds_reads_shorter_horizons_as_tails(small_bounds):
    hz, grid, sol, _ = small_bounds
    states = [(0.0, 0.0), (7.0, 0.0)]
    both = compare_bounds(hz, grid, states, lengths=[2, 4], solution=sol)
    assert [r.n_periods for r in both.rows] == [2, 2, 4, 4]
    assert both.rows[2:] == compare_bounds(hz, grid, states, solution=sol).rows
    short = compare_bounds(make_horizon("u0_20", 2), grid, states, solution=sol.tail(2))
    assert both.rows[:2] == short.rows
    with pytest.raises(ValueError, match="lengths"):
        compare_bounds(hz, grid, states, lengths=[5], solution=sol)


def test_compare_bounds_rejects_a_mismatched_solution(small_bounds):
    hz, grid, sol, _ = small_bounds
    states = [(0.0, 0.0)]
    with pytest.raises(ValueError, match="another horizon or grid"):
        compare_bounds(hz, grid, states, solution=sol.tail(1))
    coarse = Grid.regular(40, -60, 120, 41, 51)
    with pytest.raises(ValueError, match="another horizon or grid"):
        compare_bounds(hz, coarse, states, solution=sol)
