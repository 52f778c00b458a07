import numpy as np
import pytest

import cashstock as cs
from cashstock.bounds import (
    BOUNDS,
    BoundRow,
    compare_bounds,
    default_worth_grid,
    selling_back_dp,
)
from cashstock.dp import Grid, _expected_next, _next_state
from cashstock.sim import MyopicPolicy, run_policies

from closed_form import value
from conftest import BASE_ECON, SALVAGE, make_horizon

PARAMS = cs.PeriodParams(**BASE_ECON)
U20 = cs.Uniform(0, 20)
#: the bounds each CLI table reports
TABLE1 = ("myopic-lower", "myopic-upper")
TABLE2 = ("myopic-upper", "selling-back")


def test_xi_transition_examples():
    # next net worth x' + y' from net worth xi = 10, as the selling-back
    # relaxation reads the transition
    hz = make_horizon("u0_20", 3)

    def worth_next(z, d):
        x, y = _next_state(z, 10.0, d, 1, hz)
        return x + y

    # stationary normalized economics: p' = 2, h' = 0.5, c' = 1
    assert worth_next(10.0, 4.0) == pytest.approx(11.0)
    # no trading: everything compounds at the deposit rate
    assert worth_next(0.0, 7.0) == pytest.approx(10.0 * 1.01)
    # stockout branch: d >= z, z <= worth
    assert worth_next(8.0, 15.0) == pytest.approx(2 * 8 + (10 - 8) * 1.01)


def test_selling_back_single_period_equals_closed_form():
    hz = make_horizon("u0_20", 1)
    tables = selling_back_dp(hz, Grid.regular(40, -40, 40, 41, 81))
    worth = tables[0].worth
    assert np.array_equal(worth, np.arange(-40.0, 81.0))
    closed = value(0.0, worth, PARAMS, SALVAGE, U20)
    assert np.allclose(tables[0].values, closed, rtol=1e-12)


def test_selling_back_precondition():
    periods = (
        cs.PeriodParams(4000, 1000, 100.0, 0.01, 0.15),
        cs.PeriodParams(4000, 2000, 100.0, 0.01, 0.15),  # c_next > c + h
    )
    hz = cs.HorizonSpec(periods, (U20,) * 2, SALVAGE)
    with pytest.raises(ValueError):
        selling_back_dp(hz, Grid.regular(40, -10, 40, 41, 51))


@pytest.fixture(scope="module")
def small_bounds():
    hz = make_horizon("u0_20", 4)
    grid = Grid.regular(40, -60, 120, 81, 101)
    sol = cs.backward_induct(hz, grid)
    sell = selling_back_dp(hz, grid)
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
        # the trade clamps net worth between the levels at the target's ends
        borrow, deposit = table.target[0], table.target[-1]
        clamp = np.clip(table.worth, borrow, deposit)
        assert np.max(np.abs(table.target - clamp)) <= cell + 1e-3
        assert borrow <= deposit


def test_value_chain(small_bounds):
    hz, grid, sol, sell = small_bounds
    lower = cs.policy_value_tables(hz, grid, cs.MyopicPolicy(hz, "upper"))[0]
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 15, 25)
    ys = rng.uniform(-20, 40, 25)
    v = sol.value(1)(xs, ys)
    lo = lower(xs, ys)
    up = sell[0](xs, ys)
    tol = 5e-3 * np.abs(v) + 1.0
    assert np.all(lo <= v + tol)
    assert np.all(v <= up + tol)


def test_compare_bounds_report(small_bounds):
    _, _, sol, _ = small_bounds
    rows = compare_bounds(sol, [(0.0, 0.0), (7.0, 0.0), (14.0, 0.0)], TABLE2)
    assert len(rows) == 3
    assert not any(row.violated for row in rows)
    for row in rows:
        assert tuple(row.values) == TABLE2  # the bounds asked for, and no other
        lower, upper = row.values["myopic-upper"], row.values["selling-back"]
        assert lower <= row.optimal + 5e-3 * abs(row.optimal)
        assert row.optimal <= upper + 5e-3 * abs(row.optimal)
        assert row.gap("myopic-upper") == pytest.approx(row.optimal - lower)
        assert row.gap_pct("selling-back") == pytest.approx(
            100 * (row.optimal - upper) / row.optimal)


def test_bound_row_violation_sides():
    # every myopic value bounds the optimum from below, the relaxation from
    # above, each within CHAIN_TOL = 5e-3 relative (5 here)
    def violated(values):
        return BoundRow(3, 0.0, 0.0, 1000.0, values).violated

    assert not violated({"myopic-lower": 1004.0, "myopic-upper": 1004.0, "selling-back": 996.0})
    assert not violated({"myopic-lower": 900.0, "selling-back": 1100.0})
    assert violated({"myopic-lower": 1006.0})
    assert violated({"myopic-upper": 1006.0})
    assert violated({"selling-back": 994.0})


@pytest.mark.parametrize("key", ["u0_20", "zip18", "iu0_20"])
def test_full_bound_chain_holds(small_grid, key):
    # both myopic values below the optimum, the relaxation above it, at every
    # state and horizon length
    solution = cs.backward_induct(make_horizon(key, 3), small_grid)
    states = [(0.0, 0.0), (7.0, 0.0), (14.0, 0.0), (0.0, 20.0)]
    rows = compare_bounds(solution, states, BOUNDS, lengths=[1, 2, 3])
    assert len(rows) == 12
    assert all(tuple(r.values) == BOUNDS for r in rows)
    assert not any(r.violated for r in rows), rows


def test_compare_bounds_myopic_gaps(small_grid):
    hz = make_horizon("u0_20", 3)
    [row] = compare_bounds(cs.backward_induct(hz, small_grid), [(0.0, 0.0)], TABLE1)
    assert (row.n_periods, row.x, row.y) == (3, 0.0, 0.0)
    lower, upper = row.values["myopic-lower"], row.values["myopic-upper"]
    assert row.optimal >= lower - 1.0
    assert row.optimal >= upper - 1.0
    assert row.gap_pct("myopic-lower") == pytest.approx(100 * (row.optimal - lower) / row.optimal)
    # the liquidation-credit myopic rule dominates the holding-only one here
    assert row.gap_pct("myopic-upper") < row.gap_pct("myopic-lower")


def test_compare_bounds_checks_before_the_myopic_sweeps(small_grid, monkeypatch):
    # a state off the grid, where the tables would be extrapolated, or a bound
    # of unknown name: the report stops before either myopic sweep runs
    solution = cs.backward_induct(make_horizon("u0_20", 3), small_grid)

    def no_solve(*args):
        raise AssertionError("a solver ran")

    monkeypatch.setattr("cashstock.dp._induct", no_solve)
    with pytest.raises(ValueError, match=r"states\[0\] puts the state \(60, 200\) outside the "
                       r"grid, x in \[0, 40\] and y in \[-60, 120\]"):
        compare_bounds(solution, [(60.0, 200.0)], TABLE1)
    with pytest.raises(ValueError, match=r"unknown bound\(s\) \['myopic'\]"):
        compare_bounds(solution, [(0.0, 0.0)], ("myopic-lower", "myopic"))


def test_myopic_bounds_consistent_with_simulation(small_grid):
    hz = make_horizon("u0_20", 3)
    [row] = compare_bounds(cs.backward_induct(hz, small_grid), [(0.0, 0.0)], TABLE1)
    policies = [MyopicPolicy(hz, "lower"), MyopicPolicy(hz, "upper")]
    for sim in run_policies(hz, policies, cs.State(0.0, 0.0), 400_000, seed=9):
        value = row.values[sim.label]  # a policy's label is its bound's name
        assert abs(sim.mean - value) <= sim.half_width + 0.01 * abs(value)


def test_upper_bound_tight_at_zero_stock(small_bounds):
    hz, grid, sol, sell = small_bounds
    worth = np.linspace(5, 40, 8)
    v = sol.value(1)(np.zeros_like(worth), worth)
    vs = sell[0](0.0, worth)
    assert np.all(np.abs(vs - v) <= 0.01 * np.abs(v))


def test_default_worth_grid_covers_sums(small_bounds):
    _, grid, _, sell = small_bounds
    w = default_worth_grid(grid)
    assert all(np.array_equal(table.worth, w) for table in sell)  # the relaxation's axis
    assert w[0] <= grid.y_nodes[0]
    assert w[-1] >= grid.x_nodes[-1] + grid.y_nodes[-1] - 1e-9


@pytest.mark.parametrize("key", ["u0_20", "zip18"])
def test_selling_back_tail_is_the_shorter_relaxation(key):
    grid = Grid.regular(40, -60, 120, 41, 51)
    long = selling_back_dp(make_horizon(key, 12), grid)
    short = selling_back_dp(make_horizon(key, 6), grid)
    for got, want in zip(long[6:], short, strict=True):
        assert got.period == want.period + 6
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.target, want.target)  # and so both levels, its ends


def test_compare_bounds_reads_shorter_horizons_as_tails(small_bounds):
    _, _, sol, _ = small_bounds
    states = [(0.0, 0.0), (7.0, 0.0)]
    both = compare_bounds(sol, states, TABLE2, lengths=[2, 4])
    assert [r.n_periods for r in both] == [2, 2, 4, 4]
    assert both[2:] == compare_bounds(sol, states, TABLE2)
    short = compare_bounds(sol.tail(2), states, TABLE2)
    assert short == both[:2]
    with pytest.raises(ValueError, match="lengths"):
        compare_bounds(sol, states, TABLE2, lengths=[5])


def test_compare_bounds_rejects_a_state_outside_the_grid(small_grid, monkeypatch):
    # the tables would be extrapolated there: the report stops before the
    # myopic sweep or the relaxation runs
    solution = cs.backward_induct(make_horizon("u0_20", 3), small_grid)

    def no_solve(*args):
        raise AssertionError("a solver ran")

    monkeypatch.setattr("cashstock.dp._induct", no_solve)
    monkeypatch.setattr("cashstock.bounds._induct", no_solve)
    with pytest.raises(ValueError, match=r"states\[1\] puts the state \(80, 0\) outside the "
                       r"grid, x in \[0, 40\] and y in \[-60, 120\]"):
        compare_bounds(solution, [(0.0, 0.0), (80.0, 0.0)], TABLE2)


@pytest.mark.parametrize("key", ["zip18", "iu0_20"])
def test_relaxation_search_matches_a_local_dense_scan(key):
    # period 1's golden-section search against 2001 trades within 0.01 of its
    # target at every net worth, each read through the transition against
    # period 2's table: no trade found by the scan may beat the search
    hz = make_horizon(key, 2)
    first, second = selling_back_dp(hz, Grid.regular(40, -60, 120, 41, 51))
    worth = first.worth
    offsets = np.linspace(-0.01, 0.01, 2001)
    z = np.maximum(first.target[:, None] + offsets, 0.0)
    scan = _expected_next(z.ravel(), np.repeat(worth, len(offsets)), hz, 1, second)
    excess = scan.reshape(z.shape).max(axis=1) - first.values
    assert excess.max() <= 5e-9 * np.abs(first.values).max()
