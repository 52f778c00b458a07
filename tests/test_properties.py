"""Property tests of the two-threshold rule (every caller applies the one
rule) and of the solver's invariants on small grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cashstock as cs
from cashstock.dp import worth_grid
from cashstock.thresholds import PeriodThresholds

from bisection import BracketError, solve_thresholds
from closed_form import capped_order
from conftest import DEMANDS, make_horizon

STATE = st.floats(-100.0, 100.0, allow_nan=False)
LEVEL = st.floats(0.0, 60.0, allow_nan=False)
TOL = 1e-9
HORIZON = make_horizon("u0_20", 3)


@st.composite
def order_bands(draw):
    borrow, deposit = sorted((draw(LEVEL), draw(LEVEL)))
    return cs.OrderBands(borrow, deposit)


@given(order_bands(), STATE, STATE)
def test_optimal_order_trichotomy(bands, x, y):
    q = float(cs.optimal_order(x, y, bands))
    worth, z = x + y, x + q
    assert q >= 0.0
    if worth >= bands.deposit:
        # cash-financed: up to the deposit level, never borrowing
        assert z == pytest.approx(max(x, bands.deposit), abs=TOL)
        assert q <= max(y, 0.0) + TOL
    elif worth >= bands.borrow:
        # exactly the cash on hand
        assert q == max(y, 0.0)
    else:
        # loan-financed: up to the borrow level, spending all cash first
        assert z == pytest.approx(max(x, bands.borrow), abs=TOL)
        assert q >= y - TOL


@given(order_bands(), STATE, STATE)
def test_policy_from_thresholds_applies_the_rule(bands, x, y):
    worth = np.array([-300.0, 300.0])
    row = PeriodThresholds(1, worth, np.full(2, bands.borrow), np.full(2, bands.deposit),
                           None, None)
    table = cs.ThresholdTable(None, [row])
    assert cs.policy_from_thresholds(table, x, y, 1) == float(cs.optimal_order(x, y, bands))


@given(st.sampled_from(["lower", "upper"]), st.integers(1, 3), STATE, STATE)
def test_myopic_policy_applies_the_rule(which, n, x, y):
    pair = (cs.myopic_lower if which == "lower" else cs.myopic_upper)(HORIZON, n)
    got = cs.MyopicPolicy(HORIZON, which).order(n, np.array([x]), np.array([y]))
    assert got[0] == float(cs.optimal_order(x, y, pair))


#: the suite's small grid: capital resolved to 3.6 units (3600 at c = 1000)
SOLVER_GRID = cs.Grid.regular(40, -60, 120, 41, 51)


@st.composite
def horizons(draw, lengths=st.integers(2, 3)):
    """Valid stationary economics at c = 1000, N from `lengths` (2 or 3),
    demand from a short list.

    The loan-financed margin p / c(1+l) - 1 is at least 5%: below that V1
    can be a few tens of currency, far less than one capital cell (3600),
    and the relative chain tolerance then measures the grid, not the bounds.
    """
    cost = 1000.0
    deposit = draw(st.floats(0.0, 0.05))
    loan = deposit + draw(st.floats(0.01, 0.3))
    price = cost * (1.0 + loan) * (1.0 + draw(st.floats(0.05, 1.5)))
    params = cs.PeriodParams(price, cost, draw(st.floats(0.0, 800.0)), deposit, loan)
    demand = DEMANDS[draw(st.sampled_from(["u0_20", "u4_16", "zip18", "iu0_20"]))]
    return cs.HorizonSpec.stationary(draw(lengths), params, demand,
                                     draw(st.floats(0.0, 900.0)))


@settings(max_examples=20, deadline=None)
@given(horizons(st.just(2)), st.floats(500.0, 30_000.0))
def test_loan_limited_dp_orders_within_the_loan_limit(horizon, amount):
    # no period orders beyond its cash and the loan the limit allows, and in
    # period N the order is the free rule's cut to that, the closed form
    limit = cs.LoanLimit(amount)
    solution = cs.loan_limited_dp(horizon, limit, SOLVER_GRID)
    X, Y = SOLVER_GRID.mesh()
    for n in (1, 2):
        q = solution.policy(n).order_quantity()
        assert np.all(q <= np.maximum(Y, 0.0) + limit.units(horizon.period(n).cost) + TOL)
    want = capped_order(X, Y, cs.myopic_lower(horizon, 2), limit.units(horizon.period(2).cost))
    assert np.abs(solution.policy(2).order_quantity() - want).max() <= TOL


@settings(max_examples=30, deadline=None)
@given(horizons())
def test_solver_invariants(horizon):
    solution = cs.backward_induct(horizon, SOLVER_GRID)
    # more capital never hurts: V1 nondecreasing in y at every node
    assert np.all(np.diff(solution.value(1).values, axis=1) >= 0.0)
    rows = cs.compare_bounds(solution, [(0.0, 0.0), (7.0, 0.0), (14.0, 0.0)],
                             ("myopic-upper", "selling-back"))
    assert not any(r.violated for r in rows), rows


#: the threshold property's grid (capital resolved to 1.8 units) and the
#: one it falls back on where the bracket check blames the grid
THRESHOLD_GRID = cs.Grid.regular(40, -60, 120, 81, 101)
REFINED_GRID = cs.Grid.regular(40, -60, 120, 161, 201)


@st.composite
def nonstationary_horizons(draw):
    """N = 2 or 3 periods, each with its own economics and demand.

    Each cost rise keeps c_n(1+i_n)+h_n >= c_{n+1} (and so the loan-rate
    condition too), so the liquidation-credit myopic policy exists in every
    period. The loan-financed margin is at least 5%, as above.
    """
    n_periods = draw(st.integers(2, 3))
    periods, cost = [], 1000.0
    for _ in range(n_periods):
        deposit = draw(st.floats(0.0, 0.05))
        loan = deposit + draw(st.floats(0.01, 0.3))
        price = cost * (1.0 + loan) * (1.0 + draw(st.floats(0.05, 1.5)))
        holding = draw(st.floats(0.0, 0.8)) * cost
        periods.append(cs.PeriodParams(price, cost, holding, deposit, loan))
        cost = draw(st.floats(0.7 * cost, cost * (1.0 + deposit) + holding))
    demands = [DEMANDS[draw(st.sampled_from(["u0_20", "u6_14", "zip18", "iu0_20", "iu4_16"]))]
               for _ in range(n_periods)]
    return cs.HorizonSpec(periods, demands, draw(st.floats(0.0, 0.9)) * periods[-1].cost)


#: a horizon on which 81x101 raises BracketError and 161x201 does not
GRID_BOUND_BRACKET = cs.HorizonSpec(
    [cs.PeriodParams(1095.703125, 1000.0, 0.0, 0.0, 0.03125),
     cs.PeriodParams(2337.5, 935.0, 0.0, 0.0, 0.25)], [DEMANDS["u0_20"]] * 2, 0.0)

#: a horizon on which 81x101 and 161x201 both raise BracketError and 321x401
#: does not (the deposit level of period 2 near its upper bracket)
GRID_BOUND_BRACKET_3 = cs.HorizonSpec(
    [cs.PeriodParams(2500.0, 1000.0, 0.0, 0.0, 0.25),
     cs.PeriodParams(1218.796875, 963.0, 662.0625, 0.0, 0.125),
     cs.PeriodParams(4002.5, 1601.0, 0.0, 0.0, 0.25)],
    [DEMANDS["u0_20"], DEMANDS["u6_14"], DEMANDS["u0_20"]], 0.0)


@settings(max_examples=20, deadline=None)
@given(nonstationary_horizons())
@example(GRID_BOUND_BRACKET)
@example(GRID_BOUND_BRACKET_3)
def test_thresholds_bracket_and_follow_the_dp_argmax(horizon):
    assert all(horizon.liquidation_shortfall(n) is None for n in range(1, horizon.n_periods))
    # a BracketError blames the grid: where a level sits near its upper
    # bracket, the slope there is within grid error of 0 (on
    # GRID_BOUND_BRACKET the wrong-sign share is 0.174, 0.053, 0.003 and
    # 0.000 of the swing at 41x51, 81x101, 161x201 and 321x401), so the
    # bracket must hold on the grid refined twofold. Where it does not
    # (GRID_BOUND_BRACKET_3, share 0.051 at 161x201), the DP's own levels
    # must lie within one cell of their brackets wherever they bind, and the
    # rule is checked on them
    table = None
    for grid in (THRESHOLD_GRID, REFINED_GRID):
        solution = cs.backward_induct(horizon, grid)
        try:
            table, _ = solve_thresholds(solution)
            break
        except BracketError:
            pass
    cell = max(float(np.diff(grid.x_nodes).max()), float(np.diff(grid.y_nodes).max()))
    if table is None:
        table = cs.ThresholdTable.from_solution(solution)
        worth = worth_grid(grid)
        for n in range(1, horizon.n_periods):
            z_w, row = solution.worth_argmax[n - 1], table.period(n)
            for binds, lo, hi in ((z_w > worth, row.lower.borrow, row.upper.borrow),
                                  (z_w < worth, row.lower.deposit, row.upper.deposit)):
                assert np.all((z_w[binds] >= lo - cell) & (z_w[binds] <= hi + cell)), n
    # criterion 5's check: the grid argmax follows the rule within one cell
    X, Y = grid.mesh()
    for n in range(1, horizon.n_periods + 1):
        q_dp = solution.policy(n).order_up_to - X
        q_rule = cs.policy_from_thresholds(table, X.ravel(), Y.ravel(), n).reshape(X.shape)
        assert np.abs(q_dp - q_rule).max() <= cell + 1e-3, n
