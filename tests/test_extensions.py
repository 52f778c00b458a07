from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cashstock as cs
from cashstock.dp import Z_TOL, Grid, ValueTable, _expected_next, _next_state
from cashstock.extensions import (
    BackorderParams,
    LoanLimit,
    PiecewiseRateSchedule,
    _piecewise_G,
    backorder_dp,
    backorder_grid,
    loan_limited_dp,
    loan_limited_policy,
    piecewise_dp,
    piecewise_optimal_order,
    piecewise_thresholds,
)

from bisection import solve_thresholds
from conftest import BASE_ECON, SALVAGE, make_horizon

PARAMS = cs.PeriodParams(**BASE_ECON)
U20 = cs.Uniform(0, 20)
BANDS = cs.order_bands(cs.fractiles(PARAMS, SALVAGE), U20)

TWO_TIER = PiecewiseRateSchedule(
    loan_rates=(0.15, 0.30), loan_breaks=(5000.0,),
    deposit_rates=(0.01,), deposit_breaks=())
DEPOSIT_BREAK = PiecewiseRateSchedule(
    loan_rates=(0.15, 0.30), loan_breaks=(5000.0,),
    deposit_rates=(0.01, 0.03), deposit_breaks=(8000.0,))
THREE_TIER = PiecewiseRateSchedule(
    loan_rates=(0.05, 0.15, 0.4), loan_breaks=(2000.0, 6000.0),
    deposit_rates=(0.0, 0.01, 0.02), deposit_breaks=(3000.0, 8000.0))


def test_schedule_validation():
    with pytest.raises(ValueError):
        PiecewiseRateSchedule(loan_rates=(0.2, 0.15), loan_breaks=(100.0,))
    with pytest.raises(ValueError):
        PiecewiseRateSchedule(loan_rates=(0.15,), deposit_rates=(0.2,))
    with pytest.raises(ValueError):
        PiecewiseRateSchedule(loan_rates=(0.1, 0.2), loan_breaks=(-5.0,))
    with pytest.raises(ValueError):
        PiecewiseRateSchedule(loan_rates=(0.1, 0.2))  # missing break


def test_bank_flow_whole_balance_tiering():
    s = TWO_TIER
    assert s.bank_flow(3000.0) == pytest.approx(3000 * 1.01)
    assert s.bank_flow(-3000.0) == pytest.approx(-3000 * 1.15)
    assert s.bank_flow(-6000.0) == pytest.approx(-6000 * 1.30)
    assert s.bank_flow(-5000.0) == pytest.approx(-5000 * 1.15)  # break: cheaper tier
    tiered_dep = PiecewiseRateSchedule(loan_rates=(0.15,), deposit_rates=(0.01, 0.02),
                                       deposit_breaks=(8000.0,))
    assert tiered_dep.bank_flow(8000.0) == pytest.approx(8000 * 1.02)  # break: richer tier
    single = PiecewiseRateSchedule(loan_rates=(0.15,), deposit_rates=(0.01,))
    a = np.array([-2000.0, 0.0, 1500.0])
    assert single.bank_flow(a) == pytest.approx([-2300.0, 0.0, 1515.0])


def test_tiers_run_in_balance_order():
    # deposits are negative balances: the richest deposit tier comes first
    assert DEPOSIT_BREAK.tiers == ((0.03, -np.inf, -8000.0), (0.01, -8000.0, -0.0),
                                   (0.15, 0.0, 5000.0), (0.30, 5000.0, np.inf))
    assert TWO_TIER.tiers == ((0.01, -np.inf, -0.0), (0.15, 0.0, 5000.0),
                              (0.30, 5000.0, np.inf))


def whole_balance_flow(schedule, amount):
    """Reference: the deposit tier of a deposit, a break taking the richer
    tier, and the loan tier of a loan, a break taking the cheaper tier."""
    dep = np.searchsorted(schedule.deposit_breaks, amount, side="right")
    loan = np.searchsorted(schedule.loan_breaks, -amount, side="left")
    rate = np.where(amount >= 0.0, np.asarray(schedule.deposit_rates)[dep],
                    np.asarray(schedule.loan_rates)[loan])
    return amount * (1.0 + rate)


@pytest.mark.parametrize("schedule", [TWO_TIER, DEPOSIT_BREAK, THREE_TIER],
                         ids=["two_tier", "deposit_break", "three_tier"])
def test_a_balance_on_a_break_takes_its_lower_balance_tier(schedule):
    # at every break, zero of both signs included, and at its two float
    # neighbours: the richer deposit tier, the cheaper loan tier
    breaks = np.array([0.0, -0.0, *schedule.deposit_breaks,
                       *(-b for b in schedule.loan_breaks)])
    amounts = np.concatenate([breaks, np.nextafter(breaks, np.inf),
                              np.nextafter(breaks, -np.inf)])
    # bit for bit, so the sign of a zero flow counts too
    want = whole_balance_flow(schedule, amounts)
    assert schedule.bank_flow(amounts).tobytes() == want.tobytes()


def test_piecewise_thresholds_examples():
    ladder = piecewise_thresholds(PARAMS, SALVAGE, TWO_TIER, U20)
    # tier 1 reproduces the base borrow level; tier 2: (2000-1300)/1400 = 0.5
    assert ladder.borrow_levels[0] == pytest.approx(BANDS.borrow)
    assert ladder.borrow_levels[1] == pytest.approx(10.0)
    assert ladder.deposit_levels[0] == pytest.approx(BANDS.deposit)
    single = PiecewiseRateSchedule(loan_rates=(0.15,), deposit_rates=(0.01,))
    flat = piecewise_thresholds(PARAMS, SALVAGE, single, U20)
    assert flat.borrow_levels == (pytest.approx(BANDS.borrow),)
    assert flat.deposit_levels == (pytest.approx(BANDS.deposit),)


def test_piecewise_thresholds_unprofitable_tier_clips_to_zero():
    schedule = PiecewiseRateSchedule(loan_rates=(0.15, 1.2), loan_breaks=(5000.0,),
                                     deposit_rates=(0.01,))
    ladder = piecewise_thresholds(PARAMS, SALVAGE, schedule, U20)
    assert ladder.borrow_levels[1] == 0.0  # (1+1.2)c >= p


def test_piecewise_ladder_monotone():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m, k = rng.integers(1, 4), rng.integers(1, 4)
        loan = np.sort(rng.uniform(0.02, 0.9, m))
        dep = np.sort(rng.uniform(0.0, loan[0] * 0.9, k))
        schedule = PiecewiseRateSchedule(
            loan_rates=tuple(loan), loan_breaks=tuple(np.sort(rng.uniform(100, 9000, m - 1))),
            deposit_rates=tuple(dep), deposit_breaks=tuple(np.sort(rng.uniform(100, 9000, k - 1))))
        ladder = piecewise_thresholds(PARAMS, SALVAGE, schedule, U20)
        chain = list(ladder.deposit_levels) + list(ladder.borrow_levels)
        assert all(a >= b - 1e-12 for a, b in zip(chain, chain[1:]))
        assert ladder.deposit_levels[-1] > max(ladder.borrow_levels)
        assert min(ladder.borrow_levels) >= 0.0


def brute_force_piecewise(x, y, schedule):
    qs = np.linspace(0.0, 40.0, 8001)
    vals = _piecewise_G(qs, x, y, PARAMS, SALVAGE, schedule, U20)
    return float(vals.max())


def test_piecewise_order_matches_brute_force():
    rng = np.random.default_rng(14)
    for schedule in (TWO_TIER, THREE_TIER):
        for _ in range(60):
            x = rng.uniform(0, 18)
            y = rng.uniform(-10, 20)
            q = piecewise_optimal_order(x, y, PARAMS, SALVAGE, schedule, U20)
            got = float(_piecewise_G(q, x, y, PARAMS, SALVAGE, schedule, U20))
            best = brute_force_piecewise(x, y, schedule)
            assert got >= best - 1e-6 * (1 + abs(best))


def test_piecewise_single_segment_reduces_to_base_rule():
    single = PiecewiseRateSchedule(loan_rates=(0.15,), deposit_rates=(0.01,))
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.uniform(0, 20)
        y = rng.uniform(-10, 25)
        q = piecewise_optimal_order(x, y, PARAMS, SALVAGE, single, U20)
        assert q == pytest.approx(float(cs.optimal_order(x, y, BANDS)), abs=1e-9)


def test_piecewise_band_case_orders_to_tier_one_level():
    # worth between the two borrow levels, tier-1 capacity ample
    ladder = piecewise_thresholds(PARAMS, SALVAGE, TWO_TIER, U20)
    x, y = 2.0, 9.0   # worth 11 in (10, 12.14)
    q = piecewise_optimal_order(x, y, PARAMS, SALVAGE, TWO_TIER, U20)
    assert q == pytest.approx(ladder.borrow_levels[0] - x, abs=1e-9)
    # far above every level: order up to the top deposit level
    q = piecewise_optimal_order(3.0, 50.0, PARAMS, SALVAGE, TWO_TIER, U20)
    assert q == pytest.approx(ladder.deposit_levels[0] - 3.0, abs=1e-9)


def test_piecewise_dp_single_segment_matches_base():
    single = PiecewiseRateSchedule(loan_rates=(0.15,), deposit_rates=(0.01,))
    hz = make_horizon("u0_20", 3)
    grid = Grid.regular(40, -60, 120, 41, 51)
    base = cs.backward_induct(hz, grid)
    pw = piecewise_dp(hz, single, grid)
    rel = np.abs(pw.value(1).values - base.value(1).values) / (
        np.abs(base.value(1).values) + 1.0)
    assert rel.max() < 1e-6


def dense_oracle(hz, schedule, grid, n_z=801):
    """piecewise_dp's value tables from a per-node maximum over n_z evenly
    spaced z in [x, z_max] and the z where the balance meets a tier break,
    each evaluated with the schedule's whole-balance bank flow."""
    y = grid.y_nodes
    values, next_value = [], (lambda x_next, y_next: y_next)
    for n in range(hz.n_periods, 0, -1):
        cost = hz.period(n).cost
        z_max = float(grid.x_nodes[-1] + hz.demand_in(n).quantile(0.999))
        v = np.empty(grid.shape)
        for i, x in enumerate(grid.x_nodes):
            breaks = [x + y - b / cost for b in (*schedule.deposit_breaks, 0.0)]
            breaks += [x + y + b / cost for b in schedule.loan_breaks]
            z = np.column_stack([np.broadcast_to(np.linspace(x, z_max, n_z), (len(y), n_z)),
                                 *(np.clip(b, x, z_max) for b in breaks)])
            f = _expected_next(z.ravel(), np.repeat(x + y, z.shape[1]), hz, n, next_value,
                               bank=schedule.bank_flow)
            v[i] = f.reshape(z.shape).max(axis=1)
        values.append(ValueTable(n, grid, v))
        next_value = values[-1]
    return values[::-1]


@pytest.mark.parametrize("key", ["u0_20", "zip18"])
@pytest.mark.parametrize("schedule", [TWO_TIER, DEPOSIT_BREAK],
                         ids=["two_loan_tiers", "deposit_break"])
def test_piecewise_dp_matches_dense_oracle(key, schedule):
    hz = make_horizon(key, 3)
    grid = Grid.regular(40, -60, 120, 11, 14)
    sol = piecewise_dp(hz, schedule, grid)
    for got, want in zip(sol.values, dense_oracle(hz, schedule, grid), strict=True):
        gap = (got.values - want.values) / np.abs(want.values).max()
        # no node below the oracle; above it only by the oracle's z spacing
        assert gap.min() > -1e-7
        assert gap.max() < 1e-4


@pytest.mark.parametrize("schedule", [TWO_TIER, DEPOSIT_BREAK],
                         ids=["two_loan_tiers", "deposit_break"])
def test_piecewise_dp_terminal_period_is_the_ladder_rule(schedule):
    hz = make_horizon("u0_20", 1)
    grid = Grid.regular(40, -60, 120, 21, 26)
    sol = piecewise_dp(hz, schedule, grid)
    X, Y = grid.mesh()
    q = np.vectorize(lambda x, y: piecewise_optimal_order(x, y, PARAMS, SALVAGE, schedule,
                                                          U20))(X, Y)
    assert sol.policy(1).order_up_to == pytest.approx(X + q, abs=Z_TOL)
    want = _piecewise_G(q, X, Y, PARAMS, SALVAGE, schedule, U20)
    assert np.abs(sol.value(1).values - want).max() <= 1e-12 * np.abs(want).max()


def test_piecewise_dp_extra_tier_costs_value():
    hz = make_horizon("u0_20", 3)
    grid = Grid.regular(40, -60, 120, 41, 51)
    base = cs.backward_induct(hz, grid)
    pw = piecewise_dp(hz, TWO_TIER, grid)
    # dearer marginal credit can only hurt
    assert np.all(pw.value(1).values <= base.value(1).values + 1e-6)


def test_loan_limited_policy_cases():
    limit_units = 3.0
    rng = np.random.default_rng(16)
    for _ in range(100):
        x = rng.uniform(0, 20)
        y = rng.uniform(-10, 25)
        q_free = float(cs.optimal_order(x, y, BANDS))
        assert loan_limited_policy(x, y, BANDS, 1e9) == pytest.approx(q_free)
    # worth below borrow - capacity: spend the cash and max out the loan
    assert loan_limited_policy(0.0, 0.0, BANDS, limit_units) == pytest.approx(limit_units)
    assert loan_limited_policy(2.0, 1.0, BANDS, limit_units) == pytest.approx(1.0 + limit_units)
    # inside [borrow - capacity, borrow): reach the borrow level
    assert loan_limited_policy(0.0, 10.0, BANDS, limit_units) == pytest.approx(
        BANDS.borrow, abs=1e-12)
    # slack constraint above the deposit level
    assert loan_limited_policy(0.0, 30.0, BANDS, limit_units) == pytest.approx(BANDS.deposit)


@pytest.mark.parametrize("x, y", [(11.64, -5.0), (14.14, -10.0), (13.14, -4.5)])
def test_loan_limited_policy_matches_brute_force_with_debt(x, y):
    # with debt and net worth short of the borrow level, the capped optimum
    # can order less than cash plus capacity
    capacity = 3.0
    qs = np.linspace(0.0, max(y, 0.0) + capacity, 3001)
    vals = cs.expected_value_G(qs, x, y, PARAMS, SALVAGE, U20)
    q = loan_limited_policy(x, y, BANDS, capacity)
    assert 0.0 <= q <= max(y, 0.0) + capacity
    got = float(cs.expected_value_G(q, x, y, PARAMS, SALVAGE, U20))
    assert got >= vals.max() - 1e-6 * abs(vals.max())


def test_loan_limited_dp_unbinding_limit_reproduces_base():
    hz = make_horizon("u0_20", 3)
    grid = Grid.regular(40, -60, 120, 41, 51)
    base = cs.backward_induct(hz, grid)
    capped = loan_limited_dp(hz, LoanLimit(1e12), grid)
    rel = np.abs(capped.value(1).values - base.value(1).values) / (
        np.abs(base.value(1).values) + 1.0)
    assert rel.max() < 5e-3
    # a binding cap can only cost value, up to golden-section noise
    tight = loan_limited_dp(hz, LoanLimit(2000.0), grid)
    assert np.all(tight.value(1).values <= base.value(1).values + 1e-2)


def test_loan_limit_binds_in_every_period(small_grid):
    hz = make_horizon("u0_20", 3)
    limit = LoanLimit(3000.0)
    sol = loan_limited_dp(hz, limit, small_grid)
    y_plus = np.maximum(small_grid.mesh()[1], 0.0)
    for n in range(1, hz.n_periods + 1):
        cap = y_plus + limit.units(hz.period(n).cost)
        assert np.all(sol.policy(n).order_quantity() <= cap + 1e-12)


def test_loan_limit_takes_each_periods_unit_cost(small_grid):
    # unit cost falls from 1000 to 900; at x = 0 and no cash, the tightest
    # cap of both periods would be 3000 / 1000, but period 2 can borrow 3000 / 900
    hz = cs.HorizonSpec([PARAMS, replace(PARAMS, cost=900.0)], [U20, U20], SALVAGE)
    sol = loan_limited_dp(hz, LoanLimit(3000.0), small_grid)
    broke = small_grid.y_nodes <= 0.0
    assert sol.policy(2).order_quantity()[0, broke] == pytest.approx(3000.0 / 900.0, abs=1e-12)
    assert sol.policy(1).order_quantity()[0, broke] == pytest.approx(3.0, abs=Z_TOL)


def test_backorder_revenue_example():
    # on the horizon priced at p + b, the backlog transition values a period's
    # sales at (p+b) z - (p+h+b)(z-d)^+ - b E[D]; with z = xi no bank term
    b = 100.0
    hz = make_horizon("u0_20", 3)
    priced = cs.HorizonSpec([replace(p, price=p.price + b) for p in hz.periods],
                            hz.demands, hz.salvage)
    x_next, y_next = _next_state(10.0, 10.0, 15.0, 1, priced, backlog=b)
    assert x_next == -5.0
    # (2000+100)*10 - (2000+500+100)*0 - 100*10 = 20000, in units of c' = 1000
    assert y_next * PARAMS.cost == pytest.approx(20000.0)
    rng = np.random.default_rng(17)
    z, d = rng.uniform(0, 20, 50), rng.uniform(0, 25, 50)
    revenue = ((PARAMS.price + b) * z
               - (PARAMS.price + PARAMS.holding + b) * np.maximum(z - d, 0) - b * 10.0)
    assert _next_state(z, z, d, 1, priced, backlog=b)[1] * PARAMS.cost == pytest.approx(revenue)


def test_backorder_matches_lost_sales_when_demand_stays_below_targets():
    # all order-up-to levels hit the top atom (5), so stockouts never occur
    demand = cs.DiscreteEmpirical((0.0, 5.0), (0.3, 0.7))
    hz = cs.HorizonSpec.stationary(4, cs.PeriodParams(**BASE_ECON), demand, SALVAGE)
    base_grid = Grid.regular(30, -40, 80, 31, 41)
    base = cs.backward_induct(hz, base_grid)
    bo = backorder_dp(hz, BackorderParams(0.0), backorder_grid(hz, base_grid))
    keep = bo.grid.x_nodes >= -1e-9
    for n in (1, 2, 4):
        got = bo.value(n).values[keep]
        want = base.value(n).values
        assert np.max(np.abs(got - want) / (np.abs(want) + 1.0)) < 5e-3


@pytest.mark.parametrize("base", [Grid.regular(40, -60, 120, 41, 51),
                                  Grid.regular(40, -60, 120, 161, 201),
                                  Grid.regular(30, -40, 80, 71, 41),
                                  Grid.regular(40, -60, 120, 121, 151)],
                         ids=["41x51", "desk", "step_3_7ths", "step_1_3rd"])
def test_backorder_grid_extends_a_regular_axis_evenly(base):
    # the backlog nodes continue the base step below zero, evenly spaced; the
    # base nodes move by at most 4 ulps of the axis's largest magnitude (2.9
    # over 3,000 random regular bases), and not at all on a dyadic step
    hz = make_horizon("u0_20", 3)
    depth = 3 * float(U20.quantile(0.999))
    grid = backorder_grid(hz, base)
    x, step = grid.x_nodes, float(np.min(np.diff(base.x_nodes)))
    moved = np.max(np.abs(x[-len(base.x_nodes):] - base.x_nodes))
    assert moved <= 4 * np.finfo(float).eps * max(-x[0], x[-1])
    assert moved == 0.0 or step not in (1.0, 0.25)
    assert np.array_equal(grid.y_nodes, base.y_nodes)
    assert grid._steps[0] > 0
    assert np.max(np.abs(np.diff(x) - step)) <= 1e-12 * depth
    assert x[0] <= -depth < x[1]


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 500.0), st.integers(2, 4001), st.integers(1, 12),
       st.builds(cs.Uniform, st.just(0.0), st.floats(1.0, 60.0))
       | st.builds(cs.ZeroInflatedPoisson, st.floats(0.0, 0.5), st.floats(1.0, 30.0)))
def test_backorder_grid_is_even_on_every_regular_base(x_max, nx, n_periods, demand):
    hz = cs.HorizonSpec.stationary(n_periods, PARAMS, demand, SALVAGE)
    grid = backorder_grid(hz, Grid.regular(x_max, -60, 120, nx, 3))
    depth = n_periods * float(demand.quantile(0.999))
    assert grid._steps[0] > 0
    assert grid.x_nodes[-1] == x_max
    # it reaches -depth and stops within a step past it, to rounding
    steps_past = (-depth - grid.x_nodes[0]) / grid._steps[0]
    assert -1e-9 < steps_past < 1.0 + 1e-9


def test_backorder_large_penalty_raises_deposit_band():
    hz = make_horizon("u0_20", 2)
    grid = backorder_grid(hz, Grid.regular(40, -60, 120, 41, 51))
    small = backorder_dp(hz, BackorderParams(1.0), grid)
    big = backorder_dp(hz, BackorderParams(5000.0), grid)
    # period N's levels, read on the x = 0 slice: the order-up-to level at
    # the poorest node is the borrow level, at the richest the deposit level
    ix = int(np.flatnonzero(grid.x_nodes == 0.0)[0])

    def bands(solution):
        z = solution.policy(hz.n_periods).order_up_to[ix]
        return z[0], z[-1]

    (small_borrow, small_deposit), (big_borrow, big_deposit) = bands(small), bands(big)
    # both ends lie in their regimes: worth below the borrow level, above the deposit level
    assert grid.y_nodes[0] < min(small_borrow, big_borrow)
    assert grid.y_nodes[-1] > max(small_deposit, big_deposit)
    # terminal fractiles at effective price p + b rise toward 1
    assert big_deposit >= small_deposit
    assert big_deposit >= BANDS.deposit
    assert big_borrow >= BANDS.borrow


def test_backorder_policy_trichotomy_structure():
    hz = make_horizon("u0_20", 3)
    grid = backorder_grid(hz, Grid.regular(40, -60, 120, 41, 51))
    sol = backorder_dp(hz, BackorderParams(200.0), grid)
    # classify the x = 0 slice: borrow where the target exceeds net worth by
    # more than a cell, deposit where it falls short, hold in between
    ix = int(np.argmin(np.abs(grid.x_nodes)))
    worth = grid.x_nodes[ix] + grid.y_nodes
    target = sol.policy(1).order_up_to[ix, :]
    cell = float(np.max(np.diff(grid.y_nodes)))
    regime = np.where(target > worth + cell, "borrow",
                      np.where(target < worth - cell, "deposit", "hold"))
    # borrow at the bottom, deposit at the top, monotone regime pattern
    assert regime[0] == "borrow"
    assert regime[-1] == "deposit"
    switches = sum(1 for a, b in zip(regime, regime[1:]) if a != b)
    assert switches <= 2
    # borrow-side targets exceed worth; deposit-side targets fall short
    assert np.all(target[regime == "borrow"] > worth[regime == "borrow"])
    assert np.all(target[regime == "deposit"] < worth[regime == "deposit"])


def test_limit_and_penalty_validation():
    with pytest.raises(ValueError):
        LoanLimit(0.0)
    with pytest.raises(ValueError):
        BackorderParams(-1.0)
    assert LoanLimit(5000.0).units(1000.0) == 5.0


@pytest.mark.parametrize("solver", [
    lambda hz, g: piecewise_dp(hz, PiecewiseRateSchedule((0.15, 0.30), (5000.0,), (0.01,)), g),
    lambda hz, g: loan_limited_dp(hz, LoanLimit(2000.0), g),
    lambda hz, g: backorder_dp(hz, BackorderParams(50.0), backorder_grid(hz, g)),
], ids=["piecewise", "loan_limited", "backorder"])
def test_reports_refuse_an_extensions_solve(small_grid, solver):
    # the reports' myopic policies, brackets and relaxation are the base
    # model's; an extension's solve would be measured against them unsaid
    solution = solver(make_horizon("u0_20", 3), small_grid)
    for report in (lambda: cs.compare_bounds(solution, [(0.0, 0.0)],
                                             ("myopic-lower", "myopic-upper")),
                   lambda: cs.compare_bounds(solution, [(0.0, 0.0)],
                                             ("myopic-upper", "selling-back")),
                   lambda: solve_thresholds(solution),
                   lambda: cs.ThresholdTable.from_solution(solution)):
        with pytest.raises(ValueError, match="needs a solve of the base model.*tiered "
                                             "rates, a loan limit or backorders"):
            report()
