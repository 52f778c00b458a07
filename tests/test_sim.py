import numpy as np
import pytest

import cashstock as cs
from cashstock.dp import _next_state
from cashstock.sim import (
    BLOCK_PATHS,
    MyopicPolicy,
    Policy,
    ThresholdPolicy,
    run_policies,
)

from bisection import solve_thresholds
from conftest import BASE_ECON, SALVAGE, make_horizon

PARAMS = cs.PeriodParams(**BASE_ECON)


class NoOrderPolicy(Policy):
    label = "no-order"

    def order(self, n, x, y):
        return np.zeros_like(x)


class NegativePolicy(Policy):
    def order(self, n, x, y):
        return np.full_like(x, -1.0)


def test_pure_compounding_with_zero_demand():
    # q = 0 forever, no demand: cash just compounds at the deposit rate
    demand = cs.DiscreteEmpirical((0.0,), (1.0,))
    hz = cs.HorizonSpec.stationary(5, cs.PeriodParams(**BASE_ECON), demand, SALVAGE)
    res = run_policies(hz, [NoOrderPolicy()], cs.State(0.0, 10.0), 64, seed=0)[0]
    assert res.mean == pytest.approx(10.0 * 1000.0 * 1.01**5, rel=1e-12)
    assert res.half_width == pytest.approx(0.0, abs=1e-9)


def test_single_period_optimum_from_empty_state():
    # with N = 1 the lower myopic policy is the plain single-period rule
    hz = make_horizon("u0_20", 1)
    res = run_policies(hz, [MyopicPolicy(hz, "lower")], cs.State(0.0, 0.0), 400_000, seed=5)[0]
    # closed-form expectation 5160.71
    assert abs(res.mean - 5160.714285714286) <= res.half_width


def test_determinism_and_seeding():
    hz = make_horizon("u0_20", 3)
    pol = MyopicPolicy(hz, "lower")
    a = run_policies(hz, [pol], cs.State(0.0, 0.0), 5000, seed=11)[0]
    b = run_policies(hz, [pol], cs.State(0.0, 0.0), 5000, seed=11)[0]
    c = run_policies(hz, [pol], cs.State(0.0, 0.0), 5000, seed=12)[0]
    assert a.mean == b.mean and a.half_width == b.half_width
    assert a.mean != c.mean
    assert a.half_width > 0
    assert a.ci()[0] < a.mean < a.ci()[1]


def test_negative_order_rejected():
    hz = make_horizon("u0_20", 2)
    with pytest.raises(ValueError):
        run_policies(hz, [NegativePolicy()], cs.State(0.0, 0.0), 10, seed=0)[0]
    with pytest.raises(ValueError):
        run_policies(hz, [NoOrderPolicy()], cs.State(0.0, 0.0), 0, seed=0)[0]


def test_common_random_numbers_across_policies():
    # same seed, same demand draws: the value gap is much tighter than the CI
    hz = make_horizon("u0_20", 4)
    lo = run_policies(hz, [MyopicPolicy(hz, "lower")], cs.State(0.0, 0.0), 50_000, seed=2)[0]
    up = run_policies(hz, [MyopicPolicy(hz, "upper")], cs.State(0.0, 0.0), 50_000, seed=2)[0]
    assert up.mean > lo.mean  # better policy wins on CRN paths


@pytest.mark.parametrize("key", ["u0_20", "zip18", "iu0_20"])
@pytest.mark.parametrize("levels", [lambda sol: solve_thresholds(sol)[0],
                                    cs.ThresholdTable.from_solution],
                         ids=["bisection", "from_solution"])
def test_threshold_policy_simulation_matches_dp(small_grid, levels, key):
    # the bisection's levels, and those `simulate` ships, read off the DP
    hz = make_horizon(key, 3)
    sol = cs.backward_induct(hz, small_grid)
    table = levels(sol)
    res = run_policies(hz, [ThresholdPolicy(table)], cs.State(0.0, 0.0), 400_000, seed=13)[0]
    v = float(sol.value(1)(0.0, 0.0))
    assert abs(res.mean - v) <= res.half_width + 0.01 * abs(v)


@pytest.fixture(scope="module")
def three_policies(small_grid):
    hz = make_horizon("u0_20", 3)
    table, _ = solve_thresholds(cs.backward_induct(hz, small_grid))
    return hz, [ThresholdPolicy(table), MyopicPolicy(hz, "lower"), MyopicPolicy(hz, "upper")]


def whole_array_run(horizon, policy, initial, paths, seed):
    """One policy on all paths at once, from one (paths, N) draw: the
    unblocked simulation that the blocked one must reproduce exactly."""
    u = np.random.default_rng(seed).random((paths, horizon.n_periods))
    x, y = np.full(paths, float(initial.x)), np.full(paths, float(initial.y))
    for n in range(1, horizon.n_periods + 1):
        q = np.maximum(policy(n, x, y), 0.0)
        x, y = _next_state(x + q, x + y, horizon.demand_in(n).quantile(u[:, n - 1]), n, horizon)
    sd = np.std(y, ddof=1) if paths > 1 else np.inf  # one path: no spread estimate
    return float(np.mean(y)), float(1.96 * sd / np.sqrt(paths))


def assert_equals_separate_runs(hz, policies, paths):
    start = cs.State(2.0, 5.0)
    together = run_policies(hz, policies, start, paths, seed=31)
    assert [r.label for r in together] == ["two-threshold", "myopic-lower", "myopic-upper"]
    for policy, res in zip(policies, together):
        alone = run_policies(hz, [policy], start, paths, seed=31)[0]
        assert res == alone  # mean, half_width, paths and label, bit for bit
        assert (res.mean, res.half_width) == whole_array_run(hz, policy, start, paths, 31)


@pytest.mark.parametrize("paths", [1, 1000, BLOCK_PATHS - 1, BLOCK_PATHS, BLOCK_PATHS + 1,
                                   2 * BLOCK_PATHS + 3])
def test_run_policies_equals_separate_runs(three_policies, paths):
    assert_equals_separate_runs(*three_policies, paths)


@pytest.mark.parametrize("paths", [1, 1000, BLOCK_PATHS + 1])
def test_run_policies_equals_separate_runs_in_one_period(small_grid, paths):
    # N = 1: the period-1 step is the whole run, and the threshold policy
    # reads the final period's constant levels
    hz = make_horizon("u0_20", 1)
    table = cs.ThresholdTable.from_solution(cs.backward_induct(hz, small_grid))
    policies = [ThresholdPolicy(table), MyopicPolicy(hz, "lower"), MyopicPolicy(hz, "upper")]
    assert_equals_separate_runs(hz, policies, paths)


class RecordingPolicy(Policy):
    """A policy that records the states it is asked to order at."""

    def __init__(self, inner):
        self.inner, self.label, self.seen = inner, inner.label, []

    def order(self, n, x, y):
        self.seen.append((n, np.array(x), np.array(y)))
        return self.inner(n, x, y)


def test_period_one_orders_once_per_policy(three_policies):
    # every path starts at the initial state: period 1 asks each policy once,
    # at that one state, and later periods at each block's states
    hz, policies = three_policies
    recording = [RecordingPolicy(p) for p in policies]
    paths = BLOCK_PATHS + 5
    results = run_policies(hz, recording, cs.State(2.0, 5.0), paths, seed=31)
    for policy, rec, res in zip(policies, recording, results):
        first, later = rec.seen[0], rec.seen[1:]
        assert first[0] == 1 and first[1].tolist() == [2.0] and first[2].tolist() == [5.0]
        assert [(n, len(x), len(y)) for n, x, y in later] == [
            (n, m, m) for m in (BLOCK_PATHS, 5) for n in range(2, hz.n_periods + 1)]
        assert (res.mean, res.half_width) == whole_array_run(hz, policy, cs.State(2.0, 5.0),
                                                             paths, 31)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_negative_order_rejected_anywhere_in_the_list(three_policies, position):
    hz, policies = three_policies
    mixed = list(policies[:2])
    mixed.insert(position, NegativePolicy())
    with pytest.raises(ValueError, match="negative order quantity"):
        run_policies(hz, mixed, cs.State(0.0, 0.0), 10, seed=0)


def test_zip_simulation_matches_grid_values(small_grid):
    # atom demand: ZIP(0.18, 10), all three policies on one set of paths
    hz = make_horizon("zip18", 3)
    sol = cs.backward_induct(hz, small_grid)
    table, _ = solve_thresholds(sol)
    upper = MyopicPolicy(hz, "upper")
    thr, _, up = run_policies(hz, [ThresholdPolicy(table), MyopicPolicy(hz, "lower"), upper],
                              cs.State(0.0, 0.0), 400_000, seed=17)
    v = float(sol.value(1)(0.0, 0.0))
    assert abs(thr.mean - v) <= thr.half_width + 0.01 * abs(v)
    v_up = float(cs.policy_value_tables(hz, small_grid, upper)[0](0.0, 0.0))
    assert abs(up.mean - v_up) <= up.half_width + 0.01 * abs(v_up)
