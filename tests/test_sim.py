import numpy as np
import pytest

import cashstock as cs
from cashstock.dp import _next_state
from cashstock.sim import (
    BLOCK_PATHS,
    MAX_HISTORIES,
    MyopicPolicy,
    Policy,
    ThresholdPolicy,
    _terminal_wealth,
    history_periods,
    run_policies,
)

from bisection import solve_thresholds
from conftest import BASE_ECON, DEMANDS, SALVAGE, make_horizon

PARAMS = cs.PeriodParams(**BASE_ECON)

#: the streamed mean and half-width against np.mean and np.std(ddof=1) of
#: the same terminal wealth, relative: merging blocks rounds differently
#: from one whole-array sum, by a few ulps per block
MERGE_REL = 1e-12


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


def test_negative_initial_stock_rejected():
    # under lost sales stock is never negative, so no path may start there
    hz = make_horizon("u0_20", 2)
    with pytest.raises(ValueError, match="initial stock -5 is negative"):
        run_policies(hz, [NoOrderPolicy()], cs.State(-5.0, 0.0), 10, seed=0)


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
    """One policy on all paths at once, from one (paths, N) draw, every
    period path by path: the terminal wealth that the blocked simulation,
    history tree and all, must reproduce exactly."""
    u = np.random.default_rng(seed).random((paths, horizon.n_periods))
    x, y = np.full(paths, float(initial.x)), np.full(paths, float(initial.y))
    for n in range(1, horizon.n_periods + 1):
        q = np.maximum(policy(n, x, y), 0.0)
        x, y = _next_state(x + q, x + y, horizon.demand_in(n).quantile(u[:, n - 1]), n, horizon)
    return y


def blocked_wealth(horizon, policies, initial, paths, seed):
    """Each policy's terminal wealth on every path, joined from the blocks
    that `run_policies` reduces."""
    parts = [[] for _ in policies]
    for k, wealth in _terminal_wealth(horizon, policies, initial, paths, seed):
        parts[k].append(wealth.copy())
    return [np.concatenate(part) for part in parts]


def assert_matches_path_walk(hz, policies, paths, start=cs.State(2.0, 5.0), seed=31):
    together = run_policies(hz, policies, start, paths, seed)
    assert [r.label for r in together] == [policy.label for policy in policies]
    for policy, res, wealth in zip(policies, together,
                                   blocked_wealth(hz, policies, start, paths, seed)):
        alone = run_policies(hz, [policy], start, paths, seed)[0]
        assert res == alone  # mean, half_width, paths and label, bit for bit
        oracle = whole_array_run(hz, policy, start, paths, seed)
        assert wealth.tobytes() == oracle.tobytes()  # path by path, bit for bit
        assert res.mean == pytest.approx(np.mean(oracle), rel=MERGE_REL)
        sd = np.std(oracle, ddof=1) if paths > 1 else np.inf  # one path: no spread
        assert res.half_width == pytest.approx(1.96 * sd / np.sqrt(paths), rel=MERGE_REL)


@pytest.mark.parametrize("paths", [1, 1000, BLOCK_PATHS - 1, BLOCK_PATHS, BLOCK_PATHS + 1,
                                   2 * BLOCK_PATHS + 3])
def test_run_policies_equals_separate_runs(three_policies, paths):
    hz, policies = three_policies
    assert [p.label for p in policies] == ["two-threshold", "myopic-lower", "myopic-upper"]
    assert_matches_path_walk(hz, policies, paths)


@pytest.mark.parametrize("paths", [1, 1000, BLOCK_PATHS + 1])
def test_run_policies_equals_separate_runs_in_one_period(small_grid, paths):
    # N = 1: the period-1 step is the whole run, and the threshold policy
    # reads the final period's constant levels
    hz = make_horizon("u0_20", 1)
    table = cs.ThresholdTable.from_solution(cs.backward_induct(hz, small_grid))
    policies = [ThresholdPolicy(table), MyopicPolicy(hz, "lower"), MyopicPolicy(hz, "upper")]
    assert_matches_path_walk(hz, policies, paths)


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
    run_policies(hz, recording, cs.State(2.0, 5.0), paths, seed=31)
    for rec in recording:
        first, later = rec.seen[0], rec.seen[1:]
        assert first[0] == 1 and first[1].tolist() == [2.0] and first[2].tolist() == [5.0]
        assert [(n, len(x), len(y)) for n, x, y in later] == [
            (n, m, m) for m in (BLOCK_PATHS, 5) for n in range(2, hz.n_periods + 1)]
    assert_matches_path_walk(hz, policies, paths)


THREE_ATOMS = cs.DiscreteEmpirical((2.0, 9.0, 15.0), (0.3, 0.5, 0.2))

#: per-period demands, of which a horizon takes the first N: atoms
#: throughout, atom periods before a continuous one, a continuous period first
DEPTH_DEMANDS = {
    "zip18": [DEMANDS["zip18"]] * 4,
    "iu0_20": [DEMANDS["iu0_20"]] * 4,
    "three_atoms": [THREE_ATOMS] * 4,
    "atoms_then_uniform": [THREE_ATOMS, DEMANDS["iu0_20"], DEMANDS["u0_20"], DEMANDS["zip18"]],
    "uniform_first": [DEMANDS["u0_20"], THREE_ATOMS, DEMANDS["zip18"], DEMANDS["iu0_20"]],
}
DEPTH_PATHS = (1, 7, 40, 1000, BLOCK_PATHS + 1, 70_000)


def depth_horizon(key, n_periods):
    return cs.HorizonSpec([PARAMS] * n_periods, DEPTH_DEMANDS[key][:n_periods], SALVAGE)


@pytest.mark.parametrize("n_periods", [1, 2, 3, 4])
@pytest.mark.parametrize("key", list(DEPTH_DEMANDS))
def test_run_policies_matches_the_path_walk_at_every_depth(small_grid, key, n_periods):
    # the tree's first d periods, then the per-path rest, against the
    # path-by-path walk: every path's terminal wealth, bit for bit
    hz = depth_horizon(key, n_periods)
    table = cs.ThresholdTable.from_solution(cs.backward_induct(hz, small_grid))
    policies = [ThresholdPolicy(table), MyopicPolicy(hz, "lower"), MyopicPolicy(hz, "upper")]
    for paths in DEPTH_PATHS:
        assert_matches_path_walk(hz, policies, paths)


@pytest.mark.parametrize("n_periods", [1, 2, 3, 4])
def test_the_path_walk_cases_reach_every_depth(n_periods):
    depths = {history_periods(depth_horizon(key, n_periods), paths)
              for key in DEPTH_DEMANDS for paths in DEPTH_PATHS}
    assert depths == set(range(n_periods))


def test_history_periods():
    # the most leading atom periods whose histories fit in both the paths
    # and MAX_HISTORIES, never the last period
    zip6 = make_horizon("zip18", 6)
    assert [history_periods(zip6, paths) for paths in
            (1, 39, 40, 1599, 1600, 63_999, 64_000, 2_000_000)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert 40**3 <= MAX_HISTORIES < 40**4
    assert history_periods(make_horizon("zip18", 2), 2_000_000) == 1
    assert history_periods(make_horizon("u0_20", 6), 2_000_000) == 0
    assert history_periods(depth_horizon("three_atoms", 4), 1000) == 3
    assert history_periods(depth_horizon("atoms_then_uniform", 4), 2_000_000) == 2
    assert history_periods(depth_horizon("uniform_first", 4), 2_000_000) == 0


def test_tree_periods_order_once_per_history():
    # ZIP(0.18, 10) has 40 atoms, so at 200,000 paths periods 1-3 are
    # stepped once per history and period 4's order is taken at each of the
    # 64,000 histories' states; only periods 5 and 6 run per path
    hz = make_horizon("zip18", 6)
    paths = 200_000
    watched = RecordingPolicy(MyopicPolicy(hz, "upper"))
    run_policies(hz, [watched], cs.State(0.0, 0.0), paths, seed=3)
    sizes = [(n, len(x)) for n, x, _ in watched.seen]
    assert sizes[:4] == [(1, 1), (2, 40), (3, 1600), (4, 64_000)]
    assert sum(size for _, size in sizes) == 1 + 40 + 1600 + 64_000 + 2 * paths
    assert {n for n, _ in sizes[4:]} == {5, 6}


class NegativeInPeriodTwo(Policy):
    """Orders 5 units in period 1 and nothing later, but -1 in period 2 at
    the stock levels `short` picks (all of them by default)."""

    def __init__(self, short=lambda x: np.ones(np.shape(x), dtype=bool)):
        self.short = short

    def order(self, n, x, y):
        if n == 1:
            return np.full_like(x, 5.0)
        return np.where((n == 2) & self.short(x), -1.0, 0.0)


def test_negative_order_rejected_at_any_depth():
    # a period-2 order below 0 raises whether period 2 runs per path (d = 0)
    # or on the tree (d >= 2)
    hz = depth_horizon("three_atoms", 3)
    for paths, depth in ((1, 0), (9, 2)):
        assert history_periods(hz, paths) == depth
        with pytest.raises(ValueError, match="period 2: .* negative order quantity"):
            run_policies(hz, [NegativeInPeriodTwo()], cs.State(0.0, 0.0), paths, seed=0)


def test_tree_checks_histories_no_path_draws():
    # the tree asks the policy at every history's state, so an order below 0
    # where period 1's demand of 30 took all 5 units, which no drawn path
    # meets, raises with the tree only
    rare = cs.DiscreteEmpirical((0.0, 30.0), (1.0 - 1e-9, 1e-9))
    hz = cs.HorizonSpec([PARAMS] * 3, [rare] * 3, SALVAGE)
    policy = NegativeInPeriodTwo(lambda x: x < 1.0)
    assert history_periods(hz, 1) == 0 and history_periods(hz, 7) == 2
    run_policies(hz, [policy], cs.State(0.0, 0.0), 1, seed=0)
    with pytest.raises(ValueError, match="period 2: .* negative order quantity"):
        run_policies(hz, [policy], cs.State(0.0, 0.0), 7, seed=0)


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
