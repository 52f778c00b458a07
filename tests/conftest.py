import pytest

import cashstock as cs
from cashstock.bounds import default_worth_grid, selling_back_dp

#: baseline economics shared by the numerical studies
BASE_ECON = dict(price=2000.0, cost=1000.0, holding=500.0, deposit_rate=0.01, loan_rate=0.15)
SALVAGE = 600.0


#: "u*" keys are continuous on [lo, hi] (criteria 3-8 and the module suites);
#: "iu*" keys are integer-valued, the instance of the reference tables
DEMANDS = {
    "u0_20": cs.Uniform(0, 20),
    "u2_18": cs.Uniform(2, 18),
    "u4_16": cs.Uniform(4, 16),
    "u6_14": cs.Uniform(6, 14),
    "zip18": cs.ZeroInflatedPoisson(0.18, 10),
    "zip09": cs.ZeroInflatedPoisson(0.09, 10),
    "zip02": cs.ZeroInflatedPoisson(0.02, 10),
    "zip00": cs.ZeroInflatedPoisson(0.0, 10),
    "iu0_20": cs.integer_uniform(0, 20),
    "iu2_18": cs.integer_uniform(2, 18),
    "iu4_16": cs.integer_uniform(4, 16),
    "iu6_14": cs.integer_uniform(6, 14),
}


@pytest.fixture(scope="session")
def params():
    return cs.PeriodParams(**BASE_ECON)


@pytest.fixture(scope="session")
def desk_grid():
    return cs.Grid.regular(40, -60, 120, 161, 201)


@pytest.fixture(scope="session")
def small_grid():
    return cs.Grid.regular(40, -60, 120, 41, 51)


def make_horizon(demand_key: str, n_periods: int) -> cs.HorizonSpec:
    return cs.HorizonSpec.stationary(
        n_periods, cs.PeriodParams(**BASE_ECON), DEMANDS[demand_key], SALVAGE)


#: the integer-uniform instances are solved once at this horizon; every
#: shorter horizon of theirs is read as a tail (DPSolution.tail)
TAIL_HORIZON = 12


class SolveCache:
    """Session-wide cache of desk-scale tables keyed by (demand, N).

    The "iu*" instances, which the reference tables read at N = 6 and 12,
    are solved once at TAIL_HORIZON: the N-period solution, myopic policy
    values and selling-back tables are the last N periods of those.
    """

    def __init__(self, grid):
        self.grid = grid
        self._tables = {}

    def _solved(self, what: str, demand_key: str, n_periods: int, build):
        """`build`'s tables for the horizon that holds (demand, N) as a
        tail, and the offset of that tail in them."""
        n = max(n_periods, TAIL_HORIZON) if demand_key.startswith("iu") else n_periods
        key = (what, demand_key, n)
        if key not in self._tables:
            self._tables[key] = build(make_horizon(demand_key, n))
        return self._tables[key], n - n_periods

    def solution(self, demand_key: str, n_periods: int) -> cs.DPSolution:
        solution, k = self._solved("dp", demand_key, n_periods,
                                   lambda hz: cs.backward_induct(hz, self.grid))
        return solution.tail(k)

    def myopic_value(self, demand_key: str, n_periods: int, which: str):
        tables, k = self._solved(
            which, demand_key, n_periods,
            lambda hz: cs.policy_value_tables(hz, self.grid, cs.MyopicPolicy(hz, which)))
        return tables[k]

    def selling_back(self, demand_key: str, n_periods: int) -> list[cs.WorthValueTable]:
        tables, k = self._solved(
            "selling_back", demand_key, n_periods,
            lambda hz: selling_back_dp(hz, default_worth_grid(self.grid)))
        return tables[k:]


@pytest.fixture(scope="session")
def solve_cache(desk_grid):
    return SolveCache(desk_grid)
