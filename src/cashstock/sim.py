"""Monte Carlo policy evaluation.

This module only simulates. The same policies' values on the grid, and
their gaps to the optimum, are `bounds.compare_bounds`' myopic bounds,
which the tests check these simulations against.

Paths share one stream of uniforms per (seed, path, period), so competing
policies are evaluated under common random numbers and gap estimates stay
low-variance. Demands are the uniforms inverted through each period's
`Demand.quantile`. The per-sample searches, atom demand's quantile
and the threshold policy's place on the worth axis (`bands_at`), are
bucket-table lookups that return what np.searchsorted returns.

`run_policies` walks the paths in blocks of `BLOCK_PATHS`, small enough
that a block's states and demands stay in cache. Each block's uniforms are
drawn once, in stream order, and turned into demand once per period; every
policy then advances over that same block. The draws, and so every result,
are those of one `random((paths, N))` call, whatever the block size, and
memory holds one block plus one terminal wealth per path and policy. A
period's step picks its branches by min and max (`optimal_order`, the bank
term of `_next_state`), not by masks: np.where costs over ten times an
add per element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import single_period
from .dp import _next_state
from .model import HorizonSpec, State
from .thresholds import ThresholdTable, policy_from_thresholds


@dataclass(frozen=True)
class SimResult:
    mean: float
    half_width: float   # 1.96 sd / sqrt(paths)
    paths: int
    label: str

    def ci(self) -> tuple[float, float]:
        return (self.mean - self.half_width, self.mean + self.half_width)


class Policy:
    """Order-quantity rule q(n, x, y); vectorized over states."""

    label = "policy"

    def order(self, n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, n, x, y):
        return self.order(n, x, y)


class ThresholdPolicy(Policy):
    def __init__(self, table: ThresholdTable, label: str = "two-threshold"):
        self.table = table
        self.label = label

    def order(self, n, x, y):
        return policy_from_thresholds(self.table, x, y, n)


class MyopicPolicy(Policy):
    """Single-period rule with the modified salvage convention per period."""

    def __init__(self, horizon: HorizonSpec, which: str):
        self.pairs = single_period.myopic_bands(horizon, which)
        self.label = f"myopic-{which}"

    def order(self, n, x, y):
        return single_period.optimal_order(x, y, self.pairs[n - 1])


#: paths simulated together. At 2^14 a per-path array is 128 KiB, so a
#: step's temporaries stay in cache. On simulate-zip (2M paths, N = 6, three
#: policies) 2^14 ran faster than 2^15 and 2^16, and than 2^13, whose twice
#: as many numpy calls cost more than its cache saves (see README)
BLOCK_PATHS = 1 << 14


def run_policies(horizon: HorizonSpec, policies, initial: State, paths: int,
                 seed: int) -> list[SimResult]:
    """Simulate terminal wealth under each policy from `initial` on the same
    demand paths (common random numbers); one result per policy, in order.
    Deterministic for a fixed seed.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    n_periods = horizon.n_periods
    demands = [horizon.demand_in(n) for n in range(1, n_periods + 1)]
    rng = np.random.default_rng(seed)
    wealth = np.empty((len(policies), paths))
    for start in range(0, paths, BLOCK_PATHS):
        m = min(BLOCK_PATHS, paths - start)
        u = rng.random((m, n_periods)).T
        d = [dem.quantile(u_n) for dem, u_n in zip(demands, u)]
        for k, policy in enumerate(policies):
            x = np.full(m, float(initial.x))
            y = np.full(m, float(initial.y))
            for n in range(1, n_periods + 1):
                q = np.asarray(policy(n, x, y), dtype=float)
                if q.min() < -1e-9:
                    raise ValueError(f"period {n}: policy {_label(policy)!r} emitted a "
                                     "negative order quantity")
                # q may be the policy's own array, so z is a new one
                z = np.maximum(q, 0.0)
                z += x
                # after the last period y is terminal wealth in currency
                x, y = _next_state(z, x + y, d[n - 1], n, horizon)
            wealth[k, start:start + m] = y
    results = []
    for policy, w in zip(policies, wealth):
        mean = float(np.mean(w))
        # np.std(w, ddof=1) step by step, in place: its temporary copy of w
        # would otherwise set the peak memory of a large run
        np.square(np.subtract(w, mean, out=w), out=w)
        sd = np.sqrt(w.sum() / (paths - 1)) if paths > 1 else np.inf
        half = float(1.96 * sd / np.sqrt(paths))
        results.append(SimResult(mean, half, paths, _label(policy)))
    return results


def _label(policy) -> str:
    return getattr(policy, "label", "policy")

