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

`run_policies` does per path only what varies by path:

- once per run: each policy's period-1 order, taken at the one state
  `initial` that every path starts from (a `Policy` is an elementwise
  rule), and the block buffers;
- once per block of `BLOCK_PATHS` paths, small enough that a block's
  states and demands stay in cache: the block's uniforms, drawn in stream
  order into one reused buffer and laid out period by period, so that each
  period's `quantile` reads them contiguously, and their demands;
- per path: the period-1 step, which broadcasts each policy's order over
  the block's demands, and from period 2 on each policy's order and step,
  whose state is written into one pair of block buffers.

The draws, and so every result, are those of one `random((paths, N))`
call, whatever the block size, and memory holds one block plus one
terminal wealth per path and policy. A period's step picks its branches by
min and max (`optimal_order`, the bank term of `_next_state`), not by
masks: np.where costs over ten times an add per element. The final
period's threshold levels are constant in net worth and are read without
a lookup (`bands_at`).
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
    """Order-quantity rule q(n, x, y); vectorized over states, elementwise:
    a state's order depends on that state alone, so `run_policies` asks for
    period 1's order at the initial state once."""

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
    # every path starts at `initial`, so each policy's period-1 order is one
    # state's, and the period-1 step broadcasts it over the block's demands
    x1, y1 = np.array([float(initial.x)]), np.array([float(initial.y)])
    xi1 = x1 + y1
    z1 = [_order_up_to(policy, 1, x1, y1) for policy in policies]
    rng = np.random.default_rng(seed)
    width = min(BLOCK_PATHS, paths)
    draws = np.empty((width, n_periods))
    uniforms = np.empty(n_periods * width)
    x_block, y_block = np.empty(width), np.empty(width)
    wealth = np.empty((len(policies), paths))
    for start in range(0, paths, BLOCK_PATHS):
        m = min(BLOCK_PATHS, paths - start)
        # drawn path by path, in stream order, then laid out period by period
        rng.random(out=draws[:m])
        u = uniforms[:n_periods * m].reshape(n_periods, m)
        np.copyto(u, draws[:m].T)
        d = [dem.quantile(u_n) for dem, u_n in zip(demands, u)]
        x, y = x_block[:m], y_block[:m]
        for k, policy in enumerate(policies):
            _next_state(z1[k], xi1, d[0], 1, horizon, out=(x, y))
            for n in range(2, n_periods + 1):
                # z and x + y are new arrays, so the step may overwrite x, y
                z = _order_up_to(policy, n, x, y)
                _next_state(z, x + y, d[n - 1], n, horizon, out=(x, y))
            # after the last period y is terminal wealth in currency
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


def _order_up_to(policy, n: int, x, y) -> np.ndarray:
    """x + q, q the policy's order at (x, y), raised to 0 where it is a
    rounding below 0; a clearly negative order raises ValueError."""
    q = np.asarray(policy(n, x, y), dtype=float)
    if q.min() < -1e-9:
        raise ValueError(f"period {n}: policy {_label(policy)!r} emitted a "
                         "negative order quantity")
    # q may be the policy's own array, so z is a new one
    z = np.maximum(q, 0.0)
    z += x
    return z


def _label(policy) -> str:
    return getattr(policy, "label", "policy")

