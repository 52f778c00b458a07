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

`run_policies` does per path only what varies by path. A `Policy` is an
elementwise rule and every path starts at `initial`, so where the leading
periods' demands have finitely many atoms, K_n in period n, a path's state
after d periods is one of K_1 ... K_d, fixed by its d atom indices, its
demand history. So:

- once per run: the history tree (`_history_tree`). Each policy steps its
  first d periods (`history_periods`) once per history, broadcast over
  states x atoms, and takes its period d + 1 order at every history's
  state. With continuous demand in period 1, d = 0 and the tree is the one
  state `initial`;
- once per block of `BLOCK_PATHS` paths, small enough that a block's
  states and demands stay in cache: the block's uniforms, drawn in stream
  order into one reused buffer and laid out period by period, so that each
  period's search reads them contiguously; each path's history index, from
  its first d uniforms (`_Atoms.atom_index`), and its later demands;
- per path: the period d + 1 step, from the order and net worth gathered
  at the path's history, and from period d + 2 on each policy's order and
  step, whose state is written into one pair of block buffers.

Each path's state meets the same operations in the same order as in a
path-by-path walk, so its terminal wealth is bit for bit the same. The
draws, and so every result, are those of one `random((paths, N))` call,
whatever the block size. Each block's terminal wealth is reduced to its
count, mean and sum of squared deviations, which are merged across blocks
by Chan, Golub and LeVeque's (1979) pairwise update, so memory holds one
block plus the tree. A period's step picks its branches by min and max
(`optimal_order`, the bank term of `_next_state`), not by masks: np.where
costs over ten times an add per element. The final period's threshold
levels are constant in net worth and are read without a lookup
(`bands_at`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import single_period
from .demand import _Atoms
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
    a tree period's order once per demand history (`history_periods`).

    A clearly negative order raises ValueError at any state asked, and the
    tree asks at every history's state, including those no drawn path
    reaches: with atom demand a policy may raise that a path-by-path walk
    of the same paths would not."""

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

#: the most demand histories `run_policies` steps as a tree: 1 MB of states
#: per policy at most, whatever the number of paths
MAX_HISTORIES = 4 * BLOCK_PATHS


def history_periods(horizon: HorizonSpec, paths: int) -> int:
    """d, the number of leading periods `run_policies` steps once per demand
    history: the most leading atom-demand periods, never the last period,
    whose histories number at most both `paths` and MAX_HISTORIES. It is 0
    when period 1's demand is continuous."""
    histories, depth = 1, 0
    for n in range(1, horizon.n_periods):
        demand = horizon.demand_in(n)
        if not isinstance(demand, _Atoms):
            break
        histories *= len(demand.atoms)
        if histories > min(paths, MAX_HISTORIES):
            break
        depth = n
    return depth


def run_policies(horizon: HorizonSpec, policies, initial: State, paths: int,
                 seed: int) -> list[SimResult]:
    """Simulate terminal wealth under each policy from `initial` on the same
    demand paths (common random numbers); one result per policy, in order.
    Deterministic for a fixed seed; a negative initial stock raises.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    # per policy: paths so far, their mean and their sum of squared deviations
    stats = [(0, 0.0, 0.0)] * len(policies)
    for k, wealth in _terminal_wealth(horizon, policies, initial, paths, seed):
        stats[k] = _merge(stats[k], wealth)
    results = []
    for policy, (_, mean, m2) in zip(policies, stats):
        sd = np.sqrt(m2 / (paths - 1)) if paths > 1 else np.inf
        results.append(SimResult(mean, float(1.96 * sd / np.sqrt(paths)), paths,
                                 _label(policy)))
    return results


def _merge(stats, wealth):
    """(count, mean, M2) of the paths in `stats` and those in `wealth`: the
    pairwise update of Chan, Golub and LeVeque (1979)."""
    count, mean, m2 = stats
    m = len(wealth)
    block_mean = float(np.mean(wealth))
    dev = wealth - block_mean
    total = count + m
    delta = block_mean - mean
    # the first block's share is 1.0, so its mean and M2 pass exactly
    return (total, mean + delta * (m / total),
            m2 + float(dev @ dev) + delta * delta * count * (m / total))


def _terminal_wealth(horizon: HorizonSpec, policies, initial: State, paths: int,
                     seed: int):
    """Yield (k, wealth): policy k's terminal wealth on one block's paths,
    block by block, in path order. `wealth` is a buffer that the next step
    overwrites. A negative initial stock raises."""
    if initial.x < 0:  # under lost sales stock is never negative
        raise ValueError(f"initial stock {initial.x:g} is negative")
    n_periods = horizon.n_periods
    demands = [horizon.demand_in(n) for n in range(1, n_periods + 1)]
    depth = history_periods(horizon, paths)
    trees = [_history_tree(horizon, policy, initial, depth) for policy in policies]
    rng = np.random.default_rng(seed)
    width = min(BLOCK_PATHS, paths)
    draws = np.empty((width, n_periods))
    uniforms = np.empty(n_periods * width)
    x_block, y_block = np.empty(width), np.empty(width)
    for start in range(0, paths, BLOCK_PATHS):
        m = min(BLOCK_PATHS, paths - start)
        # drawn path by path, in stream order, then laid out period by period
        rng.random(out=draws[:m])
        u = uniforms[:n_periods * m].reshape(n_periods, m)
        np.copyto(u, draws[:m].T)
        # each path's history, (a_1..a_d) at sum a_n K_(n+1) ... K_d; with
        # d = 0 the one history broadcasts over the block
        history = np.zeros(1, dtype=np.intp)
        for dem, u_n in zip(demands[:depth], u):
            history = history * len(dem.atoms) + dem.atom_index(u_n)
        d = [dem.quantile(u_n) for dem, u_n in zip(demands[depth:], u[depth:])]
        x, y = x_block[:m], y_block[:m]
        for k, (policy, (z_tree, xi_tree)) in enumerate(zip(policies, trees)):
            _next_state(z_tree.take(history), xi_tree.take(history), d[0], depth + 1,
                        horizon, out=(x, y))
            for n in range(depth + 2, n_periods + 1):
                # z and x + y are new arrays, so the step may overwrite x, y
                z = _order_up_to(policy, n, x, y)
                _next_state(z, x + y, d[n - depth - 1], n, horizon, out=(x, y))
            # after the last period y is terminal wealth in currency
            yield k, y


def _history_tree(horizon: HorizonSpec, policy, initial: State, depth: int):
    """(z, xi): the policy's order-up-to level and net worth in period
    depth + 1 after each demand history of periods 1..depth, in the order
    `_terminal_wealth` indexes histories. Every state of the tree is
    stepped by the calls a path's walk makes, over (states x atoms)."""
    x, y = np.array([float(initial.x)]), np.array([float(initial.y)])
    for n in range(1, depth + 1):
        z = _order_up_to(policy, n, x, y)
        x, y = _next_state(z[:, None], (x + y)[:, None], horizon.demand_in(n).atoms, n,
                           horizon)
        x, y = x.ravel(), y.ravel()
    return _order_up_to(policy, depth + 1, x, y), x + y


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

