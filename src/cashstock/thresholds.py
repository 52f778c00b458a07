"""Order-up-to thresholds per period, as functions of net worth.

For periods before the last, two order-up-to levels at net worth w make the
optimal order: a loan-financed level, where the order is financed by a
loan, and a deposit-financed one, where cash is left on deposit. The myopic
policies of single_period bracket them from below (`myopic_lower`) and
above (`myopic_upper`).

`ThresholdTable.from_solution` reads both levels off the DP's own
net-worth search: where its maximizer z(w) lies above w the loan-financed
level binds, and where below, the deposit-financed one. The paper computes
the levels by bisecting the stage value's slope between the brackets; the
test suite keeps that algorithm as an oracle for these tables.
`policy_from_thresholds` applies the two-threshold rule on the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import single_period
from .demand import _BucketSearch
from .dp import DPSolution, _require_base_model, worth_grid
from .model import HorizonSpec


@dataclass(eq=False)
class PeriodThresholds:
    n: int
    worth: np.ndarray
    borrow: np.ndarray
    deposit: np.ndarray
    lower: single_period.OrderBands
    upper: single_period.OrderBands
    #: binding levels that fell outside their bracket and were clipped into it
    borrow_clipped: int = 0
    deposit_clipped: int = 0

    @cached_property
    def _cell_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # per cell: worth width, borrow step, deposit step
        return np.diff(self.worth), np.diff(self.borrow), np.diff(self.deposit)

    @cached_property
    def _flat(self) -> bool:
        _, borrow_step, deposit_step = self._cell_steps
        return not (borrow_step.any() or deposit_step.any())

    @cached_property
    def _cell_search(self):
        # np.searchsorted(interior, q, "right") counts the interior worth
        # nodes at or below q: that is q's cell, clipped to the edge cells.
        # A 2-node axis has no interior node, and its one cell is 0
        interior = self.worth[1:-1]
        return _BucketSearch(interior) if len(interior) else partial(np.searchsorted, interior)

    def bands_at(self, worth):
        """(borrow, deposit) levels at `worth`: linear between the worth
        nodes, held at the end values beyond them. One lookup serves both.

        A row whose levels are constant in worth (the final period's, as
        `ThresholdTable.from_solution` builds it) returns them without a
        search: the numbers of the lookup, NaN for NaN worth included, but
        for the sign of a zero level at a worth of -0.0.

        Otherwise the worth axis is searched even where it is evenly
        spaced: the fraction within a cell is then taken from the cell's
        own ends, as np.interp takes it, rather than from the offset to the
        first node, whose rounding grows with the distance from it. The
        search runs over the interior nodes, by table lookup, so that its
        count is the cell, clipped to the edge cells. The cells' widths and
        steps are differenced once per row, so a call gathers them at its
        cells and builds both lerps in place: the same numbers as `_lerp`
        on the levels, bit for bit."""
        q = np.asarray(worth, dtype=float)
        scalar = q.ndim == 0
        if self._flat:
            # the lerp's t * step with every step 0.0: each level + 0.0 (a
            # level of -0.0 reads 0.0), and NaN for NaN worth
            t = np.clip(q, 0.0, 1.0)
            t *= 0.0
            return self.borrow[0] + t, self.deposit[0] + t
        if scalar:  # the lerps work in place, which a scalar cannot be
            q = q.reshape(1)
        width, borrow_step, deposit_step = self._cell_steps
        idx = self._cell_search(q, "right")
        t = self.worth[idx]
        np.subtract(q, t, out=t)
        t /= width[idx]
        np.clip(t, 0.0, 1.0, out=t)
        borrow = borrow_step[idx]
        borrow *= t
        borrow += self.borrow[idx]
        deposit = deposit_step[idx]
        deposit *= t
        deposit += self.deposit[idx]
        return (borrow[0], deposit[0]) if scalar else (borrow, deposit)


@dataclass(eq=False)
class ThresholdTable:
    horizon: HorizonSpec
    periods: list[PeriodThresholds]

    def period(self, n: int) -> PeriodThresholds:
        return self.periods[n - 1]

    @classmethod
    def from_solution(cls, solution: DPSolution) -> "ThresholdTable":
        """Both levels read off the DP's per-worth maximizer z(w).

        Where z(w) > w the loan-financed level binds and is z(w); where
        z(w) < w the deposit-financed level binds and is z(w). A binding
        level outside its myopic bracket is clipped into it, and counted. A
        level that does not bind takes the bracket end that the rule ignores
        there, lower.borrow or upper.deposit, so borrow <= deposit. The
        final period's levels are the closed form's, constant in net worth.
        """
        _require_base_model(solution, "ThresholdTable.from_solution")
        horizon = solution.horizon
        n_last = horizon.n_periods
        worth = worth_grid(solution.grid)
        pair_n = single_period.myopic_lower(horizon, n_last)
        rows = [PeriodThresholds(n_last, worth, np.full(len(worth), pair_n.borrow),
                                 np.full(len(worth), pair_n.deposit), pair_n, pair_n)]
        for n in range(n_last - 1, 0, -1):
            lower = single_period.myopic_lower(horizon, n)
            upper = single_period.myopic_upper(horizon, n)
            z_w = solution.worth_argmax[n - 1]
            borrow, borrow_clipped = _bound_level(z_w, z_w > worth, lower.borrow,
                                                  upper.borrow, lower.borrow)
            deposit, deposit_clipped = _bound_level(z_w, z_w < worth, lower.deposit,
                                                    upper.deposit, upper.deposit)
            rows.append(PeriodThresholds(n, worth, borrow, deposit, lower, upper,
                                         borrow_clipped, deposit_clipped))
        return cls(horizon, rows[::-1])


def _bound_level(z_w, binds, lo: float, hi: float, idle: float) -> tuple[np.ndarray, int]:
    # the level z_w clipped into [lo, hi] where it binds, `idle` elsewhere;
    # and how many binding levels the clip moved
    outside = binds & ((z_w < lo) | (z_w > hi))
    return np.where(binds, np.clip(z_w, lo, hi), idle), int(np.count_nonzero(outside))


def policy_from_thresholds(table: ThresholdTable, x, y, n: int):
    """Order quantity of the two-threshold rule at net worth x + y."""
    bands = single_period.OrderBands(*table.period(n).bands_at(np.add(x, y)))
    q = single_period.optimal_order(x, y, bands)
    return q if q.ndim else float(q)
