"""Problem definition: per-period economics and a horizon that checks itself.

Conventions shared by every solver in the package:

* capital ``y`` is measured in product units of the current period
  (currency divided by the period's unit cost); negative ``y`` is an
  outstanding loan,
* net worth is the derived sum ``x + y`` and is never stored,
* value functions are in currency,
* leftover stock at the end of the horizon is settled at the salvage
  value ``s`` per unit (negative ``s`` is a disposal cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .demand import Demand


@dataclass(frozen=True)
class PeriodParams:
    """One period's economics; rates are per period and dimensionless."""

    price: float
    cost: float
    holding: float
    deposit_rate: float
    loan_rate: float


@dataclass(frozen=True)
class State:
    """On-hand inventory and capital position, both in product units."""

    x: float
    y: float


class InvalidHorizonError(ValueError):
    """Raised when a horizon that breaks the model's invariants is built;
    `violations` lists each one, and the message has a line per violation."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("\n".join(f"violation: {v}" for v in violations))


@dataclass(frozen=True)
class HorizonSpec:
    """A finite planning horizon: one PeriodParams and one Demand per period.

    Construction enforces the model's invariants, so every horizon is valid:
    in each period c > 0, h >= 0, p >= c, i >= 0, i < l and (1+l)c < p, and
    s < p of the final period. A horizon that breaks any of them raises
    InvalidHorizonError listing each one. Negative salvage is allowed.
    """

    periods: tuple[PeriodParams, ...]
    demands: tuple[Demand, ...]
    salvage: float

    def __init__(self, periods: Sequence[PeriodParams], demands: Sequence[Demand], salvage: float):
        object.__setattr__(self, "periods", tuple(periods))
        object.__setattr__(self, "demands", tuple(demands))
        object.__setattr__(self, "salvage", float(salvage))
        if len(self.periods) < 1:
            raise ValueError("horizon needs at least one period")
        if len(self.periods) != len(self.demands):
            raise ValueError(
                f"{len(self.periods)} period parameter sets but {len(self.demands)} demands"
            )
        violations = []
        for n, params in enumerate(self.periods, 1):
            tag = f"period {n}"
            # capital is measured in product units, so a free product has no scale
            if not params.cost > 0:
                violations.append(f"{tag}: c > 0 violated (c={params.cost})")
            if params.holding < 0:
                violations.append(f"{tag}: h >= 0 violated (h={params.holding})")
            if params.price < params.cost:
                violations.append(f"{tag}: p >= c violated (p={params.price}, c={params.cost})")
            if params.deposit_rate < 0:
                violations.append(f"{tag}: i >= 0 violated (i={params.deposit_rate})")
            if not params.deposit_rate < params.loan_rate:
                violations.append(
                    f"{tag}: i < l violated (i={params.deposit_rate}, l={params.loan_rate})"
                )
            if not (1.0 + params.loan_rate) * params.cost < params.price:
                violations.append(
                    f"{tag}: (1+l)c < p violated "
                    f"((1+l)c={(1.0 + params.loan_rate) * params.cost}, p={params.price})"
                )
        last = self.periods[-1]
        if not self.salvage < last.price:
            violations.append(f"terminal: s < p violated (s={self.salvage}, p={last.price})")
        if violations:
            raise InvalidHorizonError(violations)

    @classmethod
    def stationary(cls, n_periods: int, params: PeriodParams, demand: Demand, salvage: float):
        """Replicate one parameter set and demand across the whole horizon."""
        return cls((params,) * n_periods, (demand,) * n_periods, salvage)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def period(self, n: int) -> PeriodParams:
        """Parameters of period n, 1-indexed."""
        if not 1 <= n <= self.n_periods:
            raise IndexError(f"period {n} outside 1..{self.n_periods}")
        return self.periods[n - 1]

    def demand_in(self, n: int) -> Demand:
        if not 1 <= n <= self.n_periods:
            raise IndexError(f"period {n} outside 1..{self.n_periods}")
        return self.demands[n - 1]

    def liquidation_shortfall(self, n: int) -> str | None:
        """Why period n < N breaks c_n(1+l_n)+h_n >= c_{n+1} or, checked
        second, c_n(1+i_n)+h_n >= c_{n+1}; None if both hold.

        The liquidation-credit myopic policy credits leftover stock at
        c_{n+1} - h_n. Where a condition fails, its critical ratio exceeds 1:
        stocking up without bound, on a loan or instead of a deposit, pays.
        """
        cur, c_next = self.period(n), self.period(n + 1).cost
        for name, rate in (("l", cur.loan_rate), ("i", cur.deposit_rate)):
            credit = cur.cost * (1.0 + rate) + cur.holding
            if credit < c_next - 1e-12:
                return (f"period {n}: liquidation credit needs c(1+{name})+h >= c_next "
                        f"({credit} < {c_next})")
        return None


class NormalizedParams(NamedTuple):
    """Period economics divided by the next period's unit cost."""

    price: float
    holding: float
    cost: float


def normalized_params(horizon: HorizonSpec, n: int) -> NormalizedParams:
    """(p'_n, h'_n, c'_n) = (p_n, h_n, c_n) / c_{n+1} for 1 <= n <= N-1.

    The terminal period is valued in currency directly and is rejected here.
    """
    if not 1 <= n <= horizon.n_periods - 1:
        raise ValueError(f"normalized parameters defined for 1 <= n <= N-1, got n={n}")
    cur = horizon.period(n)
    c_next = horizon.period(n + 1).cost
    return NormalizedParams(cur.price / c_next, cur.holding / c_next, cur.cost / c_next)
