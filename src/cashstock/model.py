"""Problem definition: per-period economics, horizon configuration, validation.

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

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class HorizonSpec:
    """A finite planning horizon: one PeriodParams and one Demand per period."""

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

    @property
    def upper_myopic_valid(self) -> bool:
        """True when c_n(1+l_n)+h_n >= c_{n+1} and c_n(1+i_n)+h_n >= c_{n+1}
        for every n < N."""
        return not any(self.liquidation_shortfall(n) for n in range(1, self.n_periods))


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "ok"


class InvalidHorizonError(ValueError):
    """Raised by solvers handed a horizon that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


def validate(horizon: HorizonSpec) -> ValidationReport:
    """Check every documented invariant; empty report iff all hold."""
    report = ValidationReport()
    for idx, params in enumerate(horizon.periods):
        n = idx + 1
        tag = f"period {n}"
        # capital is measured in product units, so a free product has no scale
        if not params.cost > 0:
            report.violations.append(f"{tag}: c > 0 violated (c={params.cost})")
        if params.holding < 0:
            report.violations.append(f"{tag}: h >= 0 violated (h={params.holding})")
        if params.price < params.cost:
            report.violations.append(f"{tag}: p >= c violated (p={params.price}, c={params.cost})")
        if params.deposit_rate < 0:
            report.violations.append(f"{tag}: i >= 0 violated (i={params.deposit_rate})")
        if not params.deposit_rate < params.loan_rate:
            report.violations.append(
                f"{tag}: i < l violated (i={params.deposit_rate}, l={params.loan_rate})"
            )
        if not (1.0 + params.loan_rate) * params.cost < params.price:
            report.violations.append(
                f"{tag}: (1+l)c < p violated "
                f"((1+l)c={(1.0 + params.loan_rate) * params.cost}, p={params.price})"
            )
    last = horizon.periods[-1]
    if not horizon.salvage < last.price:
        report.violations.append(
            f"terminal: s < p violated (s={horizon.salvage}, p={last.price})"
        )
    if horizon.salvage < 0:
        report.warnings.append(f"salvage {horizon.salvage} is negative (disposal cost)")
    if horizon.salvage >= last.cost * (1.0 + last.deposit_rate):
        report.warnings.append(
            "salvage at least c(1+i) in the final period: the upper critical "
            "ratio reaches 1 and the order-up-to level degenerates to the "
            "demand support maximum"
        )
    if not horizon.upper_myopic_valid:
        report.warnings.append(
            "c_n(1+i_n)+h_n >= c_{n+1} fails for some period: the "
            "liquidation-credit myopic policy is unavailable"
        )
    return report


def require_valid(horizon: HorizonSpec) -> None:
    report = validate(horizon)
    if not report.ok:
        raise InvalidHorizonError(report)


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
    if c_next <= 0:
        raise ValueError(f"period {n + 1} unit cost must be positive to normalize")
    return NormalizedParams(cur.price / c_next, cur.holding / c_next, cur.cost / c_next)
