"""Optimal joint ordering and financing for cash-constrained inventory.

A finite-horizon, single-product model where orders can be financed by cash
on hand or a loan, idle cash earns deposit interest, and the objective is
expected terminal wealth. Provides the single-period closed form, grid
dynamic programming and the thresholds read off its net-worth search,
value-function bounds, model extensions, Monte Carlo policy evaluation, and
a CLI.
"""

from .demand import Demand, DiscreteEmpirical, Uniform, ZeroInflatedPoisson, integer_uniform
from .model import (
    HorizonSpec,
    InvalidHorizonError,
    PeriodParams,
    State,
    normalized_params,
)
from .single_period import (
    CriticalRatios,
    OrderBands,
    expected_value_G,
    fractiles,
    myopic_lower,
    myopic_upper,
    optimal_order,
    order_bands,
    value_closed_form,
)
from .dp import (
    DPSolution,
    Grid,
    PolicyTable,
    ValueTable,
    backward_induct,
    policy_value_tables,
)
from .thresholds import (
    ThresholdTable,
    policy_from_thresholds,
)
from .bounds import (
    WorthValueTable,
    compare_bounds,
    selling_back_dp,
)
from .extensions import (
    BackorderParams,
    LoanLimit,
    PiecewiseRateSchedule,
    ThresholdLadder,
    backorder_dp,
    backorder_grid,
    loan_limited_dp,
    loan_limited_policy,
    piecewise_dp,
    piecewise_optimal_order,
    piecewise_thresholds,
)
from .sim import (
    MyopicPolicy,
    SimResult,
    ThresholdPolicy,
    run_policies,
)

__version__ = "0.1.0"
