import numpy as np
import pytest

import cashstock as cs
from cashstock.model import normalized_params

from conftest import BASE_ECON, SALVAGE, make_horizon


def horizon_with(n=3, salvage=SALVAGE, **tweaks):
    p = dict(BASE_ECON, **tweaks)
    return cs.HorizonSpec.stationary(n, cs.PeriodParams(**p), cs.Uniform(0, 20), salvage)


def test_baseline_parameters_validate():
    assert horizon_with().n_periods == 3


def test_rate_order_violation():
    with pytest.raises(cs.InvalidHorizonError,
                       match=r"period 1: i < l violated \(i=0.2, l=0.15\)"):
        horizon_with(deposit_rate=0.2, loan_rate=0.15)


def test_loan_profitability_violation():
    # (1+0.15)*1000 = 1150 > 1100
    with pytest.raises(cs.InvalidHorizonError, match=r"\(\(1\+l\)c=1150.0, p=1100\)"):
        horizon_with(price=1100)


@pytest.mark.parametrize("tweaks, rule", [
    ({"cost": 0.0}, "c > 0"),
    ({"holding": -1.0}, "h >= 0"),
    ({"price": 900.0}, "p >= c"),
    ({"deposit_rate": -0.01}, "i >= 0"),
    ({"deposit_rate": 0.2}, "i < l"),
    ({"price": 1100.0}, "(1+l)c < p"),
    ({"salvage": 2000.0}, "s < p"),
], ids=["c_positive", "h_nonnegative", "p_at_least_c", "i_nonnegative", "i_below_l",
        "loan_profitable", "s_below_p"])
def test_each_invariant_is_checked_at_construction(tweaks, rule):
    with pytest.raises(cs.InvalidHorizonError) as info:
        horizon_with(**tweaks)
    assert any(f"{rule} violated" in v for v in info.value.violations)


def test_invalid_horizon_error_lists_every_violation():
    periods = (cs.PeriodParams(2000, 1000, -1, 0.01, 0.15),
               cs.PeriodParams(1100, 1000, 500, 0.2, 0.15))
    with pytest.raises(cs.InvalidHorizonError) as info:
        cs.HorizonSpec(periods, (cs.Uniform(0, 20),) * 2, 1100)
    violations = ["period 1: h >= 0 violated (h=-1)",
                  "period 2: i < l violated (i=0.2, l=0.15)",
                  "period 2: (1+l)c < p violated ((1+l)c=1150.0, p=1100)",
                  "terminal: s < p violated (s=1100.0, p=1100)"]
    assert info.value.violations == violations
    assert str(info.value) == "\n".join(f"violation: {v}" for v in violations)


def test_negative_salvage_is_valid():
    # a disposal cost
    assert horizon_with(salvage=-50).salvage == -50.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        cs.HorizonSpec((cs.PeriodParams(**BASE_ECON),) * 2, (cs.Uniform(0, 20),), SALVAGE)


def test_normalized_params_stationary():
    assert normalized_params(horizon_with(), 1) == pytest.approx((2.0, 0.5, 1.0))


def test_normalized_params_changing_cost():
    periods = (
        cs.PeriodParams(2000, 1000, 500, 0.01, 0.15),
        cs.PeriodParams(4200, 2000, 500, 0.01, 0.15),
    )
    hz = cs.HorizonSpec(periods, (cs.Uniform(0, 20),) * 2, SALVAGE)
    assert normalized_params(hz, 1) == pytest.approx((1.0, 0.25, 0.5))


def test_normalized_params_unit_price():
    periods = (
        cs.PeriodParams(2000, 1500, 0.0, 0.01, 0.15),
        cs.PeriodParams(4200, 2000, 500, 0.01, 0.15),
    )
    hz = cs.HorizonSpec(periods, (cs.Uniform(0, 20),) * 2, SALVAGE)
    pp, hp, co = normalized_params(hz, 1)
    assert (pp, hp) == pytest.approx((1.0, 0.0))
    assert co == pytest.approx(0.75)


def test_normalized_params_rejects_terminal():
    hz = horizon_with(n=4)
    with pytest.raises(ValueError):
        normalized_params(hz, 4)
    with pytest.raises(ValueError):
        normalized_params(hz, 0)


def test_normalized_params_currency_homogeneity():
    for k in (0.5, 3.0, 17.0):
        periods = (
            cs.PeriodParams(2000 * k, 1000 * k, 500 * k, 0.01, 0.15),
            cs.PeriodParams(2000 * k, 1000 * k, 500 * k, 0.01, 0.15),
        )
        hz = cs.HorizonSpec(periods, (cs.Uniform(0, 20),) * 2, SALVAGE * k)
        assert normalized_params(hz, 1) == pytest.approx((2.0, 0.5, 1.0))


def test_fractiles_interior_for_valid_horizons():
    # 0 < a < b < 1 whenever i < l, (1+l)c < p and s < c(1+i)
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = rng.uniform(10, 2000)
        loan = rng.uniform(0.01, 0.5)
        dep = rng.uniform(0.0, loan * 0.99)
        p = c * (1 + loan) * rng.uniform(1.01, 3.0)
        s = rng.uniform(-c, c * (1 + dep) * 0.999)
        params = cs.PeriodParams(p, c, rng.uniform(0, c), dep, loan)
        cs.HorizonSpec.stationary(1, params, cs.Uniform(0, 20), s)
        ratios = cs.fractiles(params, s)
        assert 0.0 < ratios.borrow < ratios.deposit < 1.0


def test_upper_myopic_validity_flag():
    hz = horizon_with()
    assert all(hz.liquidation_shortfall(n) is None for n in range(1, hz.n_periods))
    periods = (
        cs.PeriodParams(4000, 1000, 0.0, 0.01, 0.15),
        cs.PeriodParams(4000, 2000, 0.0, 0.01, 0.15),  # c jumps past 1150
    )
    hz = cs.HorizonSpec(periods, (cs.Uniform(0, 20),) * 2, SALVAGE)
    assert hz.liquidation_shortfall(1) == (
        "period 1: liquidation credit needs c(1+l)+h >= c_next (1150.0 < 2000)")


def test_make_horizon_helper():
    hz = make_horizon("u0_20", 6)
    assert hz.n_periods == 6
