"""Property tests of the two-threshold rule: every caller applies the one rule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cashstock as cs
from cashstock.extensions import loan_limited_policy
from cashstock.thresholds import PeriodThresholds

from conftest import make_horizon

STATE = st.floats(-100.0, 100.0, allow_nan=False)
LEVEL = st.floats(0.0, 60.0, allow_nan=False)
TOL = 1e-9
HORIZON = make_horizon("u0_20", 3)


@st.composite
def order_bands(draw):
    borrow, deposit = sorted((draw(LEVEL), draw(LEVEL)))
    return cs.OrderBands(borrow, deposit)


@given(order_bands(), STATE, STATE)
def test_optimal_order_trichotomy(bands, x, y):
    q = float(cs.optimal_order(x, y, bands))
    worth, z = x + y, x + q
    assert q >= 0.0
    if worth >= bands.deposit:
        # cash-financed: up to the deposit level, never borrowing
        assert z == pytest.approx(max(x, bands.deposit), abs=TOL)
        assert q <= max(y, 0.0) + TOL
    elif worth >= bands.borrow:
        # exactly the cash on hand
        assert q == max(y, 0.0)
    else:
        # loan-financed: up to the borrow level, spending all cash first
        assert z == pytest.approx(max(x, bands.borrow), abs=TOL)
        assert q >= y - TOL


@given(order_bands(), STATE, STATE)
def test_policy_from_thresholds_applies_the_rule(bands, x, y):
    worth = np.array([-300.0, 300.0])
    row = PeriodThresholds(1, worth, np.full(2, bands.borrow), np.full(2, bands.deposit),
                           None, None, 0, 0)
    table = cs.ThresholdTable(None, [row])
    assert cs.policy_from_thresholds(table, x, y, 1) == float(cs.optimal_order(x, y, bands))


@given(st.sampled_from(["lower", "upper"]), st.integers(1, 3), STATE, STATE)
def test_myopic_policy_applies_the_rule(which, n, x, y):
    pair = (cs.myopic_lower if which == "lower" else cs.myopic_upper)(HORIZON, n)
    got = cs.MyopicPolicy(HORIZON, which).order(n, np.array([x]), np.array([y]))
    assert got[0] == float(cs.optimal_order(x, y, pair))


@given(order_bands(), STATE, STATE, st.floats(0.01, 50.0))
def test_loan_limited_policy_caps_the_free_rule(bands, x, y, capacity):
    free = float(cs.optimal_order(x, y, bands))
    assert loan_limited_policy(x, y, bands, capacity) == min(free, max(y, 0.0) + capacity)
