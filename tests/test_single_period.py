import numpy as np
import pytest

import cashstock as cs
from cashstock.single_period import (
    expected_value_G,
    fractiles,
    optimal_order,
    order_bands,
    value_closed_form,
)

from conftest import BASE_ECON, SALVAGE

PARAMS = cs.PeriodParams(**BASE_ECON)
U20 = cs.Uniform(0, 20)
U614 = cs.Uniform(6, 14)

RATIOS = fractiles(PARAMS, SALVAGE)
BANDS = order_bands(RATIOS, U20)
# a = (2000 - 1150)/1400, b = (2000 - 1010)/1400
A_EXACT = 850.0 / 1400.0
B_EXACT = 990.0 / 1400.0


def test_fractiles_paper_params():
    assert RATIOS.borrow == pytest.approx(A_EXACT, abs=1e-15)
    assert RATIOS.deposit == pytest.approx(B_EXACT, abs=1e-15)


def test_fractiles_equal_rates_collapse():
    p = cs.PeriodParams(2000, 1000, 500, 0.15, 0.15)
    r = fractiles(p, SALVAGE)
    assert r.borrow == r.deposit


def test_fractiles_classical_newsvendor():
    p = cs.PeriodParams(2000, 1000, 500, 0.0, 0.0)
    r = fractiles(p, SALVAGE)
    assert r.borrow == r.deposit == pytest.approx(1000.0 / 1400.0, abs=1e-15)


def test_fractiles_salvage_above_price_rejected():
    with pytest.raises(ValueError):
        fractiles(PARAMS, 2000.0)


def test_order_bands():
    assert BANDS.borrow == pytest.approx(20 * A_EXACT, abs=1e-12)   # 12.142857
    assert BANDS.deposit == pytest.approx(20 * B_EXACT, abs=1e-12)  # 14.142857
    d0 = cs.DiscreteEmpirical((5.0,), (1.0,))
    b = order_bands(RATIOS, d0)
    assert (b.borrow, b.deposit) == (5.0, 5.0)
    b = order_bands(RATIOS, U614)
    assert b.borrow == pytest.approx(6 + 8 * A_EXACT, abs=1e-12)    # 10.857143
    assert b.deposit == pytest.approx(6 + 8 * B_EXACT, abs=1e-12)   # 11.657143


def test_expected_value_examples():
    assert expected_value_G(0.0, 0.0, 0.0, PARAMS, SALVAGE, U20) == pytest.approx(0.0)
    # deposit branch at q = deposit band, y = 20:
    # 2000 b - 1400 b^2/40 + 1000 (20 - b) 1.01 with b = 14.142857
    assert expected_value_G(BANDS.deposit, 0.0, 20.0, PARAMS, SALVAGE, U20) == pytest.approx(
        27200.714285714286, rel=1e-12)
    # all-loan order at the borrow band from an empty state
    assert expected_value_G(BANDS.borrow, 0.0, 0.0, PARAMS, SALVAGE, U20) == pytest.approx(
        5160.714285714286, rel=1e-12)
    with pytest.raises(ValueError):
        expected_value_G(-1.0, 0.0, 0.0, PARAMS, SALVAGE, U20)


def test_optimal_order_trichotomy():
    assert optimal_order(0.0, 0.0, BANDS) == pytest.approx(BANDS.borrow)
    assert optimal_order(0.0, 13.0, BANDS) == pytest.approx(13.0)   # full utilization
    assert optimal_order(20.0, 5.0, BANDS) == 0.0                   # deposit everything


def test_value_closed_form_examples():
    assert value_closed_form(0.0, 0.0, PARAMS, SALVAGE, U20) == pytest.approx(
        5160.714285714286, rel=1e-12)
    assert value_closed_form(0.0, 20.0, PARAMS, SALVAGE, U20) == pytest.approx(
        27200.714285714286, rel=1e-12)
    # x at the deposit band, no cash: q* = 0, pure revenue
    assert value_closed_form(BANDS.deposit, 0.0, PARAMS, SALVAGE, U20) == pytest.approx(
        21285.0, rel=1e-12)


def test_value_handles_outstanding_debt():
    # q* = 0 with y < 0: debt accrues at the loan rate, not the deposit rate
    got = value_closed_form(13.0, -0.5, PARAMS, SALVAGE, U20)
    expect = 2000 * 13 - 1400 * U20.loss(13.0) + 1000 * (-0.5) * 1.15
    assert got == pytest.approx(float(expect), rel=1e-12)


def test_value_equals_G_at_optimal_order():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 25, 300)
    y = rng.uniform(-20, 30, 300)
    q = optimal_order(x, y, BANDS)
    assert np.allclose(value_closed_form(x, y, PARAMS, SALVAGE, U20),
                       expected_value_G(q, x, y, PARAMS, SALVAGE, U20), rtol=1e-12)


def test_speculation_value():
    # expected terminal worth from (0, 0): (p - s) E[D; D < borrow level] > 0
    def spec(demand):
        return value_closed_form(0.0, 0.0, PARAMS, SALVAGE, demand)

    # (p - s) * int_0^alpha t f(t) dt = 1400 * alpha^2/40
    assert spec(U20) == pytest.approx(1400 * (20 * A_EXACT) ** 2 / 40, rel=1e-12)
    # U(6,14): 1400 * (alpha^2 - 36)/16 with alpha = 6 + 8a = 10.857143
    alpha = 6 + 8 * A_EXACT
    assert spec(U614) == pytest.approx(1400 * (alpha**2 - 36) / 16, rel=1e-12)
    assert spec(U614) == pytest.approx(7164.2857, abs=1e-3)
    # no demand, no profit
    zero = cs.DiscreteEmpirical((0.0,), (1.0,))
    assert spec(zero) == pytest.approx(0.0, abs=1e-12)
    assert spec(U20) > 0.0


def test_G_concave_in_q():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(0, 10), rng.uniform(-5, 15)
        qs = np.sort(rng.uniform(0, 30, 3))
        g = expected_value_G(qs, x, y, PARAMS, SALVAGE, U20)
        lam = (qs[2] - qs[1]) / (qs[2] - qs[0])
        assert g[1] >= lam * g[0] + (1 - lam) * g[2] - 1e-8


def test_value_monotone():
    x = np.linspace(0, 30, 61)
    for y in (-10.0, 0.0, 5.0, 40.0):
        v = value_closed_form(x, y, PARAMS, SALVAGE, U20)
        assert np.all(np.diff(v) >= -1e-9)       # s >= 0: nondecreasing in x
    y = np.linspace(-30, 40, 141)
    for xv in (0.0, 8.0, 22.0):
        v = value_closed_form(xv, y, PARAMS, SALVAGE, U20)
        assert np.all(np.diff(v) >= -1e-9)


def test_disposal_cost_turns_G_decreasing_in_x():
    # s < 0: dG/dx = p (1-F(q+x)) + s F(q+x) crosses zero at
    # x' = F^{-1}(p/(p-s)) - q
    s = -200.0
    q = 3.0
    x_crit = float(U20.quantile(2000.0 / 2200.0)) - q
    lo = expected_value_G(q, x_crit - 1.0, 0.0, PARAMS, s, U20)
    at = expected_value_G(q, x_crit, 0.0, PARAMS, s, U20)
    hi = expected_value_G(q, x_crit + 1.0, 0.0, PARAMS, s, U20)
    assert at > lo
    assert hi < at


def test_optimal_order_beats_grid_search():
    rng = np.random.default_rng(4)
    q_lattice = np.linspace(0, 40, 4001)
    for _ in range(200):
        x, y = rng.uniform(0, 25), rng.uniform(-15, 25)
        best = expected_value_G(q_lattice, x, y, PARAMS, SALVAGE, U20).max()
        v = value_closed_form(x, y, PARAMS, SALVAGE, U20)
        assert v >= best - 1e-9 * (1 + abs(best))


def test_scaling_invariance():
    k = 7.0
    scaled = cs.PeriodParams(2000 * k, 1000 * k, 500, 0.01, 0.15)
    r = fractiles(scaled, SALVAGE * k)
    assert r.borrow == pytest.approx(RATIOS.borrow, rel=1e-12)
    b = order_bands(r, U20)
    assert b.borrow == pytest.approx(BANDS.borrow, rel=1e-12)
    rng = np.random.default_rng(6)
    x, y = rng.uniform(0, 20, 50), rng.uniform(-10, 20, 50)
    assert np.allclose(optimal_order(x, y, b), optimal_order(x, y, BANDS), rtol=1e-12)
    assert np.allclose(value_closed_form(x, y, scaled, SALVAGE * k, U20),
                       k * value_closed_form(x, y, PARAMS, SALVAGE, U20), rtol=1e-12)
