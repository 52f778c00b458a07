"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1 and 2 compare the solver with the paper's numerical study
(TABLE1, TABLE2). The paper's "U(lo, hi)" is demand with equal weights on
the integers lo..hi, so its rows are solved on those instances: the "iu*"
keys of `conftest.DEMANDS`, looked up through PAPER_INSTANCE. The evidence:
on the desk grid (161x201) all 36 bound-table comparisons then deviate from
the references by -0.16% to +0.41%, while continuous `Uniform(lo, hi)`
gives +1.2% to +3.5%. Criteria 3-8 keep the continuous instances, whose
closed forms (5160.71, the quantile brackets) they check.

Criterion 1 still fails on five checks, whose references this repository
cannot reproduce from the model and parameters it has:

* the four ZIP V1 rows, 36-58% above the references. On ZIP(0, 10) the
  liquidation-credit myopic policy alone is worth 47965 by grid evaluation
  and 47967 +/- 24 by 400k simulated paths, 58% above the reference
  *optimum* 30355. A feasible policy cannot beat its own model's optimum,
  so these rows belong to another instance, whose parameters the paper's
  abstract does not give. The references also rank Poisson(10) below the
  noisier U(0, 20) and reverse the myopic-gap pattern of the uniform rows.
* the u0_20 holding-only (myopic I) gap, 10.69% against 13.69%. The
  myopic-I values of the four uniform rows miss their references with mixed
  signs (+3.3%, -1.9%, +0.5%, 0.0% on 81x101), and no simple salvage
  variant of the policy fits all four; settling it needs the paper's own
  definition of its "myopic policy I".
"""

from pathlib import Path

import numpy as np

import cashstock as cs
from cashstock.cli import load_config, main
from cashstock.dp import Grid
from cashstock.extensions import (
    BackorderParams,
    LoanLimit,
    PiecewiseRateSchedule,
    backorder_dp,
    backorder_grid,
    loan_limited_dp,
    piecewise_optimal_order,
)
from cashstock.thresholds import EPSILON, bisection_iterations, solve_thresholds

from conftest import DEMANDS, BASE_ECON, SALVAGE, make_horizon

PARAMS = cs.PeriodParams(**BASE_ECON)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The reference tables of the paper's numerical study. Their uniform rows were
# computed on integer-valued demand (see the module docstring). TABLE1's ZIP
# rows and its u0_20 myopic-I gap are not reproduced; the docstring says why.
TABLE1 = {
    # demand key: (V1, V_myopic_I, gap_I_pct, V_myopic_II, gap_II_pct)
    "u0_20": (35074.0, 30271.0, 13.69, 35016.0, 0.16),
    "u2_18": (40174.0, 36784.0, 8.44, 40158.0, 0.04),
    "u4_16": (44950.0, 42329.0, 5.83, 44886.0, 0.14),
    "u6_14": (49428.0, 47677.0, 3.54, 49385.0, 0.09),
    "zip18": (23130.0, 22800.0, 1.43, 21757.0, 5.94),
    "zip09": (26920.0, 26910.0, 0.04, 26142.0, 2.89),
    "zip02": (29612.0, 29484.0, 0.43, 29115.0, 1.68),
    "zip00": (30355.0, 30288.0, 0.22, 29911.0, 1.46),
}

TABLE2 = {
    # (N, demand key, x): (V, V_lower, V_upper)
    (6, "u0_20", 0.0): (35074.0, 35016.0, 35080.0),
    (6, "u0_20", 7.0): (45542.0, 45435.0, 45550.0),
    (6, "u0_20", 14.0): (54248.0, 54200.0, 54355.0),
    (6, "u6_14", 0.0): (49428.0, 49386.0, 49428.0),
    (6, "u6_14", 7.0): (58575.0, 58536.0, 58575.0),
    (6, "u6_14", 14.0): (66076.0, 66036.0, 66634.0),
    (12, "u0_20", 0.0): (75888.0, 75693.0, 75923.0),
    (12, "u0_20", 7.0): (87273.0, 87057.0, 87290.0),
    (12, "u0_20", 14.0): (96528.0, 96410.0, 96660.0),
    (12, "u6_14", 0.0): (103872.0, 103760.0, 103872.0),
    (12, "u6_14", 7.0): (113564.0, 113464.0, 113564.0),
    (12, "u6_14", 14.0): (121521.0, 121419.0, 122114.0),
}


#: reference-table demand key -> the instance the references were computed on
PAPER_INSTANCE = {"u0_20": "iu0_20", "u2_18": "iu2_18", "u4_16": "iu4_16", "u6_14": "iu6_14"}


def report(criterion: str, failures: list[str], detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{criterion}] {status}" + (f" - {detail}" if detail else ""))
    for f in failures:
        print(f"    {f}")
    assert not failures, f"{criterion}: {len(failures)} check(s) failed: " + "; ".join(failures)


def test_criterion_1_policy_gap_table(solve_cache):
    failures = []
    details = []
    for key, (v_ref, lo_ref, gap_lo_ref, up_ref, gap_up_ref) in TABLE1.items():
        sol = solve_cache.solution(PAPER_INSTANCE.get(key, key), 6)
        v = float(sol.value(1)(0.0, 0.0))
        details.append(f"{key}: V1={v:.0f} (reference {v_ref:.0f}, {100 * (v / v_ref - 1):+.2f}%)")
        if abs(v - v_ref) > 0.015 * v_ref:
            failures.append(f"{key}: V1 {v:.0f} vs reference {v_ref:.0f} beyond 1.5%")
    key = PAPER_INSTANCE["u0_20"]
    lo = float(solve_cache.myopic_value(key, 6, "lower")(0.0, 0.0))
    up = float(solve_cache.myopic_value(key, 6, "upper")(0.0, 0.0))
    v = float(solve_cache.solution(key, 6).value(1)(0.0, 0.0))
    gap_lo = 100 * (v - lo) / v
    gap_up = 100 * (v - up) / v
    if abs(gap_lo - 13.69) > 1.0:
        failures.append(f"u0_20 holding-only myopic gap {gap_lo:.2f}% vs 13.69% beyond 1pp")
    if abs(gap_up - 0.16) > 0.3:
        failures.append(f"u0_20 liquidation myopic gap {gap_up:.2f}% vs 0.16% beyond 0.3pp")
    report("criterion 1", failures,
           f"gaps u0_20: lower {gap_lo:.2f}%, upper {gap_up:.2f}%; " + "; ".join(details))


def test_criterion_2_bound_table(solve_cache):
    failures = []
    for (n, key, x), (v_ref, lo_ref, up_ref) in TABLE2.items():
        instance = PAPER_INSTANCE[key]
        sol = solve_cache.solution(instance, n)
        v = float(sol.value(1)(x, 0.0))
        lo = float(solve_cache.myopic_value(instance, n, "upper")(x, 0.0))
        up = float(solve_cache.selling_back(instance, n)[0](x, 0.0))
        for name, got, ref in [("V", v, v_ref), ("lower", lo, lo_ref), ("upper", up, up_ref)]:
            if abs(got - ref) > 0.015 * ref:
                failures.append(
                    f"N={n} {key} x={x:.0f}: {name} {got:.0f} vs reference {ref:.0f} beyond 1.5%")
        tol = 5e-3 * abs(v)
        if lo > v + tol or v > up + tol:
            failures.append(
                f"N={n} {key} x={x:.0f}: ordering violated (lo {lo:.0f}, V {v:.0f}, up {up:.0f})")
    report("criterion 2", failures, f"{len(TABLE2)} states checked")


def test_criterion_2_through_the_cli(solve_cache, tmp_path):
    # `cashstock tables --which table2` on configs/paper_table2.json: every
    # row meets TABLE2 as criterion 2 does, and writes the values of the
    # tables criterion 2 reads, whose lower bound is MyopicPolicy(hz, "upper")
    out = tmp_path / "table2"
    assert main(["tables", "--which", "table2", "--config", str(CONFIGS / "paper_table2.json"),
                 "--out", str(out)]) == 0
    lines = (out / "table2.csv").read_text().splitlines()
    assert lines[0] == ("N,demand,x,v_opt,v_lower,gap_lower,gap_lower_pct,"
                        "v_upper,gap_upper,gap_upper_pct")
    key_of = {DEMANDS[instance].label: key for key, instance in PAPER_INSTANCE.items()}
    failures, rows = [], {}
    for line in lines[1:]:
        n, label, x, v, lo, _, _, up, _, _ = line.split(",")
        rows[int(n), key_of[label], float(x)] = (v, lo, up)
    assert rows.keys() == TABLE2.keys()
    for (n, key, x), written in rows.items():
        instance = PAPER_INSTANCE[key]
        tables = (solve_cache.solution(instance, n).value(1)(x, 0.0),
                  solve_cache.myopic_value(instance, n, "upper")(x, 0.0),
                  solve_cache.selling_back(instance, n)[0](x, 0.0))
        for name, cell, table, ref in zip(("V", "lower", "upper"), written, tables,
                                          TABLE2[n, key, x]):
            if abs(float(cell) - ref) > 0.015 * ref:
                failures.append(f"N={n} {key} x={x:.0f}: {name} {cell} vs reference "
                                f"{ref:.0f} beyond 1.5%")
            if cell != f"{float(table):.6g}":
                failures.append(f"N={n} {key} x={x:.0f}: {name} {cell} written, "
                                f"{float(table):.6g} in the tables")
    report("criterion 2 through the CLI", failures, f"{len(rows)} rows of table2.csv")


def test_paper_table_configs_hold_the_reference_instances(desk_grid):
    # configs/paper_table1.json and paper_table2.json give `cashstock tables`
    # the instances criteria 1 and 2 solve: demands, economics, horizons,
    # states and grid
    table1 = load_config(str(CONFIGS / "paper_table1.json"))
    table2 = load_config(str(CONFIGS / "paper_table2.json"))
    keys1 = [PAPER_INSTANCE.get(key, key) for key in TABLE1]
    keys2 = [PAPER_INSTANCE[key] for key in dict.fromkeys(key for _, key, _ in TABLE2)]
    assert table1.demands == [DEMANDS[key] for key in keys1]
    assert table2.demands == [DEMANDS[key] for key in keys2]
    for cfg in (table1, table2):
        assert cfg.periods == [PARAMS] and cfg.salvage == SALVAGE
        assert cfg.grid.shape == desk_grid.shape
        assert np.array_equal(cfg.grid.x_nodes, desk_grid.x_nodes)
        assert np.array_equal(cfg.grid.y_nodes, desk_grid.y_nodes)
    assert table1.initial == (0.0, 0.0)
    for key, dem in zip(keys1, table1.demands, strict=True):
        assert table1.horizon(demand=dem) == make_horizon(key, 6)
    lengths = sorted({n for n, _, _ in TABLE2})
    assert table2.table_horizons == lengths
    assert table2.table_states == sorted({x for _, _, x in TABLE2})
    for key, dem in zip(keys2, table2.demands, strict=True):
        assert table2.longest_horizon(lengths, demand=dem) == make_horizon(key, max(lengths))


def test_criterion_3_closed_form_equivalence(desk_grid):
    failures = []
    hz = make_horizon("u0_20", 1)
    sol = cs.backward_induct(hz, desk_grid)
    X, Y = desk_grid.mesh()
    closed = cs.value_closed_form(X, Y, PARAMS, SALVAGE, DEMANDS["u0_20"])
    rel = np.abs(sol.value(1).values - closed) / (np.abs(closed) + 1.0)
    if rel.max() > 5e-3:
        failures.append(f"grid DP vs closed form: max rel dev {rel.max():.2e} > 0.5%")
    # the speculation value: expected terminal worth from (0, 0)
    spec = float(cs.value_closed_form(0.0, 0.0, PARAMS, SALVAGE, DEMANDS["u0_20"]))
    # independent oracle: (p - s) E[D 1{D < borrow level}] by quadrature
    bands = cs.order_bands(cs.fractiles(PARAMS, SALVAGE), DEMANDS["u0_20"])
    nodes, w = DEMANDS["u0_20"].expectation_nodes(np.array([bands.borrow]))
    oracle = (PARAMS.price - SALVAGE) * float(
        np.sum(nodes * (nodes < bands.borrow) * w))
    if abs(spec - oracle) > 1e-6 * abs(oracle):
        failures.append(f"speculation {spec:.6f} vs quadrature oracle {oracle:.6f}")
    if abs(spec - 5160.71) > 1e-6 * 5160.71 + 5e-3:
        failures.append(f"speculation {spec:.4f} vs reference 5160.71")
    report("criterion 3", failures, f"speculation value {spec:.2f}")


def test_criterion_4_threshold_sandwich(solve_cache, desk_grid):
    failures = []
    epsilon = EPSILON
    hz = make_horizon("u0_20", 6)
    table = solve_thresholds(solve_cache.solution("u0_20", 6))
    for row in table.periods:
        if row.n < 6:
            if not (np.all(row.borrow >= 6.8 - epsilon)
                    and np.all(row.borrow <= 11.333333333333334 + epsilon)):
                failures.append(f"period {row.n}: borrow level leaves [6.8, 11.333]")
            if not (np.all(row.deposit >= 7.92 - epsilon)
                    and np.all(row.deposit <= 13.2 + epsilon)):
                failures.append(f"period {row.n}: deposit level leaves [7.92, 13.2]")
            cap = bisection_iterations(row.upper.borrow - row.lower.borrow, epsilon)
            if row.borrow_iterations > cap:
                failures.append(f"period {row.n}: {row.borrow_iterations} iterations > {cap}")
            cap = bisection_iterations(row.upper.deposit - row.lower.deposit, epsilon)
            if row.deposit_iterations > cap:
                failures.append(f"period {row.n}: {row.deposit_iterations} iterations > {cap}")
        else:
            if abs(row.borrow[0] - 12.142857) > epsilon or abs(row.deposit[0] - 14.142857) > epsilon:
                failures.append(
                    f"final period pair ({row.borrow[0]:.6f}, {row.deposit[0]:.6f}) "
                    "vs (12.142857, 14.142857)")
    report("criterion 4", failures,
           f"levels for n<6 within [6.8, 11.333] x [7.92, 13.2], eps={epsilon}")


def test_criterion_5_structural_properties(solve_cache, desk_grid):
    failures = []
    hz = make_horizon("u0_20", 6)
    sol = solve_cache.solution("u0_20", 6)
    q999 = float(DEMANDS["u0_20"].quantile(0.999))
    sellable = desk_grid.x_nodes <= q999 + 1e-9
    for n in range(1, 7):
        V = sol.value(n).values
        scale = np.abs(V).max()
        tol = 1e-6 * scale
        if np.diff(V, axis=1).min() < -tol:
            failures.append(f"period {n}: value decreasing in capital")
        # stock monotonicity holds on the demand-covered range; beyond it a
        # marginal unit's holding drag genuinely beats its resale value
        if np.diff(V[sellable], axis=0).min() < -tol:
            failures.append(f"period {n}: value decreasing in stock below q999")
        if np.diff(V, 2, axis=0).max() > tol:
            failures.append(f"period {n}: concavity along stock violated")
        if np.diff(V, 2, axis=1).max() > tol:
            failures.append(f"period {n}: concavity along capital violated")
        diag = V[2:, 2:] - 2 * V[1:-1, 1:-1] + V[:-2, :-2]
        if diag.max() > tol:
            failures.append(f"period {n}: concavity along the diagonal violated")
        gx = np.gradient(V, desk_grid.x_nodes, axis=0)
        gy = np.gradient(V, desk_grid.y_nodes, axis=1)
        # dV/dy >= dV/dx; the two coincide exactly in the full-utilization
        # band, so allow the central-difference smear across that kink
        smear = 0.02 * PARAMS.cost * (1 + PARAMS.loan_rate)
        if (gx - gy)[1:-1, 1:-1].max() > smear:
            failures.append(f"period {n}: dV/dx exceeds dV/dy beyond kink smear")

    # expectation product ordering for monotone transforms (used by the
    # bracketing proofs); randomized discrete distributions
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = rng.integers(2, 9)
        probs = rng.dirichlet(np.ones(k))
        f = np.sort(rng.normal(size=k))
        g = np.sort(rng.normal(size=k))
        if (f * g) @ probs < (f @ probs) * (g @ probs) - 1e-12:
            failures.append("E[fg] >= E[f]E[g] violated for comonotone f, g")
            break

    # policy trichotomy: grid argmax agrees with the threshold rule within a cell
    table = solve_thresholds(sol)
    X, Y = desk_grid.mesh()
    cell = max(float(np.diff(desk_grid.x_nodes).max()),
               float(np.diff(desk_grid.y_nodes).max()))
    for n in (1, 3, 5):
        q_dp = sol.policy(n).order_up_to - X
        q_thr = cs.policy_from_thresholds(table, X.ravel(), Y.ravel(), n).reshape(X.shape)
        dev = np.abs(q_dp - q_thr).max()
        if dev > cell + 1e-3:
            failures.append(f"period {n}: argmax vs threshold rule deviates {dev:.3f} > one cell")
    report("criterion 5", failures)


def test_criterion_6_extension_sanity(small_grid):
    failures = []
    hz = make_horizon("u0_20", 3)
    base = cs.backward_induct(hz, small_grid)
    capped = loan_limited_dp(hz, LoanLimit(1e12), small_grid)
    rel = abs(float(capped.value(1)(0.0, 0.0)) - float(base.value(1)(0.0, 0.0))) / abs(
        float(base.value(1)(0.0, 0.0)))
    if rel > 5e-3:
        failures.append(f"unbounded loan limit shifts V1 by {100 * rel:.2f}% > 0.5%")

    single = PiecewiseRateSchedule(loan_rates=(PARAMS.loan_rate,),
                                   deposit_rates=(PARAMS.deposit_rate,))
    bands = cs.order_bands(cs.fractiles(PARAMS, SALVAGE), DEMANDS["u0_20"])
    rng = np.random.default_rng(29)
    for _ in range(200):
        x, y = rng.uniform(0, 20), rng.uniform(-10, 25)
        q_pw = piecewise_optimal_order(x, y, PARAMS, SALVAGE, single, DEMANDS["u0_20"])
        q_base = float(cs.optimal_order(x, y, bands))
        if abs(q_pw - q_base) > 1e-9:
            failures.append(f"single-segment schedule deviates at ({x:.2f}, {y:.2f})")
            break

    demand = cs.DiscreteEmpirical((0.0, 5.0), (0.3, 0.7))
    hzb = cs.HorizonSpec.stationary(4, PARAMS, demand, SALVAGE)
    lost_grid = Grid.regular(30, -40, 80, 31, 41)
    lost = cs.backward_induct(hzb, lost_grid)
    bo = backorder_dp(hzb, BackorderParams(0.0), backorder_grid(hzb, lost_grid))
    keep = bo.grid.x_nodes >= -1e-9
    rel = np.abs(bo.value(1).values[keep] - lost.value(1).values) / (
        np.abs(lost.value(1).values) + 1.0)
    if rel.max() > 5e-3:
        failures.append(f"backorder b=0 deviates from lost sales by {100 * rel.max():.2f}%")
    report("criterion 6", failures)


def test_criterion_7_simulation_self_consistency(solve_cache, desk_grid):
    hz = make_horizon("u0_20", 6)
    sol = solve_cache.solution("u0_20", 6)
    table = solve_thresholds(sol)
    res = cs.run_policies(hz, [cs.ThresholdPolicy(table)], cs.State(0.0, 0.0),
                          1_000_000, seed=2026)[0]
    v = float(sol.value(1)(0.0, 0.0))
    failures = []
    if abs(res.mean - v) > res.half_width + 0.01 * abs(v):
        failures.append(
            f"simulated {res.mean:.0f} +/- {res.half_width:.0f} vs DP {v:.0f}")
    report("criterion 7", failures,
           f"simulated {res.mean:.0f} +/- {res.half_width:.0f}, DP {v:.0f}")


def test_criterion_8_zip_distribution_checks():
    failures = []
    cases = [
        ((0.18, 10.0), 8.2, 0.58, None),
        ((0.09, 10.0), 9.1, 0.45, 0.09),
        ((0.0, 10.0), 10.0, 0.31, None),
    ]
    for (pi, lam), mean_ref, cv_ref, p0_ref in cases:
        dem = cs.ZeroInflatedPoisson(pi, lam)
        m = dem.moments()
        if abs(m.mean - lam * (1 - pi)) > 1e-12 or abs(m.mean - mean_ref) > 1e-9:
            failures.append(f"ZIP({pi},{lam}): mean {m.mean} vs {mean_ref}")
        cv_formula = np.sqrt((1 + lam * pi) / (lam * (1 - pi)))
        if abs(m.cv - cv_formula) > 1e-12:
            failures.append(f"ZIP({pi},{lam}): cv {m.cv} deviates from the formula")
        if abs(m.cv - cv_ref) > 0.01:
            failures.append(f"ZIP({pi},{lam}): cv {m.cv:.4f} vs reference {cv_ref}")
        if p0_ref is not None:
            p0 = float(dem.cdf(0.0))
            if abs(p0 - p0_ref) > 1e-3:
                failures.append(f"ZIP({pi},{lam}): P(D=0) {p0:.5f} vs {p0_ref}")
    report("criterion 8", failures)
