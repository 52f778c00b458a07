import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cashstock.bounds import compare_bounds
from cashstock.cli import (DEMAND_KINDS, GRID_FIELDS, PERIOD_FIELDS, ROOT_FIELDS, SOLVER_FIELDS,
                           ConfigError, Emitter, build_parser, load_config, main)
from cashstock.demand import DiscreteEmpirical
from cashstock.model import HorizonSpec

BASE_CONFIG = {
    "N": 3,
    "salvage": 600,
    "periods": [{"p": 2000, "c": 1000, "h": 500, "i": 0.01, "l": 0.15}],
    "demands": [{"kind": "uniform", "lo": 0, "hi": 20}],
    "grid": {"x_max": 40, "y_min": -60, "y_max": 120, "nx": 41, "ny": 51},
    "solver": {"epsilon": 0.001, "mc_paths": 5000, "seed": 7},
}


def write_config(tmp_path, **changes):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_missing_field_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 3}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_demand_kind_names_the_field(tmp_path):
    path = write_config(tmp_path, demands=[{"kind": "lognormal", "mu": 1}])
    with pytest.raises(ConfigError, match="demands\\[0\\].*lognormal"):
        load_config(str(path))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_empty_demand_list_rejected(tmp_path):
    path = write_config(tmp_path, demands=[])
    assert main(["tables", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_invalid_horizon_rejected(tmp_path):
    path = write_config(tmp_path, periods=[{"p": 1100, "c": 1000, "h": 0, "i": 0.01, "l": 0.15}])
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


#: two periods whose price and unit cost rise, the second's cost to `c`
def price_rise(c: float) -> list[dict]:
    return [{"p": 1200, "c": 1000, "h": 400, "i": 0.01, "l": 0.15},
            {"p": 3000, "c": c, "h": 100, "i": 0.01, "l": 0.15}]


def test_per_period_economics_load_as_one_horizon(tmp_path):
    # salvage lies between the two periods' prices, so the first period
    # alone would not be a valid one-period horizon; the two together are
    cfg = load_config(str(write_config(tmp_path, N=2, periods=price_rise(1400), salvage=1250)))
    horizon = cfg.horizon()
    assert horizon.n_periods == 2 and horizon.period(1).price == 1200


def test_non_stationary_brackets_checked_where_levels_bind(tmp_path, capsys):
    # the borrow bracket's slope has the wrong sign only at worths above
    # upper.borrow, where the rule never uses the borrow level
    grid = json.loads((CONFIGS / "base.json").read_text())["grid"]
    path = write_config(tmp_path, N=2, periods=price_rise(1400), salvage=1250, grid=grid)
    for scale in ("0.5", "1"):
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / scale),
                     "--grid-scale", scale]) == 0
    # with c_2 = 1500 > c_1(1+i_1)+h_1 = 1410 no upper deposit bracket exists
    path = write_config(tmp_path, N=2, periods=price_rise(1500), salvage=1250)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert ("period 1: liquidation credit needs c(1+i)+h >= c_next (1410.0 < 1500.0)"
            in capsys.readouterr().err)


def test_initial_state_needs_two_numbers(tmp_path, capsys):
    path = write_config(tmp_path, initial=[0, 0, 0])
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "initial must be a list of two numbers" in capsys.readouterr().err


#: the message of a config that asks for another quadrature rule
FIXED_RULE = ("solver.quadrature_nodes must be 8 or absent: every expectation uses the "
              "fixed 8-point Gauss-Legendre rule per segment, got ")

#: the message of a config that asks for another bisection width
FIXED_EPSILON = ("solver.epsilon must be 0.001 or absent: the bisection pins every threshold "
                 "to within this fixed width, got ")


def test_quadrature_nodes_is_fixed(tmp_path, capsys):
    # configs written while the order was a setting still load
    path = write_config(tmp_path, solver={**BASE_CONFIG["solver"], "quadrature_nodes": 8})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["solver"]["quadrature_nodes"] == 8
    for nodes in (0, 16):
        path = write_config(tmp_path, solver={**BASE_CONFIG["solver"], "quadrature_nodes": nodes})
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "p")]) == 2
        assert FIXED_RULE + repr(nodes) in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


#: two periods whose unit cost rises from 1000 to `c`
def rising_cost(c: float) -> list[dict]:
    return [{"p": 4000, "c": 1000, "h": 100, "i": 0.01, "l": 0.15},
            {"p": 4000, "c": c, "h": 100, "i": 0.01, "l": 0.15}]


LIQUIDATION = "period 1: liquidation credit needs c(1+l)+h >= c_next (1250.0 < 2000.0)"


@pytest.mark.parametrize("command, c_next, message", [
    (["solve"], 2000, LIQUIDATION),
    (["simulate"], 2000, LIQUIDATION),
    (["tables", "--which", "table1"], 2000, LIQUIDATION),
    (["tables", "--which", "table2"], 2000, LIQUIDATION),
    (["tables", "--which", "table2"], 1105,
     "period 1: selling back needs c_next <= c + h (1105.0 > 1100.0)"),
], ids=["solve", "simulate", "table1", "table2", "table2_selling_back"])
def test_cost_rise_beyond_a_myopic_bound_is_config_error(tmp_path, capsys, command, c_next,
                                                          message):
    grid = dict(BASE_CONFIG["grid"], nx=21, ny=26)
    path = write_config(tmp_path, N=2, periods=rising_cost(c_next), grid=grid,
                        table_horizons=[2])
    out = tmp_path / "o"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("*.csv"))


def test_table_horizon_zero_rejected_not_replaced(tmp_path, capsys):
    path = write_config(tmp_path, table_horizons=[0])
    out = tmp_path / "o"
    assert main(["tables", "--which", "table2", "--config", str(path), "--out", str(out)]) == 2
    assert "table_horizons[0] must be a positive integer" in capsys.readouterr().err
    assert not (out / "table2.csv").exists()
    # an explicit horizon is used as given, never swapped for the config's N
    cfg = load_config(str(write_config(tmp_path)))
    with pytest.raises(ValueError, match="at least one period"):
        cfg.horizon(n_periods=0)


SOLVER = BASE_CONFIG["solver"]


@pytest.mark.parametrize("changes, message", [
    ({"table_states": ["a"]}, "table_states[0] must be a number >= 0"),
    ({"grid": {**BASE_CONFIG["grid"], "nx": "a"}}, "grid.nx must be an integer >= 2"),
    ({"grid": {**BASE_CONFIG["grid"], "ny": 1}}, "grid.ny must be an integer >= 2"),
    ({"grid": 5}, "grid must be an object"),
    ({"grid": {**BASE_CONFIG["grid"], "x_max": 5e-324}}, "grid: x nodes must be strictly"),
    ({"salvage": "x"}, "salvage must be a number"),
    ({"salvage": 10 ** 400}, "salvage must be a number"),
    ({"periods": [{**BASE_CONFIG["periods"][0], "l": "x"}]}, "periods[0].l must be a number"),
    ({"demands": [{"kind": "uniform", "lo": None, "hi": 20}]}, "demands[0].lo must be a number"),
    ({"solver": {**SOLVER, "seed": "x"}}, "solver.seed must be an integer >= 0"),
    ({"solver": {**SOLVER, "mc_paths": 0}}, "solver.mc_paths must be a positive integer"),
    ({"solver": {**SOLVER, "epsilon": -1}}, FIXED_EPSILON + "-1"),
    ({"solver": {**SOLVER, "epsilon": 0}}, FIXED_EPSILON + "0"),
    ({"solver": {**SOLVER, "epsilon": 1e-4}}, FIXED_EPSILON + "0.0001"),
    ({"check_reachability": "no"}, "check_reachability must be true or false"),
    ({"N": 10 ** 6}, "N must be at most 1000, got 1000000"),
    ({"grid": {**BASE_CONFIG["grid"], "nx": 1e15}}, "gives 1e+15 nodes; at most 4001"),
    ({"grid": {**BASE_CONFIG["grid"], "ny": 4002}}, "gives 4002 nodes; at most 4001"),
    ({"solver": {**SOLVER, "mc_paths": 10 ** 12}}, "solver.mc_paths must be at most 50000000"),
    ({"solver": {**SOLVER, "quadrature_nodes": 10 ** 15}}, FIXED_RULE + repr(10 ** 15)),
    ({"table_horizons": [3, 10 ** 9]}, "table_horizons[1] must be at most 2000"),
    ({"solver": {**SOLVER, "mc_path": 5}},
     "solver.mc_path: unknown field; did you mean 'mc_paths'?"),
    ({"grid": {**BASE_CONFIG["grid"], "n_x": 3}}, "grid.n_x: unknown field; did you mean 'nx'?"),
    ({"table_horizon": [1]}, "table_horizon: unknown field; did you mean 'table_horizons'?"),
    ({"periods": [{**BASE_CONFIG["periods"][0], "q": 1}]}, "periods[0].q: unknown field"),
    ({"demands": [{**BASE_CONFIG["demands"][0], "mode": 1}]}, "demands[0].mode: unknown field"),
    ({"demands": [{"kind": "uniform", "lo": 0, "hi": True}]}, "demands[0].hi must be a number"),
    ({"demands": [{"kind": "uniform", "lo": "5", "hi": 20}]}, "demands[0].lo must be a number"),
    ({"demands": [{"kind": "empirical", "values": [1, "2"], "probs": [0.5, 0.5]}]},
     "demands[0].values[1] must be a number, got '2'"),
    ({"demands": [{"kind": "zip", "pi": 0.18, "lambda": float("inf")}]},
     "demands[0].lambda must be a number, got inf"),
    ({"demands": [{"kind": "zip", "pi": 0.18, "lambda": 1e15}]},
     "demands[0].lambda must be at most 1000"),
    ({"demands": [{"kind": "integer_uniform", "lo": 5, "hi": 2}]},
     "demands[0]: integer uniform demand needs 0 <= lo <= hi, got lo=5, hi=2"),
    ({"demands": [{"kind": "integer_uniform", "lo": 0, "hi": 20.5}]},
     "demands[0].hi must be an integer >= 0, got 20.5"),
    ({"demands": [{"kind": "integer_uniform", "lo": 0, "hi": 10 ** 6}]},
     "demands[0].hi must be at most 1000"),
    ({"periods": [{**BASE_CONFIG["periods"][0], "c": 0}]}, "period 1: c > 0 violated (c=0.0)"),
], ids=["table_states", "grid_nx", "grid_ny", "grid", "grid_x_max_tiny", "salvage",
        "salvage_huge", "period_field", "demand_field", "seed", "mc_paths", "epsilon_negative",
        "epsilon_zero", "epsilon_finer", "check_reachability", "n_huge", "grid_nx_huge",
        "grid_ny_huge", "mc_paths_huge", "quadrature_nodes_huge", "table_horizon_huge",
        "solver_typo", "grid_typo", "root_typo", "period_typo", "demand_typo", "hi_bool", "lo_string",
        "values_string", "lambda_infinite", "lambda_huge", "integer_lo_above_hi",
        "integer_hi_fraction", "integer_hi_huge", "cost_zero"])
def test_malformed_field_is_config_error(tmp_path, capsys, changes, message):
    path = write_config(tmp_path, **changes)
    assert main(["tables", "--which", "table2", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


#: JSON values small enough that no field can ask for a large allocation
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1e6, 1e6, allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

#: every field of BASE_CONFIG, the nested ones too, and the optional fields
FIELDS = ([(k,) for k in (*BASE_CONFIG, "initial", "table_states", "table_horizons",
                          "check_reachability")]
          + [("grid", k) for k in BASE_CONFIG["grid"]]
          + [("solver", k) for k in (*SOLVER, "quadrature_nodes")]
          + [("periods", 0, k) for k in BASE_CONFIG["periods"][0]]
          + [("demands", 0, k) for k in BASE_CONFIG["demands"][0]])


@given(st.sampled_from(FIELDS), JSON_VALUES)
def test_any_json_field_loads_or_is_config_error(tmp_path_factory, field, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    holder = cfg
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = value
    path = tmp_path_factory.getbasetemp() / "any_field.json"
    path.write_text(json.dumps(cfg))
    try:
        load_config(str(path)).horizon()
    except ConfigError:
        pass


#: each object a config may hold: where it is, the prefix of its fields' names, its fields
OBJECTS = [((), "", ROOT_FIELDS), (("grid",), "grid.", GRID_FIELDS),
           (("solver",), "solver.", SOLVER_FIELDS), (("periods", 0), "periods[0].", PERIOD_FIELDS),
           (("demands", 0), "demands[0].", {"kind": None, **DEMAND_KINDS["uniform"][1]})]


@given(st.sampled_from(OBJECTS), st.text(min_size=1, max_size=6))
def test_unknown_key_is_config_error_naming_its_path(tmp_path_factory, obj, key):
    steps, prefix, fields = obj
    assume(key not in fields)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    holder = cfg
    for step in steps:
        holder = holder[step]
    holder[key] = 1
    path = tmp_path_factory.getbasetemp() / "unknown_key.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{prefix}{key}: unknown field")


def test_repeated_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(BASE_CONFIG).replace('"seed": 7', '"seed": 7, "seed": 8'))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "key(s) ['seed'] given twice in one object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_grid_scale_must_be_positive(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--grid-scale", "0"]) == 2
    assert "grid scale must be a number > 0" in capsys.readouterr().err


def test_size_bounds_apply_after_overrides(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "o")
    # 41 nodes scaled by 101 is 4041 > 4001; --paths is held to the same bound
    assert main(["solve", "--config", str(path), "--out", out, "--grid-scale", "101"]) == 2
    assert "grid.nx = 41 at grid scale 101 gives 4041 nodes" in capsys.readouterr().err
    assert main(["simulate", "--config", str(path), "--out", out,
                 "--paths", str(50_000_001)]) == 2
    assert "solver.mc_paths must be at most 50000000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # a grid scale that overflows the node count is an error, not a traceback
    with pytest.raises(ConfigError, match="gives inf nodes"):
        load_config(str(path), {"grid_scale": 1e308})
    # the bounds themselves are accepted: ny = 51 at scale 80 gives 4001 nodes
    cfg = load_config(str(path), {"grid_scale": 80.0, "paths": 50_000_000})
    assert cfg.grid.shape == (3201, 4001) and cfg.mc_paths == 50_000_000


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_shipped_configs_within_bounds():
    for name in ("base.json", "table1.json", "table2.json", "paper.json"):
        for scale in (0.25, 0.5, 1.0):
            cfg = load_config(str(CONFIGS / name), {"grid_scale": scale, "paths": 2_000_000})
            assert cfg.mc_paths == 2_000_000


def test_readme_cli_section_matches_the_parser():
    # the flags README's CLI section names are the ones the parser defines,
    # and no environment variable stands in for one
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    flags = {s for p in commands for a in p._actions for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags
    assert "CASHSTOCK_" not in readme


def test_readme_config_schema_loads(tmp_path):
    # the documented schema, its // comments stripped, is a valid config
    readme = (CONFIGS.parent / "README.md").read_text()
    schema = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "schema.json"
    path.write_text(re.sub(r"//.*", "", schema))
    cfg = load_config(str(path))
    assert cfg.horizon().n_periods == cfg.n_periods == 6


def per_cell_csv(header, rows) -> str:
    """Reference: every cell formatted on its own, numbers as %.6g."""
    return "".join(",".join(v if isinstance(v, str) else f"{float(v):.6g}" for v in row) + "\n"
                   for row in [header, *rows])


def test_write_csv_bytes_match_per_cell_format(tmp_path):
    label = DiscreteEmpirical(tuple(range(21)), (1 / 21,) * 21).label  # as `tables` writes it
    cells = [-0.0, 1e-7, 123456789.0, 123456789, 4.0, float("nan"), float("inf"),
             np.float64(0.1) + 0.2, np.int64(5000), -2.5e-300]
    rows = [(label, *cells), (label, *cells[::-1])]
    header = ["demand", *(f"c{k}" for k in range(len(cells)))]
    out = Emitter(tmp_path)
    out.write_csv("rows.csv", header, rows)
    out.write_csv("array.csv", header[1:], np.array([row[1:] for row in rows], dtype=float))
    out.write_csv("empty.csv", ["x"], np.empty((0, 1)))
    assert (tmp_path / "rows.csv").read_bytes() == per_cell_csv(header, rows).encode()
    assert (tmp_path / "array.csv").read_bytes() == per_cell_csv(
        header[1:], [row[1:] for row in rows]).encode()
    assert (tmp_path / "empty.csv").read_bytes() == b"x\n"


def test_solve_outputs_and_manifest(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == on_disk
    assert (out / "thresholds.csv").exists()
    assert (out / "value_period_1.csv").exists()
    header, rows = read_csv(out / "thresholds.csv")
    assert header == ["period", "net_worth", "borrow_lo", "borrow", "borrow_hi",
                      "deposit_lo", "deposit", "deposit_hi"]
    assert len(rows) > 100


def test_solve_deterministic_across_runs(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(path), "--out", str(out2)]) == 0
    for name in ["value_period_1.csv", "thresholds.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_check_reachability_true_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, check_reachability=True)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert ("check_reachability must be false or absent: the grid-reachability gate "
            "was removed") in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is solved
    load_config(str(write_config(tmp_path, check_reachability=False)))


def test_tables_policy_gaps(tmp_path):
    path = write_config(tmp_path, demands=[
        {"kind": "uniform", "lo": 0, "hi": 20},
        {"kind": "zip", "pi": 0.18, "lambda": 10},
    ])
    out = tmp_path / "t1"
    assert main(["tables", "--which", "table1", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "table1.csv")
    assert header[:3] == ["demand", "cv", "v_opt"]
    assert len(rows) == 2  # one row per demand scenario
    for row in rows:
        assert float(row[2]) > 0


@pytest.mark.parametrize("demand", [{"kind": "integer_uniform", "lo": 0, "hi": 0},
                                    {"kind": "zip", "pi": 0.18, "lambda": 0}],
                         ids=["integer_uniform_0_0", "zip_lambda_0"])
def test_table1_zero_mean_demand_is_config_error(tmp_path, capsys, monkeypatch, demand):
    # the cv column divides by the mean: the command stops before any solve
    def no_solve(*args):
        raise AssertionError("gap_report ran")

    monkeypatch.setattr("cashstock.cli.gap_report", no_solve)
    path = write_config(tmp_path, demands=[BASE_CONFIG["demands"][0], demand])
    out = tmp_path / "o"
    assert main(["tables", "--which", "table1", "--config", str(path), "--out", str(out)]) == 2
    assert ("demands[1] has mean 0: table1's cv column (standard deviation / mean) "
            "is undefined") in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_tables_value_bounds(tmp_path):
    path = write_config(tmp_path, table_horizons=[2, 3], table_states=[0.0, 7.0])
    out = tmp_path / "t2"
    assert main(["tables", "--which", "table2", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "table2.csv")
    assert len(rows) == 4  # 2 horizons x 1 demand x 2 states
    for row in rows:
        v, lo, up = float(row[3]), float(row[4]), float(row[7])
        assert lo <= v + 5e-3 * abs(v)
        assert v <= up + 5e-3 * abs(v)


def test_table2_rows_match_per_horizon_bounds(tmp_path):
    path = write_config(tmp_path, table_horizons=[3, 1, 2], table_states=[0.0, 7.0], demands=[
        {"kind": "uniform", "lo": 0, "hi": 20},
        {"kind": "zip", "pi": 0.18, "lambda": 10},
    ])
    out = tmp_path / "t2"
    assert main(["tables", "--which", "table2", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(out / "table2.csv")
    cfg = load_config(str(path))
    want = []
    for n in (3, 1, 2):
        for dem in cfg.demands:
            hz = HorizonSpec.stationary(n, cfg.periods[0], dem, cfg.salvage)
            for r in compare_bounds(hz, cfg.grid, [(0.0, 0.0), (7.0, 0.0)]).rows:
                want.append([f"{n:.6g}", dem.label] + [f"{v:.6g}" for v in (
                    r.x, r.optimal, r.lower, r.lower_gap, r.lower_gap_pct,
                    r.upper, r.upper_gap, r.upper_gap_pct)])
    assert rows == want


#: a two-period horizon whose periods differ: no other horizon length fits it
TWO_PERIODS = [{"p": 2000, "c": 1000, "h": 500, "i": 0.01, "l": 0.15},
               {"p": 2600, "c": 1000, "h": 500, "i": 0.01, "l": 0.15}]


@pytest.mark.parametrize("command", [["tables", "--which", "table2"], ["figures"]])
def test_periods_list_of_another_length_is_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, N=2, periods=TWO_PERIODS, table_horizons=[2, 4, 1])
    out = tmp_path / "o"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert "periods has 2 entries, but horizon N=1 needs one per period" in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("*.csv"))


def test_figures_outputs(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "fig"
    assert main(["figures", "--config", str(path), "--out", str(out)]) == 0

    header, rows = read_csv(out / "fig_order_quantity.csv")
    ys = np.array([float(r[0]) for r in rows])
    qs = np.array([float(r[1]) for r in rows])
    borrow, deposit = 12.142857142857142, 14.142857142857144
    low = ys < borrow - 1e-6
    band = (ys >= borrow) & (ys < deposit - 1e-6)
    high = ys > deposit + 1e-6
    assert np.allclose(qs[low], borrow, atol=1e-6)      # flat at the borrow level
    assert np.allclose(qs[band], ys[band], atol=1e-6)   # identity inside the band
    assert np.allclose(qs[high], deposit, atol=1e-6)    # flat at the deposit level

    header, rows = read_csv(out / "fig_selling_back.csv")
    data = {}
    for r in rows:
        data.setdefault(int(float(r[0])), []).append((float(r[1]), float(r[2])))
    curves = {n: dict(pts) for n, pts in data.items()}
    worth_hi = max(w for w, _ in data[1])
    worth_lo = min(w for w, _ in data[1])
    assert curves[6][worth_hi] > curves[1][worth_hi]   # longer horizon wins when rich
    assert curves[6][worth_lo] < curves[1][worth_lo]   # debt compounds when poor

    header, rows = read_csv(out / "fig_value_surface.csv")
    surf = {}
    for r in rows:
        surf.setdefault(float(r[0]), []).append(float(r[2]))
    for x, vals in surf.items():
        assert np.all(np.diff(vals) >= -1e-6)  # monotone along y


def test_simulate_csv(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "simulation.csv")
    assert header == ["policy", "mean", "half_width", "paths"]
    assert {r[0] for r in rows} == {"optimal-thresholds", "myopic-lower", "myopic-upper"}
    assert all(int(float(r[3])) == 5000 for r in rows)


@pytest.mark.parametrize("demand", [None, {"kind": "zip", "pi": 0.0, "lambda": 10}],
                         ids=["paper-integer-u0_20", "zip00"])
def test_atom_demand_solves_and_simulates(tmp_path, capsys, demand):
    # atom demand puts the myopic brackets on atoms, where the stage slope
    # jumps: the bracket holds for the subgradient there
    cfg = json.loads((CONFIGS / "paper.json").read_text())
    if demand is not None:
        cfg["demands"] = [demand]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    args = ["--config", str(path), "--grid-scale", "0.25"]
    assert main(["solve", *args, "--out", str(tmp_path / "solve")]) == 0
    v1 = float(capsys.readouterr().out.rsplit("= ", 1)[1])
    _, rows = read_csv(tmp_path / "solve" / "thresholds.csv")
    _, _, borrow_lo, borrow, borrow_hi, deposit_lo, deposit, deposit_hi = np.array(
        rows, dtype=float).T
    assert np.all((borrow_lo <= borrow) & (borrow <= borrow_hi))
    assert np.all((deposit_lo <= deposit) & (deposit <= deposit_hi))
    assert main(["simulate", *args, "--out", str(tmp_path / "sim")]) == 0
    _, rows = read_csv(tmp_path / "sim" / "simulation.csv")
    mean, half = next((float(r[1]), float(r[2])) for r in rows if r[0] == "optimal-thresholds")
    assert abs(mean - v1) <= half + 0.01 * v1


def test_grid_scale_override(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "scaled"
    assert main(["solve", "--config", str(path), "--out", str(out),
                 "--grid-scale", "0.5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver"]["grid_shape"] == [21, 26]
