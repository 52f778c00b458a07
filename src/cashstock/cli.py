"""Command-line front door: config ingestion, solver runs, CSV emission.

Subcommands: solve, tables, figures, simulate. Config is a JSON document;
see README for the schema. Every run writes a manifest listing the emitted
files; CSV bodies are deterministic for a fixed config and seed.

Exit codes: 0 success, 2 config error, 3 solver bracket failure.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import sys
import time
from dataclasses import astuple, dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import single_period
from .bounds import (_require_no_sellback_profit, compare_bounds, default_worth_grid,
                     selling_back_dp)
from .demand import (QUAD_ORDER, Demand, DiscreteEmpirical, Uniform, ZeroInflatedPoisson,
                     integer_uniform)
from .dp import Grid, backward_induct
from .model import HorizonSpec, PeriodParams, State, validate
from .sim import MyopicPolicy, ThresholdPolicy, gap_report, run_policies
from .thresholds import EPSILON, BracketError, solve_thresholds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

#: upper bounds on the sizes a config may ask for, so that an absurd value
#: is a config error before anything is allocated; each is far beyond the
#: shipped configs (N <= 12, 161x201 nodes, 2M paths in the benchmark)
MAX_PERIODS = 1_000
MAX_AXIS_NODES = 4_001
MAX_PATHS = 50_000_000
#: a zip rate or integer-uniform bound: ZIP(0.18, 1000) has 1,233 atoms
MAX_DEMAND = 1_000
#: the default of a config field that has none: the config must give it
REQUIRED = object()


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(value, what: str, low: float = -np.inf, *, strict: bool = False,
            most: float = math.inf) -> float:
    ok = _is_number(value) and (value > low if strict else value >= low)
    bound = "" if low == -np.inf else f" {'>' if strict else '>='} {low:g}"
    _require(ok, f"{what} must be a number{bound}, got {value!r}")
    _require(value <= most, f"{what} must be at most {most}, got {value!r}")
    return float(value)


def _integer(value, what: str, least: int = 1, most: float = math.inf) -> int:
    ok = _is_number(value) and value == int(value) and value >= least
    bound = "a positive integer" if least == 1 else f"an integer >= {least}"
    _require(ok, f"{what} must be {bound}, got {value!r}")
    _require(value <= most, f"{what} must be at most {most}, got {value!r}")
    return int(value)


def _axis_nodes(nodes: int, what: str, scale: float) -> int:
    """Node count of a grid axis after `--grid-scale`, at most MAX_AXIS_NODES."""
    scaled = (nodes - 1) * scale
    _require(math.isfinite(scaled) and round(scaled) + 1 <= MAX_AXIS_NODES,
             f"{what} = {nodes!r} at grid scale {scale:g} gives {scaled + 1:g} nodes; "
             f"at most {MAX_AXIS_NODES} are allowed")
    return max(2, int(round(scaled)) + 1)


def _list(value, what: str, parse=_number, **bounds) -> list:
    """A nonempty list, each entry read by `parse`."""
    _require(isinstance(value, list) and value, f"{what} must be a nonempty list, got {value!r}")
    return [parse(v, f"{what}[{k}]", **bounds) for k, v in enumerate(value)]


def _fields(spec, where: str, table: dict) -> dict:
    """The object `spec` read by `table`, which maps each field to its default
    (or REQUIRED) and its parser; an unknown key's error names the closest field."""
    _require(isinstance(spec, dict), f"{where or 'config root'} must be an object")
    prefix = f"{where}." if where else ""
    for key in spec:
        if key not in table:
            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean '{close[0]}'?" if close else ""
            raise ConfigError(f"{prefix}{key}: unknown field{hint}")
    for key, (default, _) in table.items():
        _require(key in spec or default is not REQUIRED, f"missing field {prefix}{key}")
    return {key: parse(spec[key], prefix + key) if key in spec else default
            for key, (default, parse) in table.items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, where json would keep a repeated key's last value."""
    keys = [key for key, _ in pairs]
    twice = sorted({key for key in keys if keys.count(key) > 1})
    _require(not twice, f"key(s) {twice} given twice in one object")
    return dict(pairs)


#: each demand kind: its class, and its fields' parsers in the class's argument order
DEMAND_KINDS = {
    "uniform": (Uniform, {"lo": _number, "hi": _number}),
    "integer_uniform": (integer_uniform,
                        dict.fromkeys(("lo", "hi"), partial(_integer, least=0, most=MAX_DEMAND))),
    "zip": (ZeroInflatedPoisson, {"pi": _number, "lambda": partial(_number, most=MAX_DEMAND)}),
    "empirical": (DiscreteEmpirical, {"values": _list, "probs": _list}),
}


def parse_demand(spec, where: str) -> Demand:
    _require(isinstance(spec, dict), f"{where} must be an object")
    kind = spec.get("kind")
    _require(isinstance(kind, str) and kind in DEMAND_KINDS,
             f"{where}.kind must be one of {', '.join(DEMAND_KINDS)}, got {kind!r}")
    cls, parsers = DEMAND_KINDS[kind]
    fields = {key: value for key, value in spec.items() if key != "kind"}
    args = _fields(fields, where, {key: (REQUIRED, p) for key, p in parsers.items()}).values()
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _fixed(value, what: str, constant, reason: str):
    _require(_is_number(value) and value == constant,
             f"{what} must be {constant} or absent: {reason}, got {value!r}")
    return constant


def _no_reachability_gate(value, what: str) -> bool:
    _require(isinstance(value, bool), f"{what} must be true or false, got {value!r}")
    _require(not value, f"{what} must be false or absent: the grid-reachability gate was "
             "removed, because its interval bound on reachable capital rejected grids whose "
             "solution a wider capital axis does not change (the paper's 161x201 grid among "
             "them)")
    return False


PERIOD_FIELDS = dict.fromkeys(("p", "c", "h", "i", "l"), (REQUIRED, _number))
GRID_FIELDS = {"x_max": (REQUIRED, partial(_number, low=0.0, strict=True)),
               "y_min": (REQUIRED, _number), "y_max": (REQUIRED, _number),
               **dict.fromkeys(("nx", "ny"), (REQUIRED, partial(_integer, least=2)))}
SOLVER_FIELDS = {"epsilon": (EPSILON, partial(
                     _fixed, constant=EPSILON,
                     reason="the bisection pins every threshold to within this fixed width")),
                 "mc_paths": (100_000, partial(_integer, most=MAX_PATHS)),
                 "seed": (0, partial(_integer, least=0)),
                 "quadrature_nodes": (QUAD_ORDER, partial(
                     _fixed, constant=QUAD_ORDER,
                     reason=f"every expectation uses the fixed {QUAD_ORDER}-point "
                            "Gauss-Legendre rule per segment"))}
ROOT_FIELDS = {"N": (REQUIRED, partial(_integer, most=MAX_PERIODS)),
               "salvage": (REQUIRED, _number),
               "periods": (REQUIRED, partial(_list, parse=partial(_fields, table=PERIOD_FIELDS))),
               "demands": (REQUIRED, partial(_list, parse=parse_demand)),
               "grid": (REQUIRED, partial(_fields, table=GRID_FIELDS)),
               "solver": (_fields({}, "solver", SOLVER_FIELDS),
                          partial(_fields, table=SOLVER_FIELDS)),
               "initial": ([0.0, 0.0], _list),
               "table_states": ([0.0, 7.0, 14.0], partial(_list, low=0.0)),
               # [] stands for [N, 2N]; twice N's bound, as [N, 2N] reaches
               "table_horizons": ([], partial(_list, parse=_integer, most=2 * MAX_PERIODS)),
               "check_reachability": (False, _no_reachability_gate)}


@dataclass
class RunConfig:
    n_periods: int
    salvage: float
    periods: list[PeriodParams]
    demands: list[Demand]
    grid: Grid
    mc_paths: int
    seed: int
    initial: tuple[float, float]
    table_states: list[float]
    table_horizons: list[int]
    raw: dict

    def horizon(self, demand: Demand | None = None, n_periods: int | None = None) -> HorizonSpec:
        n = self.n_periods if n_periods is None else n_periods
        demands = self.demands if demand is None else [demand]
        _require(len(self.periods) in (1, n),
                 f"periods has {len(self.periods)} entries, but horizon N={n} needs one "
                 "per period or a single one for every period")
        _require(len(demands) in (1, n),
                 f"demands must have 1 or N={n} entries for this command; got {len(demands)} "
                 "(a longer list is only meaningful as the scenario roster of 'tables')")
        # one entry stands for every period
        horizon = HorizonSpec(*(list(items) if len(items) == n else [items[0]] * n
                                for items in (self.periods, demands)), self.salvage)
        report = validate(horizon)
        if not report.ok:
            raise ConfigError(f"invalid horizon:\n{report}")
        # the thresholds' brackets, the myopic policies and the bound chain
        # all need the liquidation-credit myopic policy
        shortfalls = [m for k in range(1, n) if (m := horizon.liquidation_shortfall(k))]
        _require(not shortfalls, "invalid horizon: " + "; ".join(shortfalls))
        return horizon

    def longest_horizon(self, lengths, demand: Demand | None = None) -> HorizonSpec:
        """The horizon of the longest of `lengths`, once `horizon` has
        accepted every length. Each shorter one is then its tail: periods and
        demands are either one entry repeated or exactly the longest's."""
        for n in lengths:
            self.horizon(demand, n)
        return self.horizon(demand, max(lengths))


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """The run of the config at `path`; `overrides` (grid_scale, paths, seed)
    replace the config's values, as the command-line flags do."""
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    root = _fields(raw, "", ROOT_FIELDS)
    n, g, solver = root["N"], root["grid"], dict(root["solver"])
    periods = [PeriodParams(*period.values()) for period in root["periods"]]
    _require(len(periods) in (1, n), f"periods must have 1 or N={n} entries")
    _require(len(root["initial"]) == 2,
             f"initial must be a list of two numbers [x, y], got {root['initial']}")
    overrides = overrides or {}
    for flag, key in (("paths", "mc_paths"), ("seed", "seed")):
        if flag in overrides:
            solver[key] = SOLVER_FIELDS[key][1](overrides[flag], f"solver.{key}")
    scale = _number(overrides.get("grid_scale", 1.0), "grid scale", 0.0, strict=True)
    nx, ny = (_axis_nodes(g[key], f"grid.{key}", scale) for key in ("nx", "ny"))
    _require(g["y_min"] < g["y_max"], "grid needs y_min < y_max")
    try:
        grid = Grid.regular(g["x_max"], g["y_min"], g["y_max"], nx, ny)
    except ValueError as exc:  # a span too small for the nodes to differ
        raise ConfigError(f"grid: {exc}") from None
    return RunConfig(n, root["salvage"], periods, root["demands"], grid,
                     solver["mc_paths"], solver["seed"],
                     tuple(root["initial"]), root["table_states"],
                     root["table_horizons"] or [n, 2 * n], raw)


def config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _fmt(x) -> str:
    return f"{float(x):.6g}"


class Emitter:
    """Writes CSVs into the output directory and records them for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """Write `rows`, a 2-D array or an iterable of rows, under `header`.

        Numbers are written as `_fmt` writes them and string cells as they
        are; each column holds numbers or strings throughout, as its first
        row does.
        """
        rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
        text = ",".join(header) + "\n"
        if rows:
            line = ",".join("%s" if isinstance(v, str) else "%.6g" for v in rows[0])
            text += "\n".join([line] * len(rows)) % tuple(chain.from_iterable(rows)) + "\n"
        (self.out_dir / name).write_text(text)
        self.files.append(name)

    def write_manifest(self, command: str, cfg: RunConfig) -> None:
        manifest = {
            "command": command,
            "config_hash": config_hash(cfg.raw),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "solver": {
                "epsilon": EPSILON,
                "quadrature_nodes": QUAD_ORDER,
                "mc_paths": cfg.mc_paths,
                "seed": cfg.seed,
                "grid_shape": list(cfg.grid.shape),
            },
            "outputs": sorted(self.files),
        }
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_solve(cfg: RunConfig, out: Emitter) -> int:
    horizon = cfg.horizon()
    solution = backward_induct(horizon, cfg.grid)
    table = solve_thresholds(horizon, cfg.grid, solution=solution)
    X, Y = cfg.grid.mesh()
    for n in range(1, horizon.n_periods + 1):
        z = solution.policy(n).order_up_to
        cols = (X, Y, solution.value(n).values, z, z - X)
        out.write_csv(f"value_period_{n}.csv", ["x", "y", "value", "order_up_to", "q"],
                      np.column_stack([c.ravel() for c in cols]))
    thr_rows = np.concatenate([
        np.column_stack(np.broadcast_arrays(
            row.n, row.worth, row.lower.borrow, row.borrow, row.upper.borrow,
            row.lower.deposit, row.deposit, row.upper.deposit))
        for row in table.periods])
    out.write_csv("thresholds.csv",
                  ["period", "net_worth", "borrow_lo", "borrow", "borrow_hi",
                   "deposit_lo", "deposit", "deposit_hi"], thr_rows)
    x0, y0 = cfg.initial
    print(f"solved {horizon.n_periods} periods; "
          f"V_1({_fmt(x0)},{_fmt(y0)}) = {_fmt(solution.value(1)(x0, y0))}")
    return EXIT_OK


def cmd_tables(cfg: RunConfig, out: Emitter, which: str) -> int:
    if which == "table1":
        for k, dem in enumerate(cfg.demands):
            _require(dem.mean() > 0, f"demands[{k}] has mean 0: table1's cv column "
                     "(standard deviation / mean) is undefined")
        horizons = [cfg.horizon(demand=dem) for dem in cfg.demands]
        rows = [astuple(gap_report(hz, cfg.grid, State(*cfg.initial))) for hz in horizons]
        out.write_csv("table1.csv",
                      ["demand", "cv", "v_opt", "v_myopic_lower", "gap_lower_pct",
                       "v_myopic_upper", "gap_upper_pct"], rows)
        return EXIT_OK
    # table2: bound chain per horizon length, demand, and inventory state.
    # Each demand is solved once, at the longest horizon, and its tables are
    # released before the next; the shorter horizons are read as its tails
    lengths = sorted(set(cfg.table_horizons))
    states = [(x, 0.0) for x in cfg.table_states]
    horizons = [cfg.longest_horizon(lengths, demand=dem) for dem in cfg.demands]
    try:  # the relaxation's condition reads the periods, which every demand shares
        _require_no_sellback_profit(horizons[0])
    except ValueError as exc:
        raise ConfigError(f"invalid horizon for the selling-back bound: {exc}") from None
    reports = [compare_bounds(hz, cfg.grid, states, lengths=lengths) for hz in horizons]
    rows = [(n, dem.label, r.x, r.optimal, r.lower, r.lower_gap, r.lower_gap_pct,
             r.upper, r.upper_gap, r.upper_gap_pct)
            for n in cfg.table_horizons
            for dem, report in zip(cfg.demands, reports)
            for r in report.rows if r.n_periods == n]
    out.write_csv("table2.csv",
                  ["N", "demand", "x", "v_opt", "v_lower", "gap_lower", "gap_lower_pct",
                   "v_upper", "gap_upper", "gap_upper_pct"], rows)
    return EXIT_OK


def cmd_figures(cfg: RunConfig, out: Emitter) -> int:
    horizon = cfg.horizon()
    # the selling-back curves: one relaxation at the longest horizon, whose
    # tail is the n-period curve
    lengths = (1, 2, 4, 6)
    sell_horizon = cfg.longest_horizon(lengths)
    params, demand = horizon.period(1), horizon.demand_in(1)
    bands = single_period.order_bands(single_period.fractiles(params, cfg.salvage), demand)
    ys = np.linspace(-bands.deposit, 2.0 * bands.deposit, 241)
    out.write_csv("fig_order_quantity.csv", ["y", "q"],
                  np.column_stack([ys, single_period.optimal_order(0.0, ys, bands)]))

    solution = backward_induct(horizon, cfg.grid)
    vt = solution.value(1)
    xi = np.linspace(0, len(cfg.grid.x_nodes) - 1, min(41, len(cfg.grid.x_nodes))).astype(int)
    yi = np.linspace(0, len(cfg.grid.y_nodes) - 1, min(41, len(cfg.grid.y_nodes))).astype(int)
    xs, ys = np.meshgrid(cfg.grid.x_nodes[xi], cfg.grid.y_nodes[yi], indexing="ij")
    out.write_csv("fig_value_surface.csv", ["x", "y", "value"],
                  np.column_stack([xs.ravel(), ys.ravel(), vt.values[np.ix_(xi, yi)].ravel()]))

    worth = default_worth_grid(cfg.grid)
    tables = selling_back_dp(sell_horizon, worth)
    rows = [(n, w, v) for n in lengths for w, v in zip(worth, tables[-n].values)]
    out.write_csv("fig_selling_back.csv", ["N", "net_worth", "value"], rows)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: Emitter) -> int:
    horizon = cfg.horizon()
    solution = backward_induct(horizon, cfg.grid)
    table = solve_thresholds(horizon, cfg.grid, solution=solution)
    initial = State(*cfg.initial)
    policies = [ThresholdPolicy(table, label="optimal-thresholds"),
                MyopicPolicy(horizon, "lower"), MyopicPolicy(horizon, "upper")]
    rows = []
    for res in run_policies(horizon, policies, initial, cfg.mc_paths, cfg.seed):
        rows.append((res.label, res.mean, res.half_width, res.paths))
        print(f"{res.label}: {_fmt(res.mean)} +/- {_fmt(res.half_width)} "
              f"({res.paths} paths)")
    out.write_csv("simulation.csv", ["policy", "mean", "half_width", "paths"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cashstock",
        description="Joint ordering/financing policies for cash-constrained inventory.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "solve the horizon and dump value/policy/threshold tables"),
        ("tables", "emit the optimality-gap or bound-comparison table"),
        ("figures", "emit plot data (policy curve, value surface, relaxation curves)"),
        ("simulate", "Monte Carlo evaluation of the solved and myopic policies"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int)
        p.add_argument("--paths", type=int)
        p.add_argument("--grid-scale", type=float)
        if name == "tables":
            p.add_argument("--which", choices=["table1", "table2"], default="table1")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key in ("seed", "paths", "grid_scale")
                 if (value := getattr(args, key)) is not None}
    try:
        cfg = load_config(args.config, overrides)
        out = Emitter(Path(args.out))
        if args.command == "tables":
            code = cmd_tables(cfg, out, args.which)
        else:
            code = {"solve": cmd_solve, "figures": cmd_figures,
                    "simulate": cmd_simulate}[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BracketError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out.write_manifest(args.command, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
