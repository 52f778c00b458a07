"""Command-line front door: config ingestion, solver runs, CSV emission.

Subcommands: solve, tables, figures, simulate. Config is a JSON document;
see README for the schema. Every run writes a manifest listing the emitted
files; CSV bodies are deterministic for a fixed config and seed.

Exit codes: 0 success, 2 config error, 3 solver bracket failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import single_period
from .bounds import (_require_no_sellback_profit, compare_bounds, default_worth_grid,
                     selling_back_dp)
from .demand import QUAD_ORDER, Demand, DiscreteEmpirical, Uniform, ZeroInflatedPoisson
from .dp import Grid, backward_induct
from .model import HorizonSpec, PeriodParams, State, validate
from .sim import MyopicPolicy, ThresholdPolicy, gap_report, run_policies
from .thresholds import BracketError, solve_thresholds

ENV_PREFIX = "CASHSTOCK_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

#: upper bounds on the sizes a config may ask for, so that an absurd value
#: is a config error before anything is allocated; each is far beyond the
#: shipped configs (N <= 12, 161x201 nodes, 2M paths in the benchmark)
MAX_PERIODS = 1_000
MAX_AXIS_NODES = 4_001
MAX_PATHS = 50_000_000


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


def _number(value, what: str, low: float = -np.inf, *, strict: bool = False) -> float:
    ok = _is_number(value) and (value > low if strict else value >= low)
    bound = "" if low == -np.inf else f" {'>' if strict else '>='} {low:g}"
    _require(ok, f"{what} must be a number{bound}, got {value!r}")
    return float(value)


def _integer(value, what: str, least: int = 1, most: float = math.inf) -> int:
    ok = _is_number(value) and value == int(value) and value >= least
    bound = "a positive integer" if least == 1 else f"an integer >= {least}"
    _require(ok, f"{what} must be {bound}, got {value!r}")
    _require(value <= most, f"{what} must be at most {most}, got {value!r}")
    return int(value)


def _axis_nodes(value, what: str, scale: float) -> int:
    """Node count of a grid axis after `--grid-scale`, at most MAX_AXIS_NODES."""
    scaled = (_integer(value, what, least=2) - 1) * scale
    _require(math.isfinite(scaled) and round(scaled) + 1 <= MAX_AXIS_NODES,
             f"{what} = {value!r} at grid scale {scale:g} gives {scaled + 1:g} nodes; "
             f"at most {MAX_AXIS_NODES} are allowed")
    return max(2, int(round(scaled)) + 1)


def _number_pair(value, what: str) -> tuple[float, float]:
    ok = isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)
    _require(ok, f"{what} must be a list of two numbers [x, y], got {value!r}")
    return float(value[0]), float(value[1])


def parse_demand(spec, where: str) -> Demand:
    _require(isinstance(spec, dict) and "kind" in spec, f"{where}: demand needs a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            return Uniform(float(spec["lo"]), float(spec["hi"]))
        if kind == "zip":
            return ZeroInflatedPoisson(float(spec["pi"]), float(spec["lambda"]))
        if kind == "empirical":
            return DiscreteEmpirical(tuple(spec["values"]), tuple(spec["probs"]))
    except KeyError as exc:
        raise ConfigError(f"{where}: demand kind '{kind}' is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unknown demand kind '{kind}' "
                      "(expected uniform, zip, or empirical)")


def parse_period(spec, where: str) -> PeriodParams:
    _require(isinstance(spec, dict), f"{where}: period must be an object")
    missing = [k for k in ("p", "c", "h", "i", "l") if k not in spec]
    _require(not missing, f"{where}: period is missing field(s) {missing}")
    return PeriodParams(*(_number(spec[k], f"{where}.{k}") for k in ("p", "c", "h", "i", "l")))


@dataclass
class RunConfig:
    n_periods: int
    salvage: float
    periods: list[PeriodParams]
    demands: list[Demand]
    grid: Grid
    epsilon: float = 1e-3
    mc_paths: int = 100_000
    seed: int = 0
    initial: tuple[float, float] = (0.0, 0.0)
    table_states: list[float] = field(default_factory=lambda: [0.0, 7.0, 14.0])
    table_horizons: list[int] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def horizon(self, demand: Demand | None = None, n_periods: int | None = None) -> HorizonSpec:
        n = self.n_periods if n_periods is None else n_periods
        if len(self.periods) not in (1, n):
            raise ConfigError(
                f"periods has {len(self.periods)} entries, but horizon N={n} needs one "
                "per period or a single one for every period")
        periods = list(self.periods) if len(self.periods) == n else [self.periods[0]] * n
        if demand is not None:
            demands = [demand] * n
        elif len(self.demands) in (1, n):
            demands = list(self.demands) if len(self.demands) == n else [self.demands[0]] * n
        else:
            raise ConfigError(
                f"demands must have 1 or N={n} entries for this command; "
                f"got {len(self.demands)} (a longer list is only meaningful as "
                "the scenario roster of 'tables')")
        horizon = HorizonSpec(periods, demands, self.salvage)
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
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config root must be an object")
    for key in ("N", "salvage", "periods", "demands", "grid"):
        _require(key in raw, f"config is missing required field '{key}'")
    n = _integer(raw["N"], "N", most=MAX_PERIODS)
    periods_raw = raw["periods"]
    _require(isinstance(periods_raw, list) and periods_raw, "periods must be a nonempty list")
    _require(len(periods_raw) in (1, n), f"periods must have 1 or N={n} entries")
    demands_raw = raw["demands"]
    _require(isinstance(demands_raw, list) and demands_raw, "demands must be a nonempty list")
    periods = [parse_period(p, f"periods[{k}]") for k, p in enumerate(periods_raw)]
    demands = [parse_demand(d, f"demands[{k}]") for k, d in enumerate(demands_raw)]

    g = raw["grid"]
    _require(isinstance(g, dict), "grid must be an object")
    for key in ("x_max", "y_min", "y_max", "nx", "ny"):
        _require(key in g, f"grid is missing field '{key}'")
    solver = raw.get("solver", {})
    _require(isinstance(solver, dict), "solver must be an object")
    nodes = solver.get("quadrature_nodes", QUAD_ORDER)
    _require(_is_number(nodes) and nodes == QUAD_ORDER,
             f"solver.quadrature_nodes must be {QUAD_ORDER} or absent: every expectation "
             f"uses the fixed {QUAD_ORDER}-point Gauss-Legendre rule per segment, "
             f"got {nodes!r}")
    horizons = raw.get("table_horizons", [n, 2 * n])
    _require(isinstance(horizons, list) and horizons, "table_horizons must be a nonempty list")
    states = raw.get("table_states", [0.0, 7.0, 14.0])
    _require(isinstance(states, list) and states, "table_states must be a nonempty list")
    check = raw.get("check_reachability", False)
    _require(isinstance(check, bool), f"check_reachability must be true or false, got {check!r}")
    _require(not check, "check_reachability must be false or absent: the grid-reachability "
             "gate was removed, because its interval bound on reachable capital rejected "
             "grids whose solution a wider capital axis does not change (the paper's "
             "161x201 grid among them)")
    overrides = overrides or {}
    scale = _number(overrides.get("grid_scale", 1.0), "grid scale", 0.0, strict=True)
    nx = _axis_nodes(g["nx"], "grid.nx", scale)
    ny = _axis_nodes(g["ny"], "grid.ny", scale)
    x_max = _number(g["x_max"], "grid.x_max", 0.0, strict=True)
    y_min, y_max = _number(g["y_min"], "grid.y_min"), _number(g["y_max"], "grid.y_max")
    _require(y_min < y_max, "grid needs y_min < y_max")
    try:
        grid = Grid.regular(x_max, y_min, y_max, nx, ny)
    except ValueError as exc:  # a span too small for the nodes to differ
        raise ConfigError(f"grid: {exc}") from None

    cfg = RunConfig(
        n_periods=n,
        salvage=_number(raw["salvage"], "salvage"),
        periods=periods,
        demands=demands,
        grid=grid,
        epsilon=_number(overrides.get("epsilon", solver.get("epsilon", 1e-3)),
                        "solver.epsilon", 0.0, strict=True),
        mc_paths=_integer(overrides.get("paths", solver.get("mc_paths", 100_000)),
                          "solver.mc_paths", most=MAX_PATHS),
        seed=_integer(overrides.get("seed", solver.get("seed", 0)), "solver.seed", least=0),
        initial=_number_pair(raw.get("initial", [0.0, 0.0]), "initial"),
        table_states=[_number(v, f"table_states[{k}]", 0.0)
                      for k, v in enumerate(states)],
        # twice N's bound, as the default horizons [N, 2N] reach
        table_horizons=[_integer(v, f"table_horizons[{k}]", most=2 * MAX_PERIODS)
                        for k, v in enumerate(horizons)],
        raw=raw,
    )
    return cfg


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
                "epsilon": cfg.epsilon,
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
    table = solve_thresholds(horizon, cfg.grid, solution=solution, epsilon=cfg.epsilon)
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
        rows = [astuple(gap_report(cfg.horizon(demand=dem), cfg.grid, State(*cfg.initial)))
                for dem in cfg.demands]
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
    table = solve_thresholds(horizon, cfg.grid, solution=solution, epsilon=cfg.epsilon)
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


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


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
        p.add_argument("--config", default=_env_default("CONFIG"), required=False)
        p.add_argument("--out", default=_env_default("OUT", "out"))
        p.add_argument("--seed", type=int, default=_env_default("SEED"))
        p.add_argument("--paths", type=int, default=_env_default("PATHS"))
        p.add_argument("--grid-scale", type=float, default=_env_default("GRID_SCALE"))
        p.add_argument("--epsilon", type=float, default=_env_default("EPSILON"))
        if name == "tables":
            p.add_argument("--which", choices=["table1", "table2"], default="table1")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.config:
        print("error: --config is required (or set CASHSTOCK_CONFIG)", file=sys.stderr)
        return EXIT_CONFIG
    overrides = {k: v for k, v in {
        "seed": args.seed, "paths": args.paths,
        "grid_scale": args.grid_scale, "epsilon": args.epsilon,
    }.items() if v is not None}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Emitter(Path(args.out))
    try:
        if args.command == "solve":
            code = cmd_solve(cfg, out)
        elif args.command == "tables":
            code = cmd_tables(cfg, out, args.which)
        elif args.command == "figures":
            code = cmd_figures(cfg, out)
        else:
            code = cmd_simulate(cfg, out)
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
