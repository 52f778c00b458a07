"""Command-line front door: config ingestion, solver runs, CSV emission.

Subcommands: solve, tables, figures, simulate. Config is a JSON document;
see README for the schema. Every run writes a manifest listing the emitted
files; CSV bodies are deterministic for a fixed config and seed. A CSV's
numbers are turned into their %.6g text by array arithmetic (`_encode`),
byte for byte as Python formats them, and written in blocks of
CSV_BLOCK_ROWS rows, so no command holds a whole table as text (README,
Outputs).

Exit codes: 0 success, 2 config error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import single_period
from .bounds import _require_no_sellback_profit, compare_bounds, selling_back_dp
from .demand import (QUAD_ORDER, Demand, DiscreteEmpirical, Uniform, ZeroInflatedPoisson,
                     integer_uniform)
from .dp import Z_TOL, Grid, _require_on_grid, backward_induct
from .model import HorizonSpec, InvalidHorizonError, PeriodParams, State
from .sim import MyopicPolicy, ThresholdPolicy, history_periods, run_policies
from .thresholds import ThresholdTable

EXIT_OK = 0
EXIT_CONFIG = 2

#: upper bounds on the sizes a config may ask for, so that an absurd value
#: is a config error before anything is allocated; each is far beyond the
#: shipped configs (N <= 12, 161x201 nodes, 2M paths in the benchmark)
MAX_PERIODS = 1_000
MAX_AXIS_NODES = 4_001
MAX_PATHS = 50_000_000
#: a zip rate or integer-uniform bound: ZIP(0.18, 1000) has 1,233 atoms
MAX_DEMAND = 1_000
#: an empirical demand's values and probs: no more atoms than ZIP has at MAX_DEMAND
MAX_ATOMS = 1_233
#: one demand per period, or per scenario of `tables`, each a full solve
MAX_DEMANDS = MAX_PERIODS
#: table2's states, read between the x nodes (at most MAX_AXIS_NODES): 25 per node
MAX_TABLE_STATES = 100_000
#: the default of a config field that has none: the config must give it
REQUIRED = object()
#: rows a CSV is encoded and written in at a time: writing a desk value
#: table (32,361 x 5) peaks at 1.48 MB traced, against 7.41 MB in one piece.
#: At 4,096 rows the encoder's temporaries (160 KiB per array) peak at 2.93
#: MB traced, and `solve`'s resident set at 49.6 MB against 46.0 MB
CSV_BLOCK_ROWS = 2_048


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


def _list(value, what: str, parse=_number, *, entries: int, **bounds) -> list:
    """A nonempty list of at most `entries` entries, each read by `parse`."""
    _require(isinstance(value, list) and value, f"{what} must be a nonempty list, got {value!r}")
    _require(len(value) <= entries,
             f"{what} has {len(value)} entries; at most {entries} are allowed")
    return [parse(v, f"{what}[{k}]", **bounds) for k, v in enumerate(value)]


def _state(value, what: str) -> list:
    """A list of two numbers [x, y], the stock x >= 0 (lost sales)."""
    _require(isinstance(value, list) and len(value) == 2,
             f"{what} must be a list of two numbers [x, y], got {value!r}")
    return [_number(value[0], f"{what}[0]", 0.0), _number(value[1], f"{what}[1]")]


def _distinct(value, what: str, **kwargs) -> list:
    """A `_list` whose entries all differ."""
    items = _list(value, what, **kwargs)
    twice = sorted(v for v, count in Counter(items).items() if count > 1)
    _require(not twice, f"{what} repeats {', '.join(map(_fmt, twice))}: "
             "the table would write its rows twice")
    return items


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
    twice = sorted(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
    _require(not twice, f"key(s) {twice} given twice in one object")
    return dict(pairs)


#: each demand kind: its class, and its fields' parsers in the class's argument order
DEMAND_KINDS = {
    "uniform": (Uniform, {"lo": _number, "hi": _number}),
    "integer_uniform": (integer_uniform,
                        dict.fromkeys(("lo", "hi"), partial(_integer, least=0, most=MAX_DEMAND))),
    "zip": (ZeroInflatedPoisson, {"pi": _number, "lambda": partial(_number, most=MAX_DEMAND)}),
    "empirical": (DiscreteEmpirical,
                  dict.fromkeys(("values", "probs"), partial(_list, entries=MAX_ATOMS))),
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


PERIOD_FIELDS = dict.fromkeys(("p", "c", "h", "i", "l"), (REQUIRED, _number))
GRID_FIELDS = {"x_max": (REQUIRED, partial(_number, low=0.0, strict=True)),
               "y_min": (REQUIRED, _number), "y_max": (REQUIRED, _number),
               **dict.fromkeys(("nx", "ny"), (REQUIRED, partial(_integer, least=2)))}
SOLVER_FIELDS = {"mc_paths": (100_000, partial(_integer, most=MAX_PATHS)),
                 "seed": (0, partial(_integer, least=0))}
ROOT_FIELDS = {"N": (REQUIRED, partial(_integer, most=MAX_PERIODS)),
               "salvage": (REQUIRED, _number),
               "periods": (REQUIRED, partial(_list, parse=partial(_fields, table=PERIOD_FIELDS),
                                             entries=MAX_PERIODS)),
               "demands": (REQUIRED, partial(_list, parse=parse_demand, entries=MAX_DEMANDS)),
               "grid": (REQUIRED, partial(_fields, table=GRID_FIELDS)),
               "solver": (_fields({}, "solver", SOLVER_FIELDS),
                          partial(_fields, table=SOLVER_FIELDS)),
               "initial": ([0.0, 0.0], _state),
               "table_states": ([0.0, 7.0, 14.0],
                                partial(_distinct, low=0.0, entries=MAX_TABLE_STATES)),
               # [] stands for [N, 2N]; twice N's bound, as [N, 2N] reaches,
               # which is also how many distinct lengths there can be
               "table_horizons": ([], partial(_distinct, parse=_integer, most=2 * MAX_PERIODS,
                                              entries=2 * MAX_PERIODS))}


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
        try:
            # one entry stands for every period
            horizon = HorizonSpec(*(list(items) if len(items) == n else [items[0]] * n
                                    for items in (self.periods, demands)), self.salvage)
        except InvalidHorizonError as exc:
            raise ConfigError(f"invalid horizon:\n{exc}") from None
        # the thresholds' brackets, the myopic policies and the bound chain
        # all need the liquidation-credit myopic policy
        shortfalls = [m for k in range(1, n) if (m := horizon.liquidation_shortfall(k))]
        _require(not shortfalls, "invalid horizon: " + "; ".join(shortfalls))
        return horizon

    def longest_horizon(self, lengths, demand: Demand | None = None) -> HorizonSpec:
        """The horizon of the longest of `lengths`, once `horizon` has
        accepted every length, shortest first. Each shorter one is then its
        tail: periods and demands are either one entry repeated or exactly
        the longest's."""
        for n in sorted(lengths):
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


# `_encode` writes a cell with 0.1 <= |v| < 1e6 after rounding, or v = +-0,
# with array arithmetic: but for its sign, its %.6g text is at most six
# digits and a point, or "0." and six digits, one little-endian uint64
_POWERS = 10.0 ** np.arange(-1, 8)  # the nearest floats to 10^-1..10^7
_k = np.arange(1000, dtype=np.uint64)
#: the three ASCII digits of 0..999 in one word each, first digit lowest
_TRIPLES = (_k // 100 + 48) | (_k // 10 % 10 + 48) << 8 | (_k % 10 + 48) << 16
#: their trailing zeros
_TRAILING = sum((_k % 10**j == 0).astype(int) for j in (1, 2, 3))
_BYTES = (1 << 8 * np.arange(7, dtype=np.uint64)) - 1  # the first k bytes of a word
_POINTS = 46 << 8 * np.arange(7, dtype=np.uint64)  # "." as byte k of a word


def _encode(numbers: np.ndarray, text: dict) -> np.ndarray:
    """The CSV lines of `numbers`, a rows x columns float array, as bytes:
    each cell as `_fmt` writes it, but column j's cells are the strings
    text[j] where j is in `text`."""
    cols = numbers.shape[1]
    v = numbers.ravel()
    a = np.abs(v)
    zero = a == 0
    a[zero] = 1.0  # written as "1", whose digit is turned into "0" below
    # floor(log10 a) from 0.1 to 1e6, -2 below (and for NaN): no float lies
    # between 10^-1 and the nearest float to it, so comparisons find it
    exp = sum((a >= p).view(np.int8) for p in _POWERS[:7]) - 2
    with np.errstate(invalid="ignore"):  # inf - inf, or a signalling NaN
        a *= _POWERS[6 - exp]  # the six digits' scale: one rounding, as 10^(5-exp) is exact
        m = np.rint(a)
        # rounding is monotone and m + 0.5 is a float, so the scaled cell and
        # its exact value lie on one side of each tie. A cell on a tie, or
        # whose rounding carries into a seventh digit, is left to `_fmt`, as
        # are NaN, infinities and |v| < 0.1 or >= 1e6
        fast = (np.abs(a - m) < 0.5) & (m < 1e6) & (exp >= -1)
    m[~fast] = 1e5
    hi = np.floor(m / 1000)  # exact, as m is an integer below 1e6
    hi, lo = hi.astype(np.intp), (m - 1000 * hi).astype(np.intp)
    # the digits before the point stay; those after it, but for trailing
    # zeros, move up one byte; below 1 the text starts "0."
    point = np.maximum(exp + 1, 0)
    digits = np.maximum(6 - np.where(lo == 0, 3 + _TRAILING[hi], _TRAILING[lo]), point)
    word = (_TRIPLES[hi] | _TRIPLES[lo] << 24) & _BYTES[digits]
    whole = word & _BYTES[point]
    word = whole | (word - whole) << 8 | _POINTS[point] * (digits > point)
    lead = (point == 0).view(np.uint8)
    word = (word << (lead << 3) | lead * 48) - zero
    # each cell: its sign, its text NUL-padded to 8 bytes and its separator
    cells = np.empty((len(v), 10), np.uint8)
    cells[:, 0] = np.signbit(v) * fast * 45
    np.ndarray(len(v), "<u8", cells, 1, (10,))[:] = word * fast  # bytes 1-8 of each cell
    cells[:, 9] = 44
    cells[cols - 1::cols, 9] = 10
    kept = cells.ravel() != 0
    body = np.compress(kept, cells)
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return body
    row, col = np.divmod(slow, cols)
    pieces = [(text[j][i] if j in text else _fmt(x)).encode()
              for i, j, x in zip(row.tolist(), col.tolist(), v[slow].tolist())]
    at = np.cumsum(kept.reshape(-1, 10).sum(1))[slow] - 1  # each slow cell's separator
    return np.insert(body, np.repeat(at, list(map(len, pieces))),
                     np.frombuffer(b"".join(pieces), np.uint8))


class Emitter:
    """Writes CSVs into the output directory and records them for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[str] = []
        #: per period, the binding threshold levels clipped into their
        #: brackets (solve and simulate); written to the manifest when set
        self.clipped_levels: list[dict] | None = None
        #: the leading periods the Monte Carlo stepped once per demand
        #: history (simulate); written to the manifest's solver when set
        self.mc_history_periods: int | None = None
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """Write `rows`, a 2-D array or a list of rows, under `header`.

        Numbers are written as `_fmt` writes them, by `_encode`, and string
        cells as they are; each column holds numbers or strings throughout,
        as its first row does. The rows are encoded and written in blocks of
        CSV_BLOCK_ROWS, each block before the next is built, so the
        command's peak holds one block's arrays: 1.48 MB traced for a desk
        value table, against 7.41 MB when the table was joined in one piece.
        """
        with open(self.out_dir / name, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start:start + CSV_BLOCK_ROWS]
                columns = list(block.T) if isinstance(block, np.ndarray) else list(zip(*block))
                text = {j: col for j, col in enumerate(columns) if isinstance(col[0], str)}
                # a string column enters as NaN, which `_encode` leaves to `text`
                fh.write(_encode(np.column_stack(
                    [np.full(len(col), np.nan) if j in text else np.asarray(col, dtype=float)
                     for j, col in enumerate(columns)]), text))
        self.files.append(name)

    def write_manifest(self, command: str, cfg: RunConfig) -> None:
        manifest = {
            "command": command,
            "config_hash": config_hash(cfg.raw),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "solver": {
                "z_tol": Z_TOL,
                "quadrature_nodes": QUAD_ORDER,
                "mc_paths": cfg.mc_paths,
                "seed": cfg.seed,
                "grid_shape": list(cfg.grid.shape),
            },
            "outputs": sorted(self.files),
        }
        if self.mc_history_periods is not None:
            manifest["solver"]["mc_history_periods"] = self.mc_history_periods
        if self.clipped_levels is not None:
            manifest["clipped_levels"] = self.clipped_levels
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _state_on_grid(grid: Grid, what: str, x: float, y: float) -> None:
    try:
        _require_on_grid(grid, what, x, y)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _clipped_levels(table: ThresholdTable) -> list[dict]:
    """Per period, how many binding levels fell outside their myopic bracket
    and were clipped into it: a grid too coarse for the levels shows here."""
    return [{"period": row.n, "borrow": row.borrow_clipped, "deposit": row.deposit_clipped}
            for row in table.periods]


def cmd_solve(cfg: RunConfig, out: Emitter) -> int:
    horizon = cfg.horizon()
    _state_on_grid(cfg.grid, "initial", *cfg.initial)
    solution = backward_induct(horizon, cfg.grid)
    table = ThresholdTable.from_solution(solution)
    out.clipped_levels = _clipped_levels(table)
    X, Y = cfg.grid.mesh()
    for n in range(1, horizon.n_periods + 1):
        policy = solution.policy(n)
        cols = (X, Y, solution.value(n).values, policy.order_up_to, policy.order_quantity())
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
    # both tables print one bound report, per horizon length, demand and
    # state; they differ in the bounds they ask for and in their columns
    if which == "table1":
        for k, dem in enumerate(cfg.demands):
            _require(dem.mean() > 0, f"demands[{k}] has mean 0: table1's cv column "
                     "(standard deviation / mean) is undefined")
        bounds = ("myopic-lower", "myopic-upper")
        lengths, states = [cfg.n_periods], {"initial": cfg.initial}
        header = ["demand", "cv", "v_opt", "v_myopic_lower", "gap_lower_pct",
                  "v_myopic_upper", "gap_upper_pct"]

        def cells(dem, r):
            return (dem.label, dem.moments().cv, r.optimal,
                    *(c for b in bounds for c in (r.values[b], r.gap_pct(b))))
    else:
        bounds = ("myopic-upper", "selling-back")
        lengths = cfg.table_horizons
        states = {f"table_states[{k}]": (x, 0.0) for k, x in enumerate(cfg.table_states)}
        header = ["N", "demand", "x", "v_opt", "v_lower", "gap_lower", "gap_lower_pct",
                  "v_upper", "gap_upper", "gap_upper_pct"]

        def cells(dem, r):
            return (r.n_periods, dem.label, r.x, r.optimal,
                    *(c for b in bounds for c in (r.values[b], r.gap(b), r.gap_pct(b))))
    for what, (x, y) in states.items():
        _state_on_grid(cfg.grid, what, x, y)
    horizons = [cfg.longest_horizon(lengths, demand=dem) for dem in cfg.demands]
    if "selling-back" in bounds:
        try:  # the relaxation's condition reads the periods, which every demand shares
            _require_no_sellback_profit(horizons[0])
        except ValueError as exc:
            raise ConfigError(f"invalid horizon for the selling-back bound: {exc}") from None
    # each demand is solved once, at the longest horizon, and its tables are
    # released before the next; the shorter horizons are read as its tails
    reports = [compare_bounds(backward_induct(hz, cfg.grid), list(states.values()), bounds,
                              lengths=lengths) for hz in horizons]
    out.write_csv(f"{which}.csv", header,
                  [cells(dem, r) for n in lengths for dem, report in zip(cfg.demands, reports)
                   for r in report if r.n_periods == n])
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

    tables = selling_back_dp(sell_horizon, cfg.grid)
    rows = [(n, w, v) for n in lengths for w, v in zip(tables[-n].worth, tables[-n].values)]
    out.write_csv("fig_selling_back.csv", ["N", "net_worth", "value"], rows)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: Emitter) -> int:
    horizon = cfg.horizon()
    table = ThresholdTable.from_solution(backward_induct(horizon, cfg.grid))
    out.clipped_levels = _clipped_levels(table)
    initial = State(*cfg.initial)
    policies = [ThresholdPolicy(table, label="optimal-thresholds"),
                MyopicPolicy(horizon, "lower"), MyopicPolicy(horizon, "upper")]
    out.mc_history_periods = history_periods(horizon, cfg.mc_paths)
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
    out.write_manifest(args.command, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
