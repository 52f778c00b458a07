"""Workload definitions, output readers and the reference comparison.

Shared by the benchmark (run.py), the workload process (child.py)
and the script that recorded the reference outputs (record_reference.py).
All paths are relative to the root of a cashstock checkout.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

#: a value may differ from the reference output by this share of it; README
#: states that the solver's independent cross-checks agree "well under 0.1%"
TOLERANCE = 1e-3

#: values smaller than this share of the largest reference value in the same
#: output are compared against that floor, so that the near-zero values of a
#: table that crosses zero do not turn rounding into a large relative deviation
SCALE_FLOOR = 0.01

#: every workload process runs numpy single-threaded, so timings and counts
#: do not depend on how many cores a BLAS or OpenMP pool grabs
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: inputs the workloads need from the checkout
REQUIRED_FILES = ("src/cashstock/__init__.py", "src/cashstock/cli.py",
                  "configs/base.json", "configs/table2.json")

ZIP_DEMAND = {"kind": "zip", "pi": 0.18, "lambda": 10}
SIM_PATHS = 2_000_000

# extensions-lib instance: base economics, U(0,20), N=6 on the 41x51 grid
# that configs/base.json gives at grid scale 0.25
EXT_GRID_SCALE = 0.25
EXT_LOAN_RATES = (0.15, 0.30)
EXT_LOAN_BREAKS = (5000.0,)
EXT_DEPOSIT_RATES = (0.01,)
EXT_LOAN_LIMIT = 10000.0
EXT_BACKORDER_PENALTY = 300.0

NAMES = ("solve-desk", "table2-half", "simulate-zip", "extensions-lib")


def write_zip_config(path: Path) -> Path:
    """configs/base.json with its demand replaced by ZIP(0.18, 10)."""
    cfg = json.loads(Path("configs/base.json").read_text())
    cfg["demands"] = [ZIP_DEMAND]
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def cli_spec(name: str, work: Path, seed: int) -> tuple[list[str], str, dict] | None:
    """(subcommand words, config path, load_config overrides) of the
    `cashstock` command a workload runs; None for the library workload.
    `work` is the run's scratch directory."""
    if name == "solve-desk":
        return ["solve"], "configs/base.json", {}
    if name == "table2-half":
        return ["tables", "--which", "table2"], "configs/table2.json", {"grid_scale": 0.5}
    if name == "simulate-zip":
        return (["simulate"], str(work / "zip.json"),
                {"grid_scale": 0.25, "paths": SIM_PATHS, "seed": seed})
    return None


def cli_args(spec: tuple[list[str], str, dict], out: Path) -> list[str]:
    words, config, overrides = spec
    args = [*words, "--config", config, "--out", str(out)]
    for key, value in overrides.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


def read_columns(path: Path, names) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: np.array([float(r[name]) for r in rows]) for name in names}


def read_outputs(name: str, out: Path) -> dict[str, np.ndarray]:
    """The values a workload's outputs are checked on (never argmax columns:
    the optimal order is not unique where the objective is flat)."""
    if name == "solve-desk":
        files = sorted(out.glob("value_period_*.csv"),
                       key=lambda p: int(p.stem.rsplit("_", 1)[1]))
        return {p.stem: np.loadtxt(p, delimiter=",", skiprows=1, usecols=2, ndmin=1)
                for p in files}
    if name == "table2-half":
        return read_columns(out / "table2.csv", ("v_opt", "v_lower", "v_upper"))
    if name == "simulate-zip":
        return read_columns(out / "simulation.csv", ("mean",))
    values = json.loads((out / "values.json").read_text())
    return {key: np.array([float(v)]) for key, v in values.items()}


def load_reference(name: str, seed: int) -> tuple[dict[str, np.ndarray], float]:
    """Seed-commit outputs of a workload and the tolerance they are held to.

    simulate-zip's means depend on the seed and were recorded for seeds
    0..127. For another seed they are checked against the mean over the
    recorded seeds, within four of the widest recorded 95% half-widths
    (relative), since the Monte Carlo error alone exceeds TOLERANCE."""
    if name == "solve-desk":
        with np.load(REFERENCE_DIR / "solve-desk.npz") as data:
            return {key: data[key] for key in data.files}, TOLERANCE
    ref = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    if name != "simulate-zip":
        return {key: np.array(values, dtype=float) for key, values in ref.items()}, TOLERANCE
    by_seed = ref["mean_by_seed"]
    if str(seed) in by_seed:
        return {"mean": np.array(by_seed[str(seed)])}, TOLERANCE
    pooled = np.mean(np.array(list(by_seed.values())), axis=0)
    return {"mean": pooled}, max(TOLERANCE, 4.0 * max(ref["rel_half_width"]))


def max_rel_dev(out: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> float:
    """Largest deviation of any output value from its reference, as a share
    of the reference value (floored at SCALE_FLOOR of that output's largest
    magnitude). Missing or misshapen outputs count as infinite deviation."""
    worst = 0.0
    for key, want in ref.items():
        got = out.get(key)
        if got is None or got.shape != want.shape or not np.all(np.isfinite(got)):
            return float("inf")
        if want.size == 0:
            continue
        floor = SCALE_FLOOR * float(np.max(np.abs(want)))
        scale = np.maximum(np.abs(want), max(floor, 1e-300))
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    return worst
