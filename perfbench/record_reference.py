"""Record the reference outputs that benchmark runs are checked against.

The references are the outputs of this repository's seed commit and are
not re-recorded when the program changes: a change that moves an output
shows as a larger `max_rel_dev`. To reproduce them, check out that commit,
copy this directory into it and run from its root:

    python3 perfbench/record_reference.py

Every workload runs through child.py, as in a benchmark run. solve-desk,
table2-half and extensions-lib run once. simulate-zip depends on the
benchmark seed, so its means are recorded for seeds 0 .. SIM_SEEDS - 1,
together with the widest relative 95% half-width over those seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl

#: simulate-zip seeds whose means are recorded
SIM_SEEDS = 128


def run_child(name: str, work: Path, seed: int) -> Path:
    """Run one workload process; returns its output directory."""
    out = work / f"out-{name}-{seed}"
    subprocess.run([sys.executable, str(wl.BENCH_DIR / "child.py"), name, "--work", str(work),
                    "--out", str(out), "--seed", str(seed), "--stamp", str(work / "stamp")],
                   check=True, stdout=subprocess.DEVNULL, env={**os.environ, **wl.THREAD_ENV})
    return out


def simulate_reference(work: Path) -> dict:
    means, rel_half = {}, []
    for seed in range(SIM_SEEDS):
        sim = wl.read_columns(run_child("simulate-zip", work, seed) / "simulation.csv",
                              ("mean", "half_width"))
        means[str(seed)] = sim["mean"].tolist()
        rel_half.append(sim["half_width"] / np.abs(sim["mean"]))
        print(f"seed {seed}: {means[str(seed)]}", flush=True)
    return {"rel_half_width": np.max(rel_half, axis=0).tolist(), "mean_by_seed": means}


def main() -> int:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    (wl.BENCH_DIR / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR / "_work") as tmp:
        work = Path(tmp)
        wl.write_zip_config(work / "zip.json")
        for name in wl.NAMES:
            if name == "solve-desk":
                outputs = wl.read_outputs(name, run_child(name, work, 0))
                np.savez_compressed(wl.REFERENCE_DIR / "solve-desk.npz", **outputs)
            elif name == "simulate-zip":
                ref = simulate_reference(work)
                (wl.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref) + "\n")
            else:
                outputs = wl.read_outputs(name, run_child(name, work, 0))
                ref = {key: v.tolist() for key, v in outputs.items()}
                (wl.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
            print(f"recorded {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
