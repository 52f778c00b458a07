"""The cashstock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cashstock checkout; NAME is one of solve-desk,
table2-half, simulate-zip, extensions-lib, or `all` for each in turn. Every
workload runs as its own single-threaded process (child.py), started from
this one, and its outputs are checked against the seed commit's reference
outputs after it has exited.

--trace 0 measures the end-to-end metrics: the workload runs until S
seconds of it have been measured (at least once), and set-up is timed in
set-up-only processes, half of them before and half after the workload
processes, and in every workload process. Reported are the medians of
wall_s (spawn to exit), setup_s (spawn until `import cashstock` and
`load_config` have returned) and peak_rss_mb (that process's own peak
resident set, from wait4).

--trace 1 runs the workload twice with every public function of the
package wrapped from outside (tracer.py), between untraced runs, and reports
the per-layer times, self times and counts. The counts must repeat exactly
between the two traced runs.

The metric names and units are those of BENCHMARK.json at the root of the
checkout.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Every process started counts as attempted. It fails when
it exits non-zero, writes no set-up stamp or, for a workload process, when
an output deviates from its reference by more than the tolerance in
workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from tracer import MODULES, REPEATABLE, layer_metrics

#: set-up-only processes per --trace 0 run, besides the workload processes
SETUP_PROBES = 24

#: no process is started, and a running one is killed, past this many
#: seconds into a run, so that a run ends within its 180 s allowance
RUN_BUDGET_S = 165.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    spec = json.loads((wl.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Process:
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    code: int
    out: Path
    log: Path


class Run:
    """One benchmark run of one workload: its scratch directory, deadline
    and the processes it has started."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CASHSTOCK_")}
        self.env.update(wl.THREAD_ENV)
        wl.write_zip_config(work / "zip.json")
        self.reference, self.tolerance = wl.load_reference(name, seed)

    def spawn(self, *, trace: Path | None = None, setup_only: bool = False) -> Process:
        self.count += 1
        tag = f"{self.count:03d}"
        out, stamp, log = (self.work / f"{p}-{tag}" for p in ("out", "stamp", "log"))
        cmd = [sys.executable, str(wl.BENCH_DIR / "child.py"), self.name,
               "--work", str(self.work), "--out", str(out), "--seed", str(self.seed),
               "--stamp", str(stamp)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        with log.open("wb") as fh:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env)
            killer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(stamp.read_text()) - start if stamp.is_file() else None
        return Process(end - start, setup, usage.ru_maxrss / 1024.0, proc.returncode, out, log)

    def check(self, proc: Process, *, outputs: bool = True) -> bool:
        """Count one attempt; True when it exited 0 after writing its set-up
        stamp and, with `outputs`, its outputs match the reference. Outputs
        are removed once checked."""
        self.attempted += 1
        ok = proc.code == 0 and proc.setup_s is not None
        if ok and outputs:
            try:
                dev = wl.max_rel_dev(wl.read_outputs(self.name, proc.out), self.reference)
            except (OSError, ValueError, KeyError) as exc:
                print(f"{self.name}: cannot read outputs: {exc}", file=sys.stderr)
                dev = float("inf")
            self.max_rel_dev = max(self.max_rel_dev, dev)
            ok = dev <= self.tolerance
            if not ok:
                print(f"{self.name}: outputs deviate from the reference by {dev:.3g} "
                      f"(tolerance {self.tolerance:.3g})", file=sys.stderr)
        elif not ok:
            tail = proc.log.read_text(errors="replace").splitlines()[-5:]
            stamp = "" if proc.setup_s is not None else " without a set-up stamp"
            print(f"{self.name}: process exited {proc.code}{stamp}:", *tail, sep="\n  ",
                  file=sys.stderr)
        self.failed += not ok
        shutil.rmtree(proc.out, ignore_errors=True)
        return ok

    def time_left(self, need: float) -> bool:
        return time.monotonic() + need < self.deadline


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Medians of the end-to-end metrics; setup_s is left out when no
    process wrote its set-up stamp."""
    setups: list[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            proc = run.spawn(setup_only=True)
            if run.check(proc, outputs=False):
                setups.append(proc.setup_s)

    probe(SETUP_PROBES // 2)
    procs: list[Process] = []
    while not procs or (sum(p.wall_s for p in procs) < seconds
                        and run.time_left(procs[-1].wall_s * 1.5)):
        proc = run.spawn()
        run.check(proc)
        procs.append(proc)
        if proc.setup_s is not None:
            setups.append(proc.setup_s)
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    values = {"wall_s": statistics.median(p.wall_s for p in procs),
              "peak_rss_mb": statistics.median(p.peak_rss_mb for p in procs)}
    if setups:
        values["setup_s"] = statistics.median(setups)
    return values


def measure_traced(run: Run) -> tuple[dict[str, float], dict[str, float], bool]:
    """Per-layer metrics and self time per span name of two traced runs
    (times averaged), and whether their counts agree exactly. Untraced runs
    before, between and (when there is time) after them give the untraced
    median wall time."""
    layers, by_span, walls, plain = [], [], [], []

    def untraced() -> None:
        proc = run.spawn()
        if run.check(proc):
            plain.append(proc.wall_s)

    for k in range(2):
        untraced()
        trace_file = run.work / f"trace-{k}.json"
        proc = run.spawn(trace=trace_file)
        if run.check(proc) and trace_file.is_file():
            metrics, span_self = layer_metrics(json.loads(trace_file.read_text()))
            layers.append(metrics)
            by_span.append(span_self)
            walls.append(proc.wall_s)
    if plain and run.time_left(1.5 * max(plain)):
        untraced()
    if not layers or not plain:
        return {}, {}, False
    repeat = len(layers) == 2 and all(layers[0][c] == layers[1][c] for c in REPEATABLE)
    if not repeat:
        diff = {c: (layers[0][c], layers[-1][c]) for c in REPEATABLE
                if layers[0][c] != layers[-1][c]}
        print(f"{run.name}: counts differ between traced runs: {diff}", file=sys.stderr)
    metrics = {key: statistics.fmean(m[key] for m in layers) for key in layers[0]}
    metrics.update({c: layers[0][c] for c in REPEATABLE})
    metrics["traced_wall_s"] = statistics.fmean(walls)
    metrics["trace_overhead_s"] = metrics["traced_wall_s"] - statistics.median(plain)
    span_self = {name: statistics.fmean(d.get(name, 0.0) for d in by_span)
                 for name in by_span[0]}
    return metrics, span_self, repeat


def report_layers(name: str, m: dict[str, float], span_self: dict[str, float],
                  units: dict[str, str]) -> None:
    wall = m["traced_wall_s"]
    print(f"{name}: traced wall {wall:.3f} s, tracing overhead {m['trace_overhead_s']:.3f} s")
    print(f"  {'self time':<42}{'s':>8}{'share':>8}")
    rows = [(layer, m[f"{layer}.self_s"]) for layer in MODULES]
    rows.append(("(trace hooks)", m["trace.count_s"]))
    top = sorted(span_self.items(), key=lambda kv: -kv[1])[:8]
    rows += [(f"span {span}", t) for span, t in top]
    for label, t in rows:
        print(f"  {label:<42}{t:>8.3f}{100 * t / wall:>7.1f}%")
    for key, unit in units.items():
        if not key.endswith(".self_s"):
            print(f"  {key} = {m[key]:.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl.BENCH_DIR.joinpath("_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=wl.BENCH_DIR / "_work"))
    try:
        run = Run(name, seed, work)
        if trace:
            units = metric_units("per_layer")
            values, span_self, repeat = measure_traced(run)
            if values:
                report_layers(name, values, span_self, units)
        else:
            units = metric_units("end_to_end")
            repeat = True
            values = measure(run, seconds)
            for key, unit in units.items():
                if key in values:
                    print(f"{name}: {key} = {values[key]:.4f} {unit}")
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in units.items() if key in values}
        print(f"{name}: error_rate = {run.failed / run.attempted:.4f} "
              f"({run.failed} of {run.attempted} processes failed)")
        print(f"{name}: max_rel_dev = {run.max_rel_dev:.3g} "
              f"(tolerance {run.tolerance:.3g})")
        return {"correct": run.failed == 0 and repeat, "attempted": run.attempted,
                "failed": run.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [f for f in wl.REQUIRED_FILES if not Path(f).is_file()]
    if missing:
        print(f"error: run from the root of a cashstock checkout; missing {missing}",
              file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{key}": value for name, r in results.items()
                              for key, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
