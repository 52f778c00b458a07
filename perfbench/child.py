"""One workload process of the benchmark.

    python3 perfbench/child.py WORKLOAD --work DIR --out DIR --seed N
                               --stamp FILE [--trace FILE] [--setup-only]

Run from the root of a cashstock checkout. Runs the workload's `cashstock`
command in this process, or for extensions-lib the library program below,
and writes its outputs to --out. Writes to --stamp the CLOCK_MONOTONIC time
at which set-up has returned: `import cashstock` and `load_config`, and for
extensions-lib also the horizon and grids. With --setup-only it stops
there. With --trace it wraps the package's public functions first and
writes their spans to that file at exit. Exits with the command's code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import workloads as wl  # noqa: E402  (the benchmark directory is sys.path[0])


def run_extensions(out: Path, stamp, setup_only: bool) -> int:
    """The three model extensions, which no CLI command reaches, on one
    small instance; writes V_1(0, 0) of each solve to values.json."""
    import cashstock as cs
    from cashstock import cli

    cfg = cli.load_config("configs/base.json", {"grid_scale": wl.EXT_GRID_SCALE})
    horizon, grid = cfg.horizon(), cfg.grid
    backorder_grid = cs.backorder_grid(horizon, grid)
    stamp()
    if setup_only:
        return 0
    schedule = cs.PiecewiseRateSchedule(loan_rates=wl.EXT_LOAN_RATES,
                                        loan_breaks=wl.EXT_LOAN_BREAKS,
                                        deposit_rates=wl.EXT_DEPOSIT_RATES)
    solutions = {
        "piecewise": cs.piecewise_dp(horizon, schedule, grid),
        "loan_limit": cs.loan_limited_dp(horizon, cs.LoanLimit(wl.EXT_LOAN_LIMIT), grid),
        "backorder": cs.backorder_dp(horizon, cs.BackorderParams(wl.EXT_BACKORDER_PENALTY),
                                     backorder_grid),
    }
    values = {key: float(sol.value(1)(0.0, 0.0)) for key, sol in solutions.items()}
    out.mkdir(parents=True, exist_ok=True)
    (out / "values.json").write_text(json.dumps(values, indent=2) + "\n")
    return 0


def run_cli(spec, out: Path, stamp, setup_only: bool) -> int:
    from cashstock import cli

    if setup_only:
        _, config, overrides = spec
        cli.load_config(config, overrides)
        stamp()
        return 0
    load_config = cli.load_config

    def stamped_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        stamp()
        return cfg

    cli.load_config = stamped_load_config
    return cli.main(wl.cli_args(spec, out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=wl.NAMES)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stamp", type=Path, required=True)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import cashstock  # noqa: F401  (set-up includes the package import)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def stamp():
        args.stamp.write_text(repr(time.monotonic()))

    try:
        spec = wl.cli_spec(args.workload, args.work, args.seed)
        if spec is None:
            return run_extensions(args.out, stamp, args.setup_only)
        return run_cli(spec, args.out, stamp, args.setup_only)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
