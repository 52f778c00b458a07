"""Outside tracing of cashstock: spans around the public functions of each module.

`Tracer.install()` wraps every public function of the traced modules at
every module attribute it is bound to, so that `from .dp import golden_max`
in `bounds` is traced as well as `dp.golden_max`, and wraps the listed
methods on their classes. Each call records a span: name, parent span,
start and end. Spans stay in memory and `dump()` writes them out once, at
the end of the process.

Counts of work are taken at the same boundaries by hooks. A hook's own time
is recorded as a `trace.count` span, so it is excluded from the self time of
every layer. Nothing in the traced package is edited; only attributes of the
loaded modules are replaced, in this process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: the layers: every module of the package, in dependency order
MODULES = ("model", "demand", "single_period", "dp", "thresholds", "bounds",
           "extensions", "sim", "cli")

#: methods wrapped on their classes, per module; span names are
#: "<module>.<span>" with the span name given here
METHODS = {
    "demand": {"Uniform": {m: m for m in ("cdf", "quantile", "loss", "quadrature",
                                          "expectation_nodes")},
               "_Atoms": {m: m for m in ("cdf", "quantile", "loss", "quadrature",
                                         "expectation_nodes")}},
    "sim": {cls: {"order": "policy_order"}
            for cls in ("ThresholdPolicy", "MyopicPolicy", "SinglePeriodPolicy")},
    "cli": {"Emitter": {"write_csv": "write_csv", "write_manifest": "write_manifest"}},
}

COUNT_SPAN = "trace.count"


class Tracer:
    """In-memory span recorder with per-boundary work counters."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.margins: list[float] = []  # bracket margins of returned threshold tables
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` recording a span `name`; `before(bound_args)` may count work
        and replace arguments, `after(bound_args, result)` may count work."""
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                hook = self._open(COUNT_SPAN)
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
                self._close(hook)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                hook = self._open(COUNT_SPAN)
                after(bound.arguments, result)
                self._close(hook)
            return result

        return traced

    # -- hooks: counts recorded where the work happens ----------------------

    # Hooks read arguments by name and count nothing when an argument is
    # missing, so a renamed parameter leaves a zero count, not a failed run.

    def _points(self, key: str, arg: str):
        def before(a):
            if arg in a:
                self.counts[key] += int(np.size(a[arg]))
        return before

    def _interp2(self, a):
        if not {"xq", "yq", "grid"} <= a.keys():
            return
        xq, yq, grid = np.asarray(a["xq"]), np.asarray(a["yq"]), a["grid"]
        xs, ys = grid.x_nodes, grid.y_nodes
        outside = (xq < xs[0]) | (xq > xs[-1]) | (yq < ys[0]) | (yq > ys[-1])
        self.counts["dp.interp2_points"] += outside.size
        self.counts["dp.interp2_extrapolated"] += int(np.count_nonzero(outside))

    def _golden_max(self, a):
        # the objective is a span of the module that defines it
        f = a.get("f")
        if f is None:
            return
        layer = f.__module__.rsplit(".", 1)[-1]
        a["f"] = self.wrap(f, f"{layer}.objective",
                           before=self._points("dp.objective_points", "z"))

    def _thresholds(self, a, table):
        for row in table.periods:
            self.counts["thresholds.bisection_iterations"] += (
                row.borrow_iterations + row.deposit_iterations)
            if row.n == table.horizon.n_periods:
                continue  # closed-form last period: no bracket
            for lo, hi, root in ((row.lower.borrow, row.upper.borrow, row.borrow),
                                 (row.lower.deposit, row.upper.deposit, row.deposit)):
                width = hi - lo
                if width > 0 and np.size(root):
                    margin = np.minimum(root - lo, hi - root) / width
                    self.margins.append(float(np.min(margin)))

    def _run_policy(self, a):
        self.counts["sim.paths"] += int(a.get("paths", 0))

    def _write_csv(self, a, _result):
        # rows written = lines of the file minus its header
        path = Path(a["self"].out_dir) / a.get("name", "")
        if path.is_file():
            self.counts["cli.csv_rows"] += path.read_bytes().count(b"\n") - 1

    def _hooks(self):
        slope = self._points("thresholds.slope_points", "cand")
        return {
            "dp.interp2": (self._interp2, None),
            "dp.golden_max": (self._golden_max, None),
            "thresholds.stage_slope_borrowing": (slope, None),
            "thresholds.stage_slope_deposit": (slope, None),
            "thresholds.solve_thresholds": (None, self._thresholds),
            "demand.expectation_nodes": (self._points("demand.expectation_nodes_points",
                                                      "kink"), None),
            "demand.quantile": (self._points("demand.quantile_points", "u"), None),
            "sim.run_policy": (self._run_policy, None),
            "cli.write_csv": (None, self._write_csv),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap cashstock's public functions wherever they are bound."""
        modules = {name: importlib.import_module(f"cashstock.{name}") for name in MODULES}
        holders = [importlib.import_module("cashstock"), *modules.values()]
        hooks = self._hooks()
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    replace[obj] = self.wrap(obj, name, *hooks.get(name, (None, None)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for attr, span in methods.items():
                    method = vars(cls).get(attr) if cls is not None else None
                    if inspect.isfunction(method):
                        name = f"{layer}.{span}"
                        setattr(cls, attr, self.wrap(method, name,
                                                     *hooks.get(name, (None, None))))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(holder, attr, replace[obj])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts,
                                    "margins": self.margins}))


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace

#: spans whose inclusive time is a per-layer metric "<name>_s"
TIMED = ("dp.backward_induct", "dp.interp2", "dp.policy_value_tables", "dp.partials",
         "demand.expectation_nodes", "demand.quantile", "single_period.expected_value_G",
         "thresholds.solve_thresholds", "bounds.compare_bounds", "bounds.selling_back_dp",
         "sim.run_policy", "sim.policy_order", "extensions.piecewise_dp",
         "extensions.loan_limited_dp", "extensions.backorder_dp", "cli.load_config",
         "cli.write_csv")

#: counts, and values derived from them, that must repeat exactly between
#: two runs of the same inputs
REPEATABLE = ("dp.backward_induct_calls", "dp.objective_points", "dp.interp2_points",
              "dp.interp2_extrapolated_share", "demand.expectation_nodes_points",
              "demand.quantile_points", "thresholds.slope_points",
              "thresholds.bisection_iterations", "thresholds.bracket_margin_min",
              "cli.csv_rows")


def span_times(spans: list) -> tuple[list[float], list[float]]:
    """Duration and self time of every span; self time is the duration minus
    the part covered by child spans (children of one span never overlap)."""
    dur = [end - start for _, _, start, end in spans]
    covered = [0.0] * len(spans)
    for k, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[k]
    return dur, [d - c for d, c in zip(dur, covered)]


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (times in s, counts) of one traced process, and the
    self time of each span name."""
    spans, counts = trace["spans"], trace["counts"]
    dur, self_time = span_times(spans)
    names = [s[0] for s in spans]

    def outermost(k: int) -> bool:
        parent = spans[k][1]
        while parent >= 0:
            if names[parent] == names[k]:
                return False
            parent = spans[parent][1]
        return True

    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    for k, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += self_time[k]
        name_self[name] += self_time[k]
        if outermost(k):
            inclusive[name] += dur[k]
            calls[name] += 1

    m = {f"{name}_s": inclusive[name] for name in TIMED}
    m["dp.golden_max_self_s"] = name_self["dp.golden_max"]
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.count_s"] = layer_self["trace"]
    m["dp.backward_induct_calls"] = calls["dp.backward_induct"]
    points = counts.get("dp.interp2_points", 0)
    m["dp.interp2_extrapolated_share"] = (
        counts.get("dp.interp2_extrapolated", 0) / points if points else 0.0)
    m["thresholds.bracket_margin_min"] = min(trace["margins"], default=0.0)
    run_s = inclusive["sim.run_policy"]
    m["sim.paths_per_s"] = counts.get("sim.paths", 0) / run_s if run_s > 0 else 0.0
    # the other repeatable metrics are the hooks' counts as they stand
    m.update({key: counts.get(key, 0) for key in REPEATABLE if key not in m})
    return m, dict(name_self)
