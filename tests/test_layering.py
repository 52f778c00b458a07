"""Module layering: each module imports only modules below it, at module top."""

import ast
import inspect
from pathlib import Path

import cashstock as cs

SRC = Path(__file__).resolve().parents[1] / "src" / "cashstock"

#: the modules, lowest layer first
LAYERS = ("demand", "model", "single_period", "dp", "thresholds", "sim",
          "bounds", "extensions", "cli")


def _modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"]


def test_no_import_inside_a_function():
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not lines, f"{name}.{fn.name} imports at lines {lines}"


def test_modules_import_only_lower_layers():
    for name, tree in _modules():
        assert name in LAYERS, f"module {name} has no layer"
        below = LAYERS[:LAYERS.index(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    assert target in below, f"{name} imports {target}"


def test_exported_names():
    # the package's public surface, held exactly as the defaulted parameters
    # are: a new export is a visible edit here
    exported = {name for name, obj in vars(cs).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == {
        "BackorderParams", "CriticalRatios", "DPSolution",
        "Demand", "DiscreteEmpirical", "Grid", "HorizonSpec", "InvalidHorizonError",
        "LoanLimit", "MyopicPolicy", "OrderBands", "PeriodParams", "PiecewiseRateSchedule",
        "PolicyTable", "SimResult", "State", "ThresholdLadder", "ThresholdPolicy",
        "ThresholdTable", "Uniform", "ValueTable", "WorthValueTable",
        "ZeroInflatedPoisson", "backorder_dp", "backorder_grid", "backward_induct",
        "compare_bounds", "expected_value_G", "fractiles", "integer_uniform",
        "loan_limited_dp", "loan_limited_policy", "myopic_lower", "myopic_upper",
        "normalized_params", "optimal_order", "order_bands", "piecewise_dp",
        "piecewise_optimal_order", "piecewise_thresholds", "policy_from_thresholds",
        "policy_value_tables", "run_policies", "selling_back_dp",
        "value_closed_form",
    }


def test_exported_functions_keep_their_defaulted_parameters():
    # every defaulted parameter is a setting some caller must be able to
    # change; a new one needs a caller that sets it
    defaulted = {name: {key for key, param in inspect.signature(fn).parameters.items()
                        if param.default is not param.empty}
                 for name, fn in vars(cs).items() if inspect.isfunction(fn)}
    assert {name: keys for name, keys in defaulted.items() if keys} == {
        "backward_induct": {"z_cap", "backlog"},
        "compare_bounds": {"lengths"},
    }


def test_only_single_period_calls_the_closed_form():
    # every solver's last period is a step through the one transition; the
    # closed form is the tests' independent cross-check, so no other module
    # may call it (a call would fork the recursion again)
    closed = {"expected_value_G", "value_closed_form"}
    for name, tree in _modules():
        if name == "single_period":
            continue
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and (getattr(node.func, "id", None) in closed
                      or getattr(node.func, "attr", None) in closed)]
        assert not calls, f"{name} calls the closed form at lines {calls}"


def test_every_module_top_import_is_used():
    # a name imported at module top and never read is left over from code
    # that moved or went; __future__ imports bind no name
    for name, tree in _modules():
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {bound: line for bound, line in imported.items() if bound not in read}
        assert not unused, f"{name} imports names it never uses: {unused}"


def test_monte_carlo_step_selects_without_masks():
    # the Monte Carlo's per-period kernels pick branches by min and max:
    # np.where and np.select cost over ten times an add per element there
    kernels = {("single_period", "optimal_order"), ("dp", "_next_state"),
               ("sim", "run_policies"), ("sim", "_terminal_wealth"),
               ("sim", "_history_tree"), ("thresholds", "bands_at")}
    seen = set()
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (name, fn.name) in kernels:
                seen.add((name, fn.name))
                calls = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
                         and getattr(node.func, "attr", None) in ("where", "select")]
                assert not calls, f"{name}.{fn.name} masks at lines {calls}"
    assert seen == kernels
