"""Module layering: each module imports only modules below it, at module top."""

import ast
import inspect
from pathlib import Path

import cashstock as cs

SRC = Path(__file__).resolve().parents[1] / "src" / "cashstock"

#: the modules, lowest layer first
LAYERS = ("demand", "model", "single_period", "dp", "thresholds", "bounds",
          "extensions", "sim", "cli")


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


def test_exported_functions_keep_their_defaulted_parameters():
    # every defaulted parameter is a setting some caller must be able to
    # change; a new one needs a caller that sets it
    defaulted = {name: {key for key, param in inspect.signature(fn).parameters.items()
                        if param.default is not param.empty}
                 for name, fn in vars(cs).items() if inspect.isfunction(fn)}
    assert {name: keys for name, keys in defaulted.items() if keys} == {
        "backward_induct": {"z_cap", "backlog"},
        "compare_bounds": {"lengths", "solution"},
        "gap_report": {"initial"},
        "solve_thresholds": {"solution"},
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
