"""Module layering: each module imports only modules below it, at module top."""

import ast
from pathlib import Path

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
