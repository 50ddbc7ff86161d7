"""Checks on the package as a whole: its public surface and its imports."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import profitmax

SRC = Path(profitmax.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"profitmax.{name}")
    for public in getattr(module, "__all__", ()):
        assert hasattr(module, public), f"profitmax.{name}.__all__ names missing {public!r}"


def test_package_imports_only_public_names():
    for node in ast.walk(_tree(SRC / "__init__.py")):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"profitmax.{node.module}")
            exported = getattr(module, "__all__", ())
            for alias in node.names:
                assert alias.name in exported, f"{alias.name!r} is not in profitmax.{node.module}.__all__"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    # the runtime is pure stdlib: numpy and friends may be installed, but not imported
    allowed = set(sys.stdlib_module_names) | {"profitmax"}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        for top in tops:
            assert top in allowed, f"{path.name}:{node.lineno} imports {top!r} from outside the standard library"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "diffusion"],
                         ids=lambda p: p.name)
def test_only_diffusion_reads_a_live_graph_format(path):
    # a sample's flat arrays (offsets, targets) and an enumerated world's
    # bitmask over the arc index (out, targets) are written in diffusion, and
    # every walk over them lives beside that code
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute):
            assert node.attr not in {"offsets", "targets", "out"}, (
                f"{path.name}:{node.lineno} reads .{node.attr} of a live-graph format")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift):
            assert not (isinstance(node.left, ast.Name) and node.left.id == "mask"), (
                f"{path.name}:{node.lineno} decodes a live-graph bitmask")
