"""The README and the package's public imports against the code."""

import ast
import importlib
import re
from pathlib import Path

import homlab
from homlab.ensemble import KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_experiment_kinds_are_kinds():
    listed = re.findall(r"`experiment \{([^}]*)\}`", README.read_text())
    assert listed, "README lists no `experiment {...}` kinds"
    for kinds in listed:
        assert tuple(kinds.split(",")) == KINDS


def test_package_imports_resolve():
    tree = ast.parse(Path(homlab.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"homlab.{module}")
        assert getattr(homlab, name) is getattr(source, name)
        assert name in source.__all__, f"{module}.__all__ lacks {name}"
