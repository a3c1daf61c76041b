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


def test_readme_module_names_resolve():
    # every backticked `module.name` or `homlab.module.name` of a homlab
    # module names something the module has, so a removed name fails here
    modules = [p.stem for p in Path(homlab.__file__).parent.glob("*.py")
               if p.stem != "__init__"]
    named = re.compile(rf"(?<![\w.])(?:homlab\.)?({'|'.join(modules)})\.(\w+)")
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    found = [m.groups() for span in re.findall(r"`([^`]+)`", text)
             for m in named.finditer(span)]
    assert found, "README names no module.name"
    for module, name in found:
        assert hasattr(importlib.import_module(f"homlab.{module}"), name), \
            f"README names {module}.{name}, which homlab.{module} lacks"


def test_package_imports_resolve():
    tree = ast.parse(Path(homlab.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"homlab.{module}")
        assert getattr(homlab, name) is getattr(source, name)
        assert name in source.__all__, f"{module}.__all__ lacks {name}"


def _all_names(tree):
    """The strings of a module-level ``__all__ = [...]``, if any."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_module_imports_are_used():
    # every name a module imports at module level is read in it, or
    # re-exported through its __all__
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused = imported - read - _all_names(tree)
        assert not unused, f"{path.name} imports {sorted(unused)} unread"
