"""Package structure: every intra-package import points down one layer order,
and the package's export list is exactly its modules' ``__all__`` lists."""

from __future__ import annotations

import ast
from pathlib import Path

import convex_cyclic

# each module may import only from the modules before it
LAYERS = (
    "errors",
    "_jsonutil",
    "convex_poly",
    "spectral",
    "jordan_forms",
    "suite",
    "interpolation",
    "dynamics",
    "cli",
    "acceptance",
)
# the modules whose ``__all__`` the package re-exports, in layer order
LIBRARY = ("errors", "convex_poly", "spectral", "jordan_forms", "suite", "interpolation", "dynamics")
# the package itself re-exports the library; ``python -m`` runs the command line
ENTRY_POINTS = {"__init__": set(LIBRARY), "__main__": {"cli"}}
# the only exceptions: the command line reads the package version, and loads
# the acceptance battery only when ``selftest`` runs
ALLOWED = {("cli", "__init__", False), ("cli", "acceptance", True)}

PACKAGE = Path(convex_cyclic.__file__).resolve().parent


def _targets(node: ast.Import | ast.ImportFrom) -> list[str | None]:
    """The package modules an import statement names; [None] for any other import."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module:
            return [node.module.split(".")[0]]
        return [a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__" for a in node.names]
    names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
    paths = [name.split(".") for name in names if name.split(".")[0] == "convex_cyclic"]
    return [(path + ["__init__"])[1] for path in paths] or [None]


def _imports(tree: ast.Module):
    """(imported package module or None, nested inside a def or class, line)."""

    def walk(node: ast.AST, nested: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in _targets(child):
                    yield target, nested, child.lineno
            else:
                yield from walk(child, nested or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))

    return walk(tree, False)


def _violations() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module not in LAYERS and module not in ENTRY_POINTS:
            found.append(f"{module}: not placed in the layer order")
            continue
        allowed = ENTRY_POINTS.get(module) or set(LAYERS[: LAYERS.index(module)])
        for target, nested, line in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if (module, target, nested) in ALLOWED:
                continue
            if nested:
                found.append(f"{module}:{line}: import inside a function or class")
            elif target is not None and target not in allowed:
                found.append(f"{module}:{line}: imports {target}, which is not below it")
    return found


def test_every_import_points_down_the_layer_order():
    assert _violations() == []


def test_package_exports_exactly_the_module_lists():
    modules = [getattr(convex_cyclic, name) for name in LIBRARY]
    joined = ["__version__"] + [name for module in modules for name in module.__all__]
    assert convex_cyclic.__all__ == joined
    assert len(set(joined)) == len(joined), "a name is exported twice"
    for module in modules:
        for name in module.__all__:
            assert getattr(convex_cyclic, name) is getattr(module, name), f"{module.__name__}.{name}"

