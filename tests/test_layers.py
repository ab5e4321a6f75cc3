"""Package structure: every intra-package import points down one layer order,
the package's export list is exactly its modules' ``__all__`` lists, every
exported error class is still raised somewhere, and a class has a
serializer exactly when a command writes it."""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import convex_cyclic
from convex_cyclic import errors

# each module may import only from the modules before it
LAYERS = (
    "errors",
    "_jsonutil",
    "_solvers",
    "convex_poly",
    "spectral",
    "jordan_forms",
    "suite",
    "dynamics",
    "interpolation",
    "cli",
    "acceptance",
)
# the modules whose ``__all__`` the package re-exports, in layer order
LIBRARY = ("errors", "convex_poly", "spectral", "jordan_forms", "suite", "dynamics", "interpolation")
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


def _raised_names() -> set[str]:
    """Names of the exceptions the package's ``raise`` statements construct or re-raise."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_has_a_raise_site():
    unraised = set(errors.__all__) - {"ConvexCyclicError"} - _raised_names()
    assert unraised == set(), "error classes nothing raises"


# every command that writes a ``to_jsonable`` payload, with an input whose
# payload reaches every serializer it nests, and the schema of that format
WRITERS = {
    "analyze": ('{"field": "complex", "rows": [[[0.0, 0.5], 0.0], [0.0, [0.0, -0.5]]]}', "verdict"),
    "interpolate": ('{"real_nodes": [{"x": -2.0, "targets": [7.0]}]}', "interpolation_certificate"),
    "density": (
        '{"matrix": {"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}, "vector": [1.0, 1.0], '
        '"targets": [[-4.0, 2.0]], "poly_budget": 50}',
        "density",
    ),
}


def _serializers() -> dict[str, type]:
    """Every class of the package that defines ``to_jsonable``, by name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"convex_cyclic.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "to_jsonable" for item in node.body
            ):
                found[node.name] = getattr(module, node.name)
    return found


def test_a_class_serializes_exactly_when_a_command_writes_it(monkeypatch, run_cli, validate_schema):
    """A serializer no command writes is dead code; each written format has a schema."""
    written = set()
    for name, cls in _serializers().items():

        def recorded(self, _name=name, _method=cls.to_jsonable):
            written.add(_name)
            return _method(self)

        monkeypatch.setattr(cls, "to_jsonable", recorded)
    for command, (body, schema) in WRITERS.items():
        code, out, _ = run_cli([command, "--input", body])
        assert code == 0, command
        validate_schema(schema, json.loads(out))
    assert written == set(_serializers()) == {
        "ConvexCyclicVerdict",
        "FailedCondition",
        "InterpolationCertificate",
        "DensityReport",
    }
