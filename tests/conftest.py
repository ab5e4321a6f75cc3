"""Shared test fixtures: schema validation, in-process CLI runs and fresh interpreters."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import convex_cyclic
from convex_cyclic import cli


@pytest.fixture(scope="session")
def validate_schema():
    """Validate a JSON instance against one of the packaged schemas."""
    root = resources.files("convex_cyclic").joinpath("schemas")
    cache: dict[str, dict] = {}

    def check(name: str, instance) -> None:
        if name not in cache:
            cache[name] = json.loads(root.joinpath(f"{name}.json").read_text(encoding="utf-8"))
        jsonschema.validate(instance, cache[name])

    return check


@pytest.fixture()
def run_cli():
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""

    def run(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a new interpreter that imports this checkout's package."""
    src = str(Path(convex_cyclic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(script: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120)

    return run
