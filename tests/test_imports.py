"""Imports: the runtime is numpy only, and every name a module imports is used."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_cli_import_loads_no_scipy_module():
    probe = ("import json, sys; import mzq.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert json.loads(out) == []


def test_no_module_imports_scipy():
    importers = set()
    for path in (SRC / "mzq").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


# (module, name) pairs imported for a reader outside the module. perfbench's
# tracer test reads mzq.estimate.sweep (ROADMAP items 1-2 free it).
IMPORTED_FOR_OTHERS = {("estimate.py", "sweep")}


def test_every_imported_name_is_used_or_exported():
    unused = set()
    for path in sorted((SRC / "mzq").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused |= {(path.name, name) for name in imported - used}
    assert unused == IMPORTED_FOR_OTHERS


def test_no_module_reads_the_environment():
    # sizes such as components.BLOCK_POINTS are constants, not knobs
    knobs = {"environ", "getenv", "putenv", "environb", "getenvb"}
    readers = set()
    for path in (SRC / "mzq").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in knobs
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                readers.add(path.name)
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name in knobs for alias in node.names)):
                readers.add(path.name)
    assert readers == set()


def test_one_fork_and_no_worker_modules():
    # cli._in_two_processes is the one fork, shared by simulate/synth's JSON
    # writer and fit-spectrum's batch child; nothing else starts a process or a thread
    forks, importers = [], set()
    for path in sorted((SRC / "mzq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                forks.append(path.name)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                forks += [path.name for alias in node.names if alias.name == "fork"]
            else:
                continue
            if any(name.split(".")[0] in {"multiprocessing", "concurrent", "threading"}
                   for name in names):
                importers.add(path.name)
    assert forks == ["cli.py"]
    assert importers == set()


def test_one_reader_for_every_input_file():
    # configs, traces and rate tables are read through components'
    # read_utf8, parse_json and csv_table; every text file is written as UTF-8
    calls = []
    for path in sorted((SRC / "mzq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                calls.append((path.name, name, node))
    for name in ("read_text", "loads", "reader"):
        assert [p for p, n, _ in calls if n == name] == ["components.py"], name
    for name in ("read_bytes", "load", "readline", "readlines", "splitlines"):
        assert [p for p, n, _ in calls if n == name] == [], name
    modes = []
    for p, _, node in (c for c in calls if c[1] == "open"):
        mode = node.args[1].value
        encoding = {k.arg: k.value.value for k in node.keywords}.get("encoding")
        modes.append((p, mode, encoding))
    # the binary pair is the result pipe of cli._in_two_processes's child
    assert sorted(set(modes)) == [("cli.py", "rb", None), ("cli.py", "w", "utf-8"),
                                  ("cli.py", "wb", None), ("components.py", "w", "utf-8"),
                                  ("estimate.py", "w", "utf-8")]
