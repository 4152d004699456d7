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


def test_no_call_reaches_numpy_ma():
    # np.median, np.percentile, np.quantile, the np.nan* reductions and
    # np.unique import numpy.ma, which no mzq process needs: estimate's
    # _median and _quantile give the two values mzq takes
    reaching = r"ma|median|percentile|quantile|nan\w+|unique"
    reached = set()
    for path in sorted((SRC / "mzq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy") and re.fullmatch(reaching, node.attr)):
                reached.add((path.name, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [f"{node.module}.{alias.name}" for alias in node.names])
                reached |= {(path.name, n) for n in names
                            if re.fullmatch(rf"numpy\.({reaching})(\..*)?", n)}
    assert reached == set()


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


def _is_os(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_no_module_reads_the_environment():
    # sizes such as components.BLOCK_POINTS are constants, not knobs. The one
    # write is cli's pin of OpenBLAS to one thread, made before numpy loads
    knobs = {"environ", "getenv", "putenv", "unsetenv", "environb", "getenvb"}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted((SRC / "mzq").glob("*.py"))}
    readers, stores = set(), []
    for name, tree in trees.items():
        written = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Subscript)
                    and _is_os(node.targets[0].value, "environ")):
                written.add(node.targets[0].value)
                stores.append((name, ast.unparse(node.targets[0].slice),
                               ast.unparse(node.value), node.lineno))
        for node in ast.walk(tree):
            if any(_is_os(node, knob) for knob in knobs) and node not in written:
                readers.add(name)
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name in knobs for alias in node.names)):
                readers.add(name)
    assert readers == set()
    assert [s[:3] for s in stores] == [("cli.py", "'OPENBLAS_NUM_THREADS'", "'1'")]
    # numpy loads at cli's own import or at its first sibling module's
    body = trees["cli.py"].body
    numpy_line = min(n.lineno for n in body if isinstance(n, ast.Import)
                     and any(alias.name == "numpy" for alias in n.names))
    sibling_line = min(n.lineno for n in body if isinstance(n, ast.ImportFrom) and n.level)
    assert stores[0][3] < min(numpy_line, sibling_line)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no /proc/self/task on this platform to count threads")
@pytest.mark.parametrize("caller_value", [None, "4"])
def test_the_cli_runs_one_os_thread(caller_value):
    """`from mzq.cli import main` leaves one OS thread, whatever the caller's OPENBLAS_NUM_THREADS.

    numpy's OpenBLAS starts a worker thread per extra core as it loads, unless
    cli pinned it first. On a one-core host there is no worker to start, so
    there this passes without the pin too.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    probe = "import os; from mzq.cli import main; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**env, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "1"


def test_package_import_loads_no_numpy():
    probe = "import sys; import mzq; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "False"


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
    # read_utf8, parse_json and csv_table; every output file is opened, as
    # UTF-8, by components' write_csv, write_json and write_trace_json
    calls = []
    for path in sorted((SRC / "mzq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                calls.append((path.name, name, node))
    for name in ("read_text", "loads", "reader"):
        assert [p for p, n, _ in calls if n == name] == ["components.py"], name
    assert [p for p, n, _ in calls if n == "dump"] == ["components.py"]
    for name in ("read_bytes", "load", "readline", "readlines", "splitlines"):
        assert [p for p, n, _ in calls if n == name] == [], name
    modes = []
    for p, _, node in (c for c in calls if c[1] == "open"):
        mode = node.args[1].value
        encoding = {k.arg: k.value.value for k in node.keywords}.get("encoding")
        modes.append((p, mode, encoding))
    # the binary pair is the result pipe of cli._in_two_processes's child
    assert sorted(set(modes)) == [("cli.py", "rb", None), ("cli.py", "wb", None),
                                  ("components.py", "w", "utf-8")]
    tree = ast.parse((SRC / "mzq" / "components.py").read_text())
    openers = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and any(getattr(getattr(c, "func", None), "id", "") == "open" for c in ast.walk(f))]
    assert sorted(openers) == ["write_csv", "write_json", "write_trace_json"]


def test_only_levenberg_marquardt_builds_an_lm_result():
    # an LMResult is one optimizer run; a fit without one, such as the
    # closed-form power law, hands leastsq.covariance its Jacobian and residual
    builders = []
    for path in sorted((SRC / "mzq").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name == "LMResult":
                        builders.append((path.name, getattr(top, "name", None)))
    assert builders == [("leastsq.py", "levenberg_marquardt")]
