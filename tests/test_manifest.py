"""Byte manifest: the benchmark plans' files, exit codes, stdout and stderr stay as committed.

Each plan of perfbench/workloads.py is generated at a seed and run through
cli.main, once as given and once with --quiet. It runs in-process, or with
each step as its own process, started by the benchmark's command with
PYTHONUNBUFFERED removed, so that stdout is block-buffered as on a pipe.
Every input and output file, and each step's exit code, stdout and stderr,
is kept as a SHA-256 digest in manifest.json, with the temporary root written
as "<root>" first, since configs and stdout carry it. Both ways of running
give the same digests. The Tier-1 tests check seed 1: every plan in-process,
and rate_table and flux_sweep as processes. A change that moves bytes on
purpose rewrites the manifest (from in-process runs) and names each moved
file:

    PYTHONPATH=src python tests/test_manifest.py          # check seeds 1-3, both ways
    PYTHONPATH=src python tests/test_manifest.py --write  # rewrite seeds 1-3
"""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import mzq.cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("manifest.json")
SEEDS = (1, 2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
# the benchmark's command for one mzq process
CLI = "import sys; from mzq.cli import main; sys.exit(main())"


def _in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mzq.cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _as_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(mzq.cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", CLI, *argv], capture_output=True, env=env,
                          stdin=subprocess.DEVNULL)
    return done.returncode, done.stdout, done.stderr


def plan_entries(workload: str, seed: int, root: Path, run=_in_process) -> dict:
    """The digests of one plan run under root: files by mode and path, steps by mode and index.

    run(argv) runs one step: its exit code, stdout and stderr.
    """
    plan = workloads.generate(workload, seed, root)

    def digest(data: bytes) -> str:
        return hashlib.sha256(data.replace(str(root).encode(), b"<root>")).hexdigest()

    def files(under: Path, mode: str) -> dict:
        return {f"{mode}{p.relative_to(root)}": digest(p.read_bytes())
                for p in sorted(under.rglob("*")) if p.is_file()}

    entries = files(root, "")
    for mode, flags in (("default/", []), ("quiet/", ["--quiet"])):
        shutil.rmtree(root / "pass", ignore_errors=True)
        for i, step in enumerate(plan["steps"]):
            code, out, err = run([step["command"], "--config", str(root / step["config"]),
                                  "--out", str(root / step["out"]), *flags])
            entries[f"{mode}step {i} {step['command']}"] = {
                "exit": code, "stdout": digest(out), "stderr": digest(err)}
        entries.update(files(root / "pass", mode))
    return entries


def differences(want: dict, got: dict) -> list[str]:
    """One line for each entry that is missing, unexpected or moved."""
    return [f"{k}: {'missing' if k not in got else 'unexpected' if k not in want else 'moved'}"
            for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k)]


def _manifest() -> dict:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["numpy"] != np.__version__:
        raise AssertionError(f"the manifest was made with numpy {manifest['numpy']}; "
                             f"this is numpy {np.__version__}")
    return manifest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_bytes_match_the_manifest(workload, tmp_path):
    want = _manifest()["plans"]["1"][workload]
    assert differences(want, plan_entries(workload, 1, tmp_path / workload)) == []


# dense_simulate's one step is covered in-process above and by script mode
@pytest.mark.parametrize("workload", ["rate_table", "flux_sweep"])
def test_plan_processes_match_the_manifest(workload, tmp_path):
    want = _manifest()["plans"]["1"][workload]
    assert differences(want, plan_entries(workload, 1, tmp_path / workload, _as_process)) == []


def cli_main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args()
    runs = {"in-process": _in_process}
    if not args.write:
        runs["as processes"] = _as_process
    with tempfile.TemporaryDirectory() as tmp:
        plans = {how: {str(seed): {w: plan_entries(w, seed, Path(tmp) / how / f"{w}_{seed}", run)
                                   for w in workloads.WORKLOADS} for seed in SEEDS}
                 for how, run in runs.items()}
    if args.write:
        MANIFEST.write_text(json.dumps({"numpy": np.__version__, "plans": plans["in-process"]},
                                       indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST}")
        return 0
    manifest = _manifest()
    moved = [f"{how}: seed {seed} {w} {line}" for how, by_seed in plans.items()
             for seed, by_plan in by_seed.items() for w, got in by_plan.items()
             for line in differences(manifest["plans"].get(seed, {}).get(w, {}), got)]
    print("\n".join(moved) or f"seeds {', '.join(map(str, SEEDS))}, {' and '.join(runs)}: "
          "every entry matches")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(cli_main())
