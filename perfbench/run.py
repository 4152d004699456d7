"""Benchmark harness for mzq: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload flux_sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and imports mzq from
``./src``. Set-up generates the workload's inputs from the seed in a fresh
interpreter (several times; ``setup_s`` is the median). With ``--trace 0``
the harness then runs passes of the workload's ``mzq`` process chain, one
process at a time in a closed loop, until ``--seconds`` have gone by, checks
every pass's outputs against the generating truth and reports the
end-to-end metrics. With ``--trace 1`` it replays the chain in-process
through ``mzq.cli.main``, untraced and then traced, and reports the
per-layer metrics. The last line of standard output is the result object;
the line before it holds the run's facts and every sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
REPLAY_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0
CLI = "import sys; from mzq.cli import main; sys.exit(main())"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("traces_per_s", "1/s"),
)


class BenchError(RuntimeError):
    """Raised when the benchmark cannot run at all."""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def run_child(argv: list[str], cwd: Path, env: dict, err_path: Path) -> Child:
    """Run one process to completion; its rusage comes from wait4 alone."""
    start = perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        try:
            fd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            fd = None
        if fd is not None:
            try:
                if not select.select([fd], [], [], CHILD_TIMEOUT_S)[0]:
                    proc.kill()
            finally:
                os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def _steal_s() -> float | None:
    """CPU time the hypervisor has taken from this machine's CPUs, if known."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def run_facts(root: Path) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "MZQ_THREADS": os.environ.get("MZQ_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
    }


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        sys.path.insert(0, str(self.src))
        self.work = root / ".perfbench_work" / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.problems: list[str] = []

    def setup(self) -> tuple[Path, dict, list[float]]:
        """Generate the inputs in fresh interpreters; keep the first copy."""
        times, plans = [], []
        for k in range(SETUP_REPEATS):
            target = self.work / f"setup{k}"
            child = run_child([sys.executable, str(HERE / "workloads.py"),
                               "--workload", self.workload, "--seed", str(self.seed),
                               "--dir", str(target)],
                              self.root, self.env, self.work / f"setup{k}.err")
            if child.code != 0:
                raise BenchError(f"set-up exited {child.code}: "
                                 + (self.work / f"setup{k}.err").read_text()[-2000:])
            times.append(child.wall)
            plans.append(json.loads((target / "plan.json").read_text()))
            if k:
                shutil.rmtree(target)
        if any(p != plans[0] for p in plans):
            raise BenchError("set-up is not deterministic under one seed")
        return self.work / "setup0", plans[0], times

    def check(self, plan_dir: Path, plan: dict, codes: list[int], label: str) -> bool:
        problems = [f"{step['command']} exited {code}"
                    for step, code in zip(plan["steps"], codes) if code != 0]
        if len(codes) < len(plan["steps"]):
            problems.append("chain stopped early")
        problems += workloads.CHECKS[self.workload](plan_dir / "pass", plan)
        self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def timed(self, seconds: float) -> tuple[dict, int, int, dict]:
        plan_dir, plan, setup_times = self.setup()
        passes, steal = [], []
        failed = 0
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            shutil.rmtree(plan_dir / "pass", ignore_errors=True)
            children = []
            steal_before = _steal_s()
            for step in plan["steps"]:
                out = plan_dir / step["out"]
                out.mkdir(parents=True)
                children.append(run_child(
                    [sys.executable, "-c", CLI, step["command"],
                     "--config", str(plan_dir / step["config"]), "--out", str(out), "--quiet"],
                    self.root, self.env, out / "stderr.txt"))
                if children[-1].code != 0:
                    sys.stderr.write((out / "stderr.txt").read_text()[-2000:])
                    break
            steal_after = _steal_s()
            steal.append(None if steal_before is None or steal_after is None
                         else steal_after - steal_before)
            ok = self.check(plan_dir, plan, [c.code for c in children], f"pass {len(passes)}")
            failed += not ok
            passes.append(children)

        samples = {
            "setup_s": setup_times,
            "wall_s": [sum(c.wall for c in p) for p in passes],
            "cpu_s": [sum(c.cpu for c in p) for p in passes],
            "peak_rss_mb": [max(c.rss_mb for c in p) for p in passes],
            "traces_per_s": [plan["items"] / p[0].wall for p in passes],
        }
        detail = {
            "steps": [s["command"] for s in plan["steps"]],
            "items": plan["items"],
            "passes": [[{"code": c.code, "wall_s": c.wall, "cpu_s": c.cpu,
                         "rss_mb": c.rss_mb} for c in p] for p in passes],
            "steal_s": steal,
            "summary": {k: _summary(v) for k, v in samples.items()},
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        return metrics, len(passes), failed, detail

    def traced(self) -> tuple[dict, int, int, dict]:
        plan_dir, plan, _ = self.setup()
        import mzq.cli
        if not Path(mzq.cli.__file__).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"mzq imported from {mzq.cli.__file__}, not from {self.src}")

        imports = [run_child([sys.executable, "-c", "import mzq.cli"], self.root, self.env,
                             self.work / "import.err") for _ in range(IMPORT_REPEATS)]
        if any(c.code != 0 for c in imports):
            raise BenchError("import mzq.cli failed: " + (self.work / "import.err").read_text())

        replays = []

        def replay(label: str, tracer: Tracer | None = None, threads: str | None = None):
            """One in-process pass, checked after any tracing stops."""
            shutil.rmtree(plan_dir / "pass", ignore_errors=True)
            saved = os.environ.get("MZQ_THREADS")
            if threads is not None:
                os.environ["MZQ_THREADS"] = threads
            if tracer is not None:
                tracer.install()
            walls, codes = [], []
            try:
                for step in plan["steps"]:
                    argv = [step["command"], "--config", str(plan_dir / step["config"]),
                            "--out", str(plan_dir / step["out"]), "--quiet"]
                    start = perf_counter()
                    if tracer is None:
                        codes.append(mzq.cli.main(argv))
                    else:
                        with tracer.root_span("cli.main"):
                            codes.append(mzq.cli.main(argv))
                    walls.append(perf_counter() - start)
                    if codes[-1] != 0:
                        break
            finally:
                if tracer is not None:
                    tracer.uninstall()
                if saved is None:
                    os.environ.pop("MZQ_THREADS", None)
                else:
                    os.environ["MZQ_THREADS"] = saved
            replays.append(self.check(plan_dir, plan, codes, label))
            return walls

        commands = [s["command"] for s in plan["steps"]]
        fit = commands.index("fit-spectrum") if "fit-spectrum" in commands else None
        # rounds alternate the replays, so a slow spell of a shared machine
        # hits both sides of each ratio; the last round's spans are reported
        untraced, traced, serial = [], [], []
        for _ in range(REPLAY_ROUNDS):
            untraced.append(replay("untraced replay"))
            tracer = Tracer()
            traced.append(replay("traced replay", tracer))
            if fit is not None:
                # the same fit stage with a one-worker pool, untraced
                serial.append(replay("one-worker replay", threads="1"))

        overheads = [sum(t) / sum(u) - 1.0 for t, u in zip(traced, untraced)]
        speedups = [s[fit] / u[fit] for s, u in zip(serial, untraced)
                    if fit < min(len(s), len(u))]
        measured = {
            "cli.import_s": statistics.median(c.wall for c in imports),
            "cli.pool_speedup": statistics.median(speedups) if speedups else 0.0,
            "trace.overhead_pct": 100.0 * statistics.median(overheads),
        }
        metrics = layer_metrics(tracer.spans, measured)
        detail = {
            "untraced_step_s": untraced,
            "traced_step_s": traced,
            "one_worker_step_s": serial,
            "spans": len(tracer.spans),
            "missing_targets": tracer.missing,
        }
        return metrics, len(replays), replays.count(False), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mzq" / "__init__.py").is_file():
        print(f"error: no mzq sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        if args.trace:
            values, attempted, failed, detail = bench.traced()
            units = dict(PER_LAYER)
        else:
            values, attempted, failed, detail = bench.timed(args.seconds)
            units = dict(END_TO_END)
        facts = run_facts(root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "facts": facts, "problems": bench.problems, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
