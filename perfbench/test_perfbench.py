"""Self-tests of the benchmark: its checks reject corrupted outputs, its
tracer survives refactors of the code it wraps, and BENCHMARK.json names
exactly the metrics the harness prints."""
import csv
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mzq.components  # noqa: E402
import mzq.estimate  # noqa: E402
import mzq.netcore  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, TARGETS, Span, Tracer, layer_metrics, self_times  # noqa: E402

MEASURED = {"cli.import_s": 1.0, "cli.pool_speedup": 1.0, "trace.overhead_pct": 1.0}


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _write_fit_rates_outputs(out: Path, sigma: float, kappa: float) -> None:
    out.mkdir(parents=True)
    for name in workloads.FIT_RATES_OUTPUTS:
        (out / name).write_text("x\n")
    (out / "ou_fit.json").write_text(json.dumps(
        {"params": {"sigma": sigma, "kappa": kappa, "kappa_upper95": 2 * kappa}}))


def _write_rates_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega01_rad_s", "gamma1_rad_s", "gamma_phi_rad_s", "flux_phi0",
                         "rel_err_gamma_phi"])
        writer.writerows(rows)


@pytest.fixture(scope="module")
def flux_plan(tmp_path_factory):
    return workloads.generate("flux_sweep", 3, tmp_path_factory.mktemp("flux") / "w")


def _truth_rows(plan):
    return [[t["omega01"], t["gamma1"], t["gamma_phi"], t["flux_phi0"], 0.05]
            for t in plan["truth"]["traces"].values()]


def _flux_pass(tmp_path, plan, rows, sigma_scale=1.0):
    _write_rates_csv(tmp_path / "fit" / "rates.csv", rows)
    _write_fit_rates_outputs(tmp_path / "rates", plan["truth"]["sigma"] * sigma_scale,
                             plan["truth"]["kappa"])
    return workloads.check_flux_sweep(tmp_path, plan)


def test_flux_sweep_check_accepts_the_truth(tmp_path, flux_plan):
    assert _flux_pass(tmp_path, flux_plan, _truth_rows(flux_plan)) == []


@pytest.mark.parametrize("corrupt", ["gamma_phi", "omega01", "nan_flux", "twin", "short",
                                     "sigma"])
def test_flux_sweep_check_rejects_corruption(tmp_path, flux_plan, corrupt):
    rows = _truth_rows(flux_plan)
    sigma_scale = 1.0
    if corrupt == "gamma_phi":
        rows[5][2] *= 1.4
    elif corrupt == "omega01":
        rows[0][0] *= 1.03
    elif corrupt == "nan_flux":
        rows[7][3] = math.nan
    elif corrupt == "twin":
        rows[2] = list(rows[3])
    elif corrupt == "short":
        rows.pop()
    else:
        sigma_scale = 1.15
    assert _flux_pass(tmp_path, flux_plan, rows, sigma_scale) != []


def test_rate_table_check_rejects_kappa_and_missing_output(tmp_path):
    plan = workloads.generate("rate_table", 4, tmp_path / "w")
    sigma, kappa = plan["truth"]["sigma"], plan["truth"]["kappa"]
    _write_fit_rates_outputs(tmp_path / "ok" / "rates", sigma, kappa)
    assert workloads.check_rate_table(tmp_path / "ok", plan) == []
    _write_fit_rates_outputs(tmp_path / "bad" / "rates", sigma, kappa * 1.25)
    assert workloads.check_rate_table(tmp_path / "bad", plan) != []
    (tmp_path / "ok" / "rates" / "curve_gamma_phi_ou.csv").unlink()
    assert workloads.check_rate_table(tmp_path / "ok", plan) != []


def test_dense_simulate_check_rejects_a_changed_sample(tmp_path):
    plan = workloads.generate("dense_simulate", 5, tmp_path / "w")
    # the real command on a small grid keeps the test fast
    points = 64
    plan["truth"]["grid"]["points"] = points
    plan["truth"]["samples"] = [0, 17, 40, points - 1]
    config = json.loads((tmp_path / "w" / "simulate.json").read_text())
    config["grid"]["points"] = points
    (tmp_path / "w" / "simulate.json").write_text(json.dumps(config))
    out = tmp_path / "pass" / "sim"
    from mzq.cli import main
    assert main(["simulate", "--config", str(tmp_path / "w" / "simulate.json"),
                 "--out", str(out), "--quiet"]) == 0
    assert workloads.check_dense_simulate(tmp_path / "pass", plan) == []

    lines = (out / "dense.csv").read_text().splitlines()
    fields = lines[1 + 17].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[1 + 17] = ",".join(fields)
    (out / "dense.csv").write_text("\n".join(lines) + "\n")
    assert any("s12[17]" in p for p in workloads.check_dense_simulate(tmp_path / "pass", plan))

    (out / "dense.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("s14 points" in p for p in workloads.check_dense_simulate(tmp_path / "pass", plan))


def test_set_up_is_deterministic_under_a_seed(tmp_path):
    a = workloads.generate("rate_table", 9, tmp_path / "a")
    b = workloads.generate("rate_table", 9, tmp_path / "b")
    c = workloads.generate("rate_table", 10, tmp_path / "c")
    read = lambda d: (tmp_path / d / "inputs" / "rates.csv").read_text()  # noqa: E731
    assert a == b and read("a") == read("b") != read("c")


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

def test_self_time_counts_overlapping_children_once():
    spans = [Span(1, None, "root", 0.0, 10.0),
             Span(2, 1, "a", 1.0, 5.0), Span(3, 1, "b", 3.0, 6.0),  # concurrent workers
             Span(4, 2, "c", 2.0, 3.0)]
    assert self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_tracer_records_nested_layers_and_restores_originals():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _, _ in TARGETS}
    estimate_sweep = mzq.estimate.sweep
    tracer = Tracer()
    tracer.install()
    try:
        assert mzq.estimate.sweep is not estimate_sweep
        spec = mzq.components.make_interferometer(
            qubit=mzq.components.QubitScatterer(omega01=2 * math.pi * 5.2e9, gamma1=6e6,
                                                gamma_phi=2e6, r0=0.9))
        mzq.estimate.sweep(spec, [5.1e9, 5.2e9, 5.3e9])
    finally:
        tracer.uninstall()
    assert mzq.estimate.sweep is estimate_sweep
    assert all(getattr(__import__(m, fromlist=[a]), a) is f for (m, a), f in originals.items())

    metrics = layer_metrics(tracer.spans, MEASURED)
    assert metrics["components.sweep.calls"] == 1
    assert metrics["components.sweep.points"] == 3
    assert metrics["netcore.solve_port_system_many.calls"] == 1
    assert metrics["netcore.solve_port_system_many.us_per_point"] > 0
    assert metrics["leastsq.levenberg_marquardt.calls"] == 0
    assert metrics["leastsq.levenberg_marquardt.accept_ratio"] == 0.0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_s"))


def test_tracer_survives_a_renamed_target():
    targets = TARGETS + (("mzq.netcore", "solve_ports_renamed", "netcore.gone", None),
                         ("mzq.no_such_module", "f", "nowhere", None))
    tracer = Tracer(targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["mzq.netcore.solve_ports_renamed", "mzq.no_such_module.f"]
    assert not hasattr(mzq.netcore, "solve_ports_renamed")
    metrics = layer_metrics(tracer.spans, MEASURED)
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["estimate.fit_spectrum.calls"] == 0


def test_lm_counts_match_a_direct_fit():
    tracer = Tracer()
    tracer.install()
    try:
        result = mzq.estimate.levenberg_marquardt(lambda x: x - [1.0, 2.0], [0.0, 0.0])
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    accepted = len(result.cost_history) - 1
    assert span.attrs["accepted"] == accepted
    assert span.attrs["evals"] >= 1 + 2 * (accepted + 1)
