"""End-to-end command-line runs against temporary workspaces."""
import csv
import json
import math

import numpy as np
import pytest
from scipy import stats

from mzq import cli, components, estimate
from mzq.components import (
    QubitScatterer,
    make_interferometer,
    read_trace,
    sweep,
    synthesize,
    write_trace_csv,
    write_trace_json,
)
from mzq.estimate import (RateDataset, calibration_curve, fit_gamma1, fit_gamma_phi_power,
                          fit_ou, ou_curve, read_fit_json, read_rates_csv, write_rates_csv)
from mzq.leastsq import levenberg_marquardt, prediction_band
from mzq.physics import (
    BathModel,
    DegenerateFlux,
    OUNoise,
    TransmonParams,
    domega01_dflux,
    gamma1_model,
    gamma_phi_model,
    gamma_phi_rate,
    omega01 as transmon_omega01,
)

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

QUBIT_CFG = {"omega01_ghz": 5.2, "gamma1_mhz": 1.0, "gamma_phi_mhz": 0.4,
             "r0": 0.9, "rabi_mhz": 1.5}
GRID_CFG = {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 201}


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _run(*argv):
    return cli.main(list(argv))


def _truth_qubit():
    return QubitScatterer(omega01=5.2 * GHZ, gamma1=1.0 * MHZ,
                          gamma_phi=0.4 * MHZ, r0=0.9, rabi=1.5 * MHZ)


# ---------------------------------------------------------------------------
# simulate / synth
# ---------------------------------------------------------------------------

def test_simulate_writes_matching_csv_and_json(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "basename": "sim",
        "label": "run one",
    })
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out), "--quiet") == 0
    from_csv = read_trace(out / "sim.csv")
    from_json = read_trace(out / "sim.json")
    assert np.array_equal(from_csv.freqs, from_json.freqs)
    for path in from_csv.values:
        assert np.array_equal(from_csv.values[path], from_json.values[path])
    assert from_csv.label == "run one"

    expected = synthesize(make_interferometer(qubit=_truth_qubit()),
                          np.linspace(5.17e9, 5.23e9, 201), label="run one")
    assert np.array_equal(from_json.values["s12"], expected.values["s12"])


def test_synth_is_seed_deterministic(tmp_path):
    doc = {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "noise_sigma": 0.02,
        "seed": 7,
    }
    cfg = _write(tmp_path / "synth.json", doc)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run("synth", "--config", cfg, "--out", str(a), "--quiet") == 0
    assert _run("synth", "--config", cfg, "--out", str(b), "--quiet") == 0
    assert _run("synth", "--config", cfg, "--out", str(c), "--quiet",
                "--seed", "8") == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()
    assert (a / "trace.csv").read_bytes() != (c / "trace.csv").read_bytes()
    assert read_trace(a / "trace.json").noise_sigma == 0.02


def test_seed_is_a_synth_only_option(tmp_path):
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG})
    with pytest.raises(SystemExit) as exc:
        _run("simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_carriage_return_label_exits_2_before_writing(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG,
                                         "label": "a\rb"})
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out)) == 2
    assert "carriage return" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_flux_tag_survives_the_json_side(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "flux_phi0": 0.21,
    })
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out), "--quiet") == 0
    assert read_trace(out / "trace.json").flux_phi0 == 0.21


# ---------------------------------------------------------------------------
# config and degeneracy failures
# ---------------------------------------------------------------------------

def test_config_problems_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    missing = str(tmp_path / "nope.json")
    assert _run("simulate", "--config", missing, "--out", out) == 2

    bad_key = _write(tmp_path / "bad1.json", {"grid": GRID_CFG, "circuit": {},
                                              "bogus": 1})
    assert _run("simulate", "--config", bad_key, "--out", out) == 2
    assert "bogus" in capsys.readouterr().err

    not_object = tmp_path / "bad2.json"
    not_object.write_text("[1, 2, 3]\n")
    assert _run("simulate", "--config", str(not_object), "--out", out) == 2

    backwards = _write(tmp_path / "bad3.json", {
        "circuit": {}, "grid": {"start_ghz": 6.0, "stop_ghz": 5.0, "points": 10}})
    assert _run("simulate", "--config", backwards, "--out", out) == 2
    assert "stop_ghz" in capsys.readouterr().err

    sparse = _write(tmp_path / "bad4.json", {
        "circuit": {}, "grid": {"start_ghz": 5.0, "stop_ghz": 6.0, "points": 1}})
    assert _run("simulate", "--config", sparse, "--out", out) == 2

    # json.load reads NaN and Infinity; the message must name the config key
    for key, bad in (("delay_ns", math.nan), ("attenuation", math.inf)):
        lines = {key: [0.1, bad, 0.1, 0.1]}
        cfg = _write(tmp_path / f"bad_{key}.json", {"circuit": {"lines": lines},
                                                     "grid": GRID_CFG})
        assert _run("simulate", "--config", cfg, "--out", out) == 2
        assert f"config.circuit.lines.{key}" in capsys.readouterr().err

    # a value the model rejects, or one that overflows in rad/s, names where it sits
    def qubit(**changes):
        return {"circuit": {"qubit": {**QUBIT_CFG, **changes}}, "grid": GRID_CFG}

    synth = {"circuit": {}, "grid": GRID_CFG, "noise_sigma": 0.01}
    cases = [
        ("simulate", qubit(r0=1.5), [], "config.circuit.qubit: r0"),
        ("simulate", qubit(rabi_mhz=1.0, gamma1_mhz=0), [], "config.circuit.qubit: saturation"),
        ("simulate", qubit(omega01_ghz=1e300), [], "config.circuit.qubit: omega01"),
        ("fit-spectrum", {"input_csv": "a.csv",
                          "init": {**QUBIT_CFG, "gamma1_mhz": 0, "gamma_phi_mhz": 0}},
         [], "config.init: gamma1/2"),
        ("fit-rates", {"rates_csv": "a.csv", "transmon": {**TRANSMON_CFG, "ej_max_ghz": 1.0}},
         [], "config.transmon: transmon regime"),
        ("synth", {**synth, "seed": -3}, [], "config.seed"),
        ("synth", synth, ["--seed", "-1"], "--seed"),
        ("simulate", {"circuit": {"splitter": "branchline", "center_ghz": 1e300},
                      "grid": GRID_CFG}, [], "config.circuit: branchline"),
        ("simulate", {"circuit": {}, "grid": {**GRID_CFG, "stop_ghz": 1e300}}, [],
         "config.grid.stop_ghz"),
        ("simulate", {"circuit": {"cal_scale_re": 0}, "grid": GRID_CFG}, [],
         "config.circuit: cal_scale"),
    ]
    for k, (command, doc, extra, where) in enumerate(cases):
        cfg = _write(tmp_path / f"model_{k}.json", doc)
        assert _run(command, "--config", cfg, "--out", out, *extra) == 2, where
        assert capsys.readouterr().err.startswith(f"error: {where}")


def test_full_reflection_on_grid_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": {"omega01_ghz": 5.2, "gamma1_mhz": 1.0,
                              "gamma_phi_mhz": 0.4, "r0": 1.0}},
        "grid": {"start_ghz": 5.15, "stop_ghz": 5.25, "points": 3},
    })
    assert _run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: forward model degenerate: ")
    assert err.count("5.2e+09") == 1 and err.count(" Hz") == 1


def test_a_far_grid_simulates_to_the_off_resonance_limit(tmp_path):
    # the scaled detuning squared overflows there; r -> 0 is the right limit
    # and pytest turns any numpy warning into an error
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG},
                                         "grid": {"start_ghz": 5.15, "stop_ghz": 1e200,
                                                  "points": 5}})
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out), "--quiet") == 0
    trace = read_trace(out / "trace.json")
    assert all(np.all(np.isfinite(v)) for v in trace.values.values())


def test_corrupt_trace_exits_2(tmp_path):
    broken = tmp_path / "broken.csv"
    broken.write_text("freq_hz,re,im,path,label\nnot,a,number,s12,\n")
    cfg = _write(tmp_path / "fit.json", {"input_csv": str(broken)})
    assert _run("classify", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    fit_cfg = _write(tmp_path / "fit2.json", {"input_csv": str(broken),
                                              "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", fit_cfg, "--out",
                str(tmp_path / "out")) == 2


def _bad_csv_sample(trace, tmp_path):
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[1] = "nan"
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    return path


def _oversized_csv_field(trace, tmp_path):
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    lines[1] += "x" * 200_000  # past csv's default field size limit
    path.write_text("\n".join(lines) + "\n")
    return path


def _bad_sample_after_two_line_labels(trace, tmp_path):
    trace.label = "a\nb"  # quoted, so every record spans two physical lines
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = "x"  # the third record starts on physical line 6
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _bad_json(**edits):
    def make(trace, tmp_path):
        path = tmp_path / "scan.json"
        write_trace_json(path, trace)
        doc = json.loads(path.read_text())
        for key, value in edits.items():
            if key in ("re", "im"):
                doc["paths"]["s12"][key][5] = value
            elif key == "freq_hz":
                doc[key][5] = value
            else:
                doc[key] = value
        path.write_text(json.dumps(doc))
        return path
    return make


@pytest.mark.parametrize("make_input, message", [
    (_bad_csv_sample, "line 4: non-finite"),
    (_oversized_csv_field, "line 2: field larger than field limit"),
    (_bad_sample_after_two_line_labels, "line 6: could not convert string to float"),
    (_bad_json(re=math.inf), "non-finite sample"),
    (_bad_json(drive_port="4"), "drive_port"),
    (_bad_json(drive_port=True), "drive_port"),
    (_bad_json(flux_phi0="0.2"), "flux_phi0"),
    (_bad_json(flux_phi0=math.nan), "flux_phi0"),
    # one re with 51 im used to broadcast into 51 samples sharing a real part
    (_bad_json(paths={"s12": {"re": [0.5], "im": [0.1] * 51}}),
     "path 's12': re, im and freq_hz differ in length"),
    # these used to be coerced: None and 5 into the labels "None" and "5",
    # true and "0.5" into noise levels, string numbers into samples
    (_bad_json(label=None), "trace.label: expected a string"),
    (_bad_json(label=5), "trace.label: expected a string"),
    (_bad_json(noise_sigma=True), "trace.noise_sigma: expected a finite number"),
    (_bad_json(noise_sigma="0.5"), "trace.noise_sigma: expected a finite number"),
    (_bad_json(freq_hz="5.2e9"), "freq_hz must be a list of numbers"),
    (_bad_json(re="0.5"), "path 's12': re must be a list of numbers"),
    (_bad_json(im="0.5"), "path 's12': im must be a list of numbers"),
    (_bad_json(im=None), "path 's12': im must be a list of numbers"),
    # these used to raise AttributeError, a traceback and exit 1
    (_bad_json(paths=[]), "paths must be an object"),
    (_bad_json(paths=5), "paths must be an object"),
    (_bad_json(paths={"s12": [1, 2]}), "path 's12' must be an object"),
], ids=["csv-nan-sample", "csv-oversized-field", "csv-multiline-label", "json-inf-sample",
        "json-drive-port-string", "json-drive-port-bool", "json-flux-string", "json-flux-nan",
        "json-re-im-lengths", "json-label-null", "json-label-number", "json-noise-bool",
        "json-noise-string", "json-freq-string", "json-re-string", "json-im-string",
        "json-im-null", "json-paths-list", "json-paths-number", "json-path-list"])
def test_bad_trace_input_exits_2(tmp_path, capsys, make_input, message):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 51))
    trace.flux_phi0 = 0.2
    path = make_input(trace, tmp_path)
    key = "input_csv" if path.suffix == ".csv" else "input_json"
    cfg = _write(tmp_path / "fit.json", {key: str(path), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


_HUGE = 10**330  # a JSON integer beyond float range: float() of it raises OverflowError


def _trace_config(command, **edits):
    def make(tmp_path):
        trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                           np.linspace(5.17e9, 5.23e9, 51))
        doc = {"input_json": str(_bad_json(**edits)(trace, tmp_path))}
        return {**doc, "init": QUBIT_CFG} if command == "fit-spectrum" else doc
    return make


# values a type check alone lets through: float() overflows on them, numpy refuses
# their size, or a required object is null
@pytest.mark.parametrize("command, make_config, key", [
    ("simulate", lambda tmp: {"circuit": {"cal_scale_re": _HUGE}, "grid": GRID_CFG},
     "config.circuit.cal_scale_re"),
    ("simulate", lambda tmp: {"circuit": {"lines": {"delay_ns": [_HUGE, 0, 0, 0]}},
                              "grid": GRID_CFG},
     "config.circuit.lines.delay_ns"),
    ("simulate", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "flux_phi0": _HUGE},
     "config.flux_phi0"),
    ("synth", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "noise_sigma": _HUGE},
     "config.noise_sigma"),
    ("classify", _trace_config("classify", flux_phi0=_HUGE), "trace.flux_phi0"),
    ("fit-spectrum", _trace_config("fit-spectrum", flux_phi0=_HUGE), "trace.flux_phi0"),
    ("classify", _trace_config("classify", noise_sigma=_HUGE), "trace.noise_sigma"),
    ("fit-spectrum", _trace_config("fit-spectrum", noise_sigma=_HUGE), "trace.noise_sigma"),
    # sizes numpy refuses without allocating: MemoryError, then "Maximum allowed size"
    ("simulate", lambda tmp: {"circuit": {}, "grid": {**GRID_CFG, "points": 10**17}},
     "config.grid.points"),
    ("simulate", lambda tmp: {"circuit": {}, "grid": {**GRID_CFG, "points": 10**30}},
     "config.grid.points"),
    ("fit-rates", lambda tmp: {"rates_csv": str(_rates_table(tmp)), "transmon": TRANSMON_CFG,
                               "band_points": 10**17}, "config.band_points"),
    ("fit-rates", lambda tmp: {"rates_csv": str(_rates_table(tmp)), "transmon": TRANSMON_CFG,
                               "band_points": 10**30}, "config.band_points"),
    # a required object given as null
    ("simulate", lambda tmp: {"circuit": {}, "grid": None}, "config.grid"),
    ("fit-rates", lambda tmp: {"rates_csv": "rates.csv", "transmon": None}, "config.transmon"),
], ids=["cal-scale-huge", "lines-delay-huge", "flux-huge", "noise-huge",
        "classify-trace-flux-huge", "fit-spectrum-trace-flux-huge",
        "classify-trace-noise-huge", "fit-spectrum-trace-noise-huge",
        "grid-points-1e17", "grid-points-1e30", "band-points-1e17", "band-points-1e30",
        "grid-null", "transmon-null"])
def test_value_out_of_range_exits_2_naming_its_key(tmp_path, capsys, command, make_config, key):
    cfg = _write(tmp_path / "cfg.json", make_config(tmp_path))
    out = tmp_path / "out"
    assert _run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key}: " in err
    assert not any(out.iterdir())


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_labels_a_trace(tmp_path, capsys):
    qubit = QubitScatterer(omega01=2 * math.pi * 5.826e9, gamma1=1.0 * MHZ,
                           gamma_phi=0.4 * MHZ, r0=0.9)
    grid = np.linspace(5.776e9, 5.876e9, 1001)
    trace = synthesize(make_interferometer(qubit=qubit), grid,
                       noise_sigma=0.005, seed=2)
    trace_path = tmp_path / "scan.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "cls.json", {"input_json": str(trace_path)})
    out = tmp_path / "out"
    assert _run("classify", "--config", cfg, "--out", str(out)) == 0
    assert "Dip" in capsys.readouterr().out
    doc = json.loads((out / "scan_label.json").read_text())
    assert doc == {"label": "Dip", "path": "s12"}


def test_featureless_classify_exits_4(tmp_path):
    grid = np.linspace(5.7e9, 5.8e9, 301)
    trace = synthesize(make_interferometer(), grid, noise_sigma=0.01, seed=1)
    trace_path = tmp_path / "flat.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "cls.json", {"input_json": str(trace_path)})
    assert _run("classify", "--config", cfg, "--out", str(tmp_path / "out")) == 4


# ---------------------------------------------------------------------------
# fit-spectrum
# ---------------------------------------------------------------------------

def test_single_trace_fit_outputs(tmp_path):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201))
    trace_path = tmp_path / "scan.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "fit.json", {
        "input_json": str(trace_path),
        "init": QUBIT_CFG,
    })
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    result = read_fit_json(out / "scan_fit.json")
    assert result.params["omega01"] == pytest.approx(5.2 * GHZ, rel=1e-9)
    assert result.params["gamma1"] == pytest.approx(1.0 * MHZ, rel=1e-6)

    resid_lines = (out / "scan_residuals.csv").read_text().splitlines()
    assert resid_lines[0] == "freq_hz,path,data_re,data_im,model_re,model_im"
    assert len(resid_lines) == 1 + 2 * 201  # both cross paths
    row = resid_lines[1].split(",")
    assert row[1] == "s12"
    assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-9)
    assert float(row[3]) == pytest.approx(float(row[5]), abs=1e-9)


def test_fitted_curves_come_from_the_fit_model(tmp_path, monkeypatch):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.01, seed=4)
    trace_path = tmp_path / "scan.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "fit.json", {"input_json": str(trace_path), "init": QUBIT_CFG})
    calls = []
    for module in (components, estimate, cli):
        monkeypatch.setattr(module, "sweep", lambda *a, **k: calls.append(a) or sweep(*a, **k))
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    assert not calls

    doc = json.loads((out / "scan_fit.json").read_text())
    assert set(doc) == {"params", "ci95", "rel_err", "residual_rms", "iterations", "converged"}
    p = doc["params"]
    # oracle: a sweep of the fitted circuit, calibrated as fit_spectrum does
    fitted = make_interferometer(qubit=QubitScatterer(
        omega01=p["omega01"], gamma1=p["gamma1"], gamma_phi=p["gamma_phi"], r0=p["r0"],
        rabi=_truth_qubit().rabi))
    cal = calibration_curve(p["scale_re"], p["scale_im"], p["phase_slope"], trace.freqs,
                            float(np.mean(trace.freqs)))
    with open(out / "scan_residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for path, want in sweep(fitted, trace.freqs).values.items():
        if path not in ("s12", "s34"):
            continue
        got = np.array([complex(float(r["model_re"]), float(r["model_im"]))
                        for r in rows if r["path"] == path])
        want = want * cal
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_batch_fit_collects_rates(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    fluxes = [0.10, 0.14, 0.18]
    for i, flux in enumerate(fluxes):
        qubit = QubitScatterer(omega01=(5.19 + 0.01 * i) * GHZ, gamma1=1.0 * MHZ,
                               gamma_phi=0.4 * MHZ, r0=0.9, rabi=1.5 * MHZ)
        trace = synthesize(make_interferometer(qubit=qubit),
                           np.linspace(5.16e9, 5.24e9, 241),
                           noise_sigma=0.005, seed=i)
        trace.flux_phi0 = flux
        write_trace_json(batch / f"trace_{i:02d}.json", trace)

    cfg = _write(tmp_path / "fit.json", {
        "input_dir": str(batch),
        "init": QUBIT_CFG,
    })
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    rates = read_rates_csv(out / "rates.csv")
    assert len(rates) == 3
    assert np.array_equal(rates.flux, fluxes)
    for i in range(3):
        assert (out / f"trace_{i:02d}_fit.json").exists()
        assert (out / f"trace_{i:02d}_residuals.csv").exists()
        assert rates.omega01[i] == pytest.approx((5.19 + 0.01 * i) * GHZ, rel=1e-3)


def test_batch_partial_failure_exits_4(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201))
    write_trace_json(batch / "good.json", trace)
    (batch / "bad.json").write_text("{ not a trace\n")

    cfg = _write(tmp_path / "fit.json", {
        "input_dir": str(batch),
        "init": QUBIT_CFG,
    })
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 4
    assert "fit failed for bad.json" in capsys.readouterr().err
    assert (out / "good_fit.json").exists()
    rates = read_rates_csv(out / "rates.csv")
    assert len(rates) == 1


def test_batch_fits_a_synth_twin_once_from_its_json(tmp_path):
    batch = tmp_path / "batch"
    cfg = _write(tmp_path / "synth.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "noise_sigma": 0.005,
        "flux_phi0": 0.17,
    })
    assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    assert sorted(p.name for p in batch.iterdir()) == ["trace.csv", "trace.json"]
    fit_cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(out), "--quiet") == 0
    rates = read_rates_csv(out / "rates.csv")
    assert len(rates) == 1
    assert rates.flux[0] == 0.17


def test_repeated_batch_fit_into_its_input_dir_skips_its_own_outputs(tmp_path):
    batch = tmp_path / "batch"
    cfg = _write(tmp_path / "synth.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "noise_sigma": 0.005,
        "flux_phi0": 0.17,
    })
    assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    fit_cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG,
                                             "rates_csv": "sweep_rates.csv"})
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(batch), "--quiet") == 0
    first = (batch / "sweep_rates.csv").read_bytes()
    assert sorted(p.name for p in batch.iterdir()) == [
        "sweep_rates.csv", "trace.csv", "trace.json", "trace_fit.json", "trace_residuals.csv"]
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(batch), "--quiet") == 0
    assert (batch / "sweep_rates.csv").read_bytes() == first


def test_rates_csv_cannot_hide_or_replace_an_input_trace(tmp_path, capsys):
    batch = tmp_path / "in"
    for name, flux in (("t1", 0.17), ("t2", 0.21)):
        cfg = _write(tmp_path / f"{name}.json", {"circuit": {"qubit": QUBIT_CFG},
                                                 "grid": GRID_CFG, "noise_sigma": 0.005,
                                                 "flux_phi0": flux, "basename": name})
        assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    before = {p.name: p.read_bytes() for p in batch.iterdir()}
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG,
                                         "rates_csv": "t1.json"})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(batch), "--quiet") == 2
    assert capsys.readouterr().err.startswith("error: config.rates_csv")
    assert {p.name: p.read_bytes() for p in batch.iterdir()} == before


def test_rates_csv_cannot_overwrite_a_fit_output_or_leave_out(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.005)
    write_trace_json(batch / "a.json", trace)
    write_trace_json(batch / "b.json", trace)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    fitted = (out / "a_fit.json").read_bytes()
    for name in ("a_fit.json", "b_residuals.csv", "../rates.csv", "sub/rates.csv", ".."):
        cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG,
                                             "rates_csv": name})
        assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 2, name
        assert capsys.readouterr().err.startswith("error: config.rates_csv")
    assert (out / "a_fit.json").read_bytes() == fitted
    assert not (tmp_path / "rates.csv").exists()


def test_fit_spectrum_needs_exactly_one_input(tmp_path):
    cfg = _write(tmp_path / "fit.json", {"input_csv": "a.csv", "input_json": "b.json"})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(tmp_path / "out")) == 2


# ---------------------------------------------------------------------------
# fit-rates
# ---------------------------------------------------------------------------

TRANSMON_CFG = {"ej_max_ghz": 20.0, "ec_mhz": 592.4}


def _rates_table(tmp_path):
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    bath = BathModel(alpha=1.7e-4, lorentz_center=2 * math.pi * 8.3e9,
                     lorentz_fwhm=2 * math.pi * 1.5e9, lorentz_height=2 * math.pi * 2.0e6)
    rng = np.random.default_rng(3)
    flux = np.linspace(0.05, 0.45, 30)
    w01 = np.array([transmon_omega01(transmon, p) for p in flux])
    slopes = np.array([abs(domega01_dflux(transmon, p)) for p in flux])
    g1 = gamma1_model(bath, w01) * (1 + 0.05 * rng.standard_normal(30))
    gp = np.array([gamma_phi_model(OUNoise(79e-6, 0.0, s)) for s in slopes])
    gp = gp * (1 + 0.1 * rng.standard_normal(30))
    rel = np.full(30, 0.1)

    # two rows the pipeline must set aside: one too noisy, one untagged
    w01 = np.append(w01, [w01[-1] * 1.001, w01[-1] * 1.002])
    g1 = np.append(g1, [g1[-1], g1[-1]])
    gp = np.append(gp, [gp[-1], gp[-1]])
    flux = np.append(flux, [0.30, np.nan])
    rel = np.append(rel, [0.5, 0.1])

    path = tmp_path / "rates.csv"
    write_rates_csv(path, RateDataset(w01, g1, gp, flux, rel))
    return path


def test_fit_rates_pipeline(tmp_path):
    rates_path = _rates_table(tmp_path)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(rates_path),
        "transmon": TRANSMON_CFG,
        "band_points": 50,
    })
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    for name in ("points_gamma1.csv", "points_gamma_phi.csv", "excluded_rows.csv",
                 "gamma1_fit.json", "curve_gamma1.csv",
                 "gamma_phi_power_fit.json", "curve_gamma_phi_power.csv",
                 "ou_fit.json", "curve_gamma_phi_ou.csv"):
        assert (out / name).exists(), name

    g1 = read_fit_json(out / "gamma1_fit.json")
    assert abs(g1.params["alpha"] - 1.7e-4) / 1.7e-4 < 0.33

    ou = read_fit_json(out / "ou_fit.json")
    assert abs(ou.params["sigma"] - 79e-6) / 79e-6 < 0.10
    assert "kappa_upper95" in ou.params

    power = read_fit_json(out / "gamma_phi_power_fit.json")
    assert power.params["eta"] == pytest.approx(1.0, abs=0.2)

    excluded = (out / "excluded_rows.csv").read_text().splitlines()
    assert excluded[0] == "row,omega01_rad_s,gamma_phi_rad_s,rel_err_gamma_phi,reason"
    reasons = {ln.split(",")[0]: ln.split(",")[4] for ln in excluded[1:]}
    assert reasons == {"30": "rel_err_at_or_above_max", "31": "flux_unknown"}

    curve = (out / "curve_gamma_phi_ou.csv").read_text().splitlines()
    assert curve[0] == "slope_rad_s_per_phi0,gamma_phi_rad_s,lo95_rad_s,hi95_rad_s"
    assert len(curve) == 51
    mid = [float(v) for v in curve[25].split(",")]
    assert mid[2] <= mid[1] <= mid[3]


def test_degenerate_flux_rows_keep_their_exclusion_reasons(tmp_path):
    rates_path = _rates_table(tmp_path)
    rates = read_rates_csv(rates_path)
    # sweet spot, both half-integer points, and two in the band where f01 <= 0
    extra = np.array([0.0, 0.5, 1.5, 0.4995, -0.4995])
    rates = RateDataset(np.append(rates.omega01, rates.omega01[:5]),
                        np.append(rates.gamma1, rates.gamma1[:5]),
                        np.append(rates.gamma_phi, rates.gamma_phi[:5]),
                        np.append(rates.flux, extra),
                        np.append(rates.rel_err_gamma_phi, np.full(5, 0.1)))
    write_rates_csv(rates_path, rates)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(rates_path), "transmon": TRANSMON_CFG, "band_points": 20})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    # the pointwise reasons, with the scalar slope and its DegenerateFlux
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    lines = ["row,omega01_rad_s,gamma_phi_rad_s,rel_err_gamma_phi,reason"]
    for i in range(len(rates)):
        reasons = []
        if rates.rel_err_gamma_phi[i] >= 0.33:
            reasons.append("rel_err_at_or_above_max")
        if not math.isfinite(rates.flux[i]):
            reasons.append("flux_unknown")
        else:
            try:
                slope = abs(domega01_dflux(transmon, float(rates.flux[i])))
            except DegenerateFlux:
                slope = math.nan
            if not slope > 0:
                reasons.append("zero_flux_sensitivity")
        if reasons:
            lines.append(",".join((str(i), *(format(float(x), ".17g") for x in (
                rates.omega01[i], rates.gamma_phi[i], rates.rel_err_gamma_phi[i])),
                ";".join(reasons))))
    assert (out / "excluded_rows.csv").read_text() == "\n".join(lines) + "\n"
    assert len(lines) == 1 + 2 + 5
    # the OU fit keeps only unlisted rows, so equal counts make a partition
    assert len(lines) - 1 + fit_ou(rates, transmon).dof + 2 == len(rates)


def test_ou_band_takes_its_dof_from_the_rows_the_fit_keeps(tmp_path):
    rates_path = _rates_table(tmp_path)
    rates = read_rates_csv(rates_path)
    # a usable row with a negative gamma_phi, which the OU fit drops
    rates = RateDataset(*(np.append(col, sign * col[3]) for col, sign in (
        (rates.omega01, 1), (rates.gamma1, 1), (rates.gamma_phi, -1), (rates.flux, 1),
        (rates.rel_err_gamma_phi, 1))))
    write_rates_csv(rates_path, rates)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(rates_path), "transmon": TRANSMON_CFG, "band_points": 20})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    lines = (out / "curve_gamma_phi_ou.csv").read_text().splitlines()[1:]
    xs, y, lo, hi = np.array([[float(v) for v in ln.split(",")] for ln in lines]).T
    ou = fit_ou(read_rates_csv(rates_path), TransmonParams(ej_max=20.0e9, ec=592.4e6))
    pvec = np.array(list(ou.params.values()))
    kept = len(rates) - 3  # less the noisy row, the untagged row and the negative one
    band = prediction_band(ou_curve, pvec, ou.covariance, xs, kept - 2)
    assert np.array_equal(np.array([y, lo, hi]), np.array(band))
    _, _, hi_usable = prediction_band(ou_curve, pvec, ou.covariance, xs, kept - 1)
    assert not np.allclose(hi_usable - y, hi - y, rtol=1e-4, atol=0)


def test_rate_fits_carry_the_dof_of_their_bands(tmp_path):
    rates = read_rates_csv(_rates_table(tmp_path))
    # a usable row with gamma_phi = 0, which the power fit drops and the OU fit keeps
    rates = RateDataset(*(np.append(col, value) for col, value in (
        (rates.omega01, rates.omega01[3]), (rates.gamma1, rates.gamma1[3]),
        (rates.gamma_phi, 0.0), (rates.flux, rates.flux[3]),
        (rates.rel_err_gamma_phi, 0.1))))
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    assert fit_gamma1(rates).dof == len(rates) - 4
    # less the noisy row and the untagged row, and for the power fit the zero row
    assert fit_gamma_phi_power(rates, transmon).dof == len(rates) - 3 - 2
    assert fit_ou(rates, transmon).dof == len(rates) - 2 - 2


@pytest.mark.parametrize("column,value", [(1, "nan"), (1, "inf"), (2, "nan"), (2, "-inf")])
def test_non_finite_rate_exits_2(tmp_path, capsys, column, value):
    path = _rates_table(tmp_path)
    lines = path.read_text().splitlines()
    fields = lines[6].split(",")
    fields[column] = value
    lines[6] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "line 7: gamma1 and gamma_phi must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_omega01_exits_2_naming_its_line(tmp_path, capsys, value):
    path = _rates_table(tmp_path)
    lines = path.read_text().splitlines()
    lines[6] = ",".join([value] + lines[6].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "line 7: omega01 must be finite and > 0" in capsys.readouterr().err


def test_band_matches_a_pointwise_reference():
    def curve(p, x):
        return gamma_phi_rate(abs(p[0]) * x, abs(p[1]))

    pvec = np.array([200e-6, 2 * MHZ])
    cov = np.array([[1e-11, 2e-2], [2e-2, 4e10]])
    xs = np.linspace(1e9, 3e10, 40)
    y, lo, hi = prediction_band(curve, pvec, cov, xs, 30)
    quantile = stats.t.ppf(0.975, 30)
    for j, x in enumerate(xs):
        grad = np.empty(2)
        for i in range(2):
            stepped = pvec.copy()
            stepped[i] += 1e-6 * abs(pvec[i])
            grad[i] = (curve(stepped, x) - curve(pvec, x)) / (1e-6 * abs(pvec[i]))
        half = quantile * math.sqrt(grad @ cov @ grad)
        assert y[j] == curve(pvec, x)
        assert hi[j] - y[j] == pytest.approx(half, rel=1e-9)
        assert y[j] - lo[j] == pytest.approx(half, rel=1e-9)


def _quasi_static_table(path, seed):
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    rng = np.random.default_rng(seed)
    flux = np.sort(rng.uniform(0.03, 0.43, 40))
    w01 = np.array([transmon_omega01(transmon, p) for p in flux])
    slopes = np.array([abs(domega01_dflux(transmon, p)) for p in flux])
    gp = np.array([gamma_phi_model(OUNoise(80e-6, 0.0, s)) for s in slopes])
    gp = gp * (1 + 0.1 * rng.standard_normal(40))
    write_rates_csv(path, RateDataset(w01, 1e-4 * w01, gp, flux, np.full(40, 0.1)))
    return path


def _central_jacobian(fn, x, rel_step=1e-3):
    cols = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = rel_step * abs(x[i])
        cols.append((fn(x + step) - fn(x - step)) / (2 * step[i]))
    return np.column_stack(cols)


@pytest.mark.parametrize("seed", [2, 6, 20])
def test_ou_band_is_the_delta_method_where_lm_ends_at_a_negative_kappa(tmp_path, monkeypatch,
                                                                     seed):
    # quasi-static noise (kappa = 0): on these seeds LM stops at a negative raw kappa
    raw = []

    def recording(fn, *args, **kwargs):
        raw.append((fn, levenberg_marquardt(fn, *args, **kwargs)))
        return raw[-1][1]

    monkeypatch.setattr(estimate, "levenberg_marquardt", recording)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(_quasi_static_table(tmp_path / "rates.csv", seed)),
        "transmon": TRANSMON_CFG, "band_points": 40})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    residual, res = next((fn, r) for fn, r in raw if r.x.size == 2)
    assert res.x[1] < 0
    # the delta method at the folded point, built without LM's Jacobian:
    # central differences with steps well inside |x|, so none crosses 0
    x = np.abs(res.x)
    jac = _central_jacobian(residual, x)
    dof = res.residual.size - 2
    cov = res.cost / dof * np.linalg.inv(jac.T @ jac)
    lines = (out / "curve_gamma_phi_ou.csv").read_text().splitlines()[1:]
    xs, y, lo, hi = np.array([[float(v) for v in ln.split(",")] for ln in lines]).T
    grad = _central_jacobian(lambda p: ou_curve(p, xs), x)
    half = stats.t.ppf(0.975, dof) * np.sqrt(np.einsum("ni,ij,nj->n", grad, cov, grad))
    assert np.array_equal(y, ou_curve(x, xs))
    assert np.all(np.abs((hi - y) / half - 1) < 0.01)
    assert np.all(np.abs((y - lo) / half - 1) < 0.01)

    # the reported covariance is that reference, cross term and its sign included
    ou = fit_ou(read_rates_csv(tmp_path / "rates.csv"), TransmonParams(ej_max=20.0e9, ec=592.4e6))
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(ou.covariance - cov) < 1e-3 * scale)
    assert np.sign(ou.covariance[0, 1]) == np.sign(cov[0, 1])


def test_fit_rates_needs_eight_rows(tmp_path, capsys):
    w = 2 * math.pi * np.linspace(4e9, 9e9, 5)
    path = tmp_path / "rates.csv"
    write_rates_csv(path, RateDataset(w, 1e-4 * w, np.full(5, 1e5),
                                      np.full(5, 0.2), np.full(5, 0.1)))
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "at least 8" in capsys.readouterr().err
