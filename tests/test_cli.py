"""End-to-end command-line runs against temporary workspaces."""
import json
import math

import numpy as np
import pytest
from scipy import stats

from mzq import cli
from mzq.components import (
    QubitScatterer,
    make_interferometer,
    read_trace,
    synthesize,
    trace_to_csv,
    trace_to_json,
    write_trace_json,
)
from mzq.estimate import (RateDataset, fit_gamma1, fit_gamma_phi_power, fit_ou, ou_curve,
                          read_fit_json, read_rates_csv, write_rates_csv)
from mzq.leastsq import prediction_band
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


def test_full_reflection_on_grid_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": {"omega01_ghz": 5.2, "gamma1_mhz": 1.0,
                              "gamma_phi_mhz": 0.4, "r0": 1.0}},
        "grid": {"start_ghz": 5.15, "stop_ghz": 5.25, "points": 3},
    })
    assert _run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: forward model degenerate at frequency")


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
    lines = trace_to_csv(trace).splitlines()
    row = lines[3].split(",")
    row[1] = "nan"
    lines[3] = ",".join(row)
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _oversized_csv_field(trace, tmp_path):
    lines = trace_to_csv(trace).splitlines()
    lines[1] += "x" * 200_000  # past csv's default field size limit
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _bad_json(**edits):
    def make(trace, tmp_path):
        doc = json.loads(trace_to_json(trace))
        for key, value in edits.items():
            if key == "re":
                doc["paths"]["s12"]["re"][5] = value
            else:
                doc[key] = value
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        return path
    return make


@pytest.mark.parametrize("make_input, message", [
    (_bad_csv_sample, "line 4: non-finite"),
    (_oversized_csv_field, "line 2: field larger than field limit"),
    (_bad_json(re=math.inf), "non-finite sample"),
    (_bad_json(drive_port="4"), "drive_port"),
    (_bad_json(drive_port=True), "drive_port"),
    (_bad_json(flux_phi0="0.2"), "flux_phi0"),
    (_bad_json(flux_phi0=math.nan), "flux_phi0"),
    # one re with 51 im used to broadcast into 51 samples sharing a real part
    (_bad_json(paths={"s12": {"re": [0.5], "im": [0.1] * 51}}),
     "path 's12': re, im and freq_hz differ in length"),
], ids=["csv-nan-sample", "csv-oversized-field", "json-inf-sample", "json-drive-port-string",
        "json-drive-port-bool", "json-flux-string", "json-flux-nan", "json-re-im-lengths"])
def test_bad_trace_input_exits_2(tmp_path, capsys, make_input, message):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 51))
    trace.flux_phi0 = 0.2
    path = make_input(trace, tmp_path)
    key = "input_csv" if path.suffix == ".csv" else "input_json"
    cfg = _write(tmp_path / "fit.json", {key: str(path), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


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


def test_fit_rates_needs_eight_rows(tmp_path, capsys):
    w = 2 * math.pi * np.linspace(4e9, 9e9, 5)
    path = tmp_path / "rates.csv"
    write_rates_csv(path, RateDataset(w, 1e-4 * w, np.full(5, 1e5),
                                      np.full(5, 0.2), np.full(5, 0.1)))
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "at least 8" in capsys.readouterr().err
