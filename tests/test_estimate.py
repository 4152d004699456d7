"""Regime classification, spectrum fits, and rate-model fits."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzq.components import (
    QubitScatterer,
    SpectrumTrace,
    make_interferometer,
    sweep,
    synthesize,
)
from mzq.estimate import (
    REL_ERR_MAX_DEFAULT,
    FitResult,
    IllPosed,
    NoFeature,
    RateDataset,
    RegimeLabel,
    calibration_curve,
    classify_regime,
    fit_gamma1,
    fit_gamma_phi_power,
    fit_ou,
    fit_spectrum,
    rates_from_csv,
    rates_to_csv,
    read_fit_json,
    read_rates_csv,
    write_fit_json,
    write_rates_csv,
)
from mzq.estimate import _ou_sigmas
from mzq.leastsq import NoConvergence
from mzq.physics import (
    BathModel,
    OUNoise,
    TransmonParams,
    domega01_dflux,
    flux_for_omega01,
    gamma1_model,
    gamma_phi_model,
    gamma_phi_rate,
)

from oracles import rates_csv_oracle

TRANSMON = TransmonParams(ej_max=20.0e9, ec=592.4e6)
TRUTH = QubitScatterer(omega01=2 * math.pi * 5.2e9, gamma1=2 * math.pi * 1.0e6,
                       gamma_phi=2 * math.pi * 0.4e6, r0=0.9, rabi=2 * math.pi * 1.5e6)


def _classified_trace(f01_hz, noise=0.0, seed=0, points=2001):
    qubit = QubitScatterer(omega01=2 * math.pi * f01_hz, gamma1=2 * math.pi * 1e6,
                           gamma_phi=2 * math.pi * 0.4e6, r0=0.9)
    spec = make_interferometer(qubit=qubit)
    grid = np.linspace(f01_hz - 50e6, f01_hz + 50e6, points)
    return synthesize(spec, grid, noise_sigma=noise, seed=seed)


def _qubit_trace(noise=0.0, seed=0, points=601, qubit=TRUTH):
    spec = make_interferometer(qubit=qubit)
    f0 = qubit.omega01 / (2 * math.pi)
    grid = np.linspace(f0 - 30e6, f0 + 30e6, points)
    return synthesize(spec, grid, noise_sigma=noise, seed=seed)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def test_lineshape_labels_track_the_working_point():
    assert classify_regime(_classified_trace(4.556e9)) == RegimeLabel.PEAK_DIP
    assert classify_regime(_classified_trace(5.826e9)) == RegimeLabel.DIP
    assert classify_regime(_classified_trace(7.288e9)) == RegimeLabel.DIP_PEAK


def test_labels_survive_noise_and_recalibration():
    for f01, expected in ((4.556e9, RegimeLabel.PEAK_DIP),
                          (5.826e9, RegimeLabel.DIP),
                          (7.288e9, RegimeLabel.DIP_PEAK)):
        trace = _classified_trace(f01, noise=0.01, seed=2)
        assert classify_regime(trace) == expected
        scaled = SpectrumTrace(
            freqs=trace.freqs,
            values={p: 0.7 * np.exp(0.9j) * v for p, v in trace.values.items()},
            drive_port=trace.drive_port,
        )
        assert classify_regime(scaled) == expected


def test_featureless_traces_are_refused():
    spec = make_interferometer()
    grid = np.linspace(5.7e9, 5.8e9, 401)
    with pytest.raises(NoFeature, match="noise floor"):
        classify_regime(synthesize(spec, grid, noise_sigma=0.01, seed=1))
    flat = SpectrumTrace(freqs=grid, values={"s12": np.full(401, 0.3 + 0.1j)})
    with pytest.raises(NoFeature):
        classify_regime(flat)
    short = SpectrumTrace(freqs=grid[:10], values={"s12": np.ones(10, complex)})
    with pytest.raises(NoFeature, match="too short"):
        classify_regime(short)


# ---------------------------------------------------------------------------
# spectrum fit
# ---------------------------------------------------------------------------

def test_noiseless_fit_recovers_the_generator():
    result = fit_spectrum(_qubit_trace(), make_interferometer(), init=TRUTH)
    assert result.converged
    assert result.params["omega01"] == pytest.approx(TRUTH.omega01, rel=1e-9)
    assert result.params["gamma1"] == pytest.approx(TRUTH.gamma1, rel=1e-9)
    assert result.params["gamma_phi"] == pytest.approx(TRUTH.gamma_phi, rel=1e-9)
    assert result.params["r0"] == pytest.approx(TRUTH.r0, rel=1e-9)
    assert result.params["scale_re"] == pytest.approx(1.0, abs=1e-9)
    assert result.params["scale_im"] == pytest.approx(0.0, abs=1e-9)
    assert result.params["phase_slope"] == pytest.approx(0.0, abs=1e-15)
    assert result.residual_rms < 1e-10
    assert set(result.ci95) == set(result.params)


def test_auto_init_needs_no_seed():
    quiet = QubitScatterer(omega01=TRUTH.omega01, gamma1=TRUTH.gamma1,
                           gamma_phi=TRUTH.gamma_phi, r0=TRUTH.r0)
    result = fit_spectrum(_qubit_trace(qubit=quiet), make_interferometer())
    assert result.params["omega01"] == pytest.approx(quiet.omega01, rel=1e-9)
    assert result.params["r0"] == pytest.approx(quiet.r0, rel=1e-6)
    # without a saturating drive only the total linewidth is identifiable
    total = result.params["gamma1"] / 2 + result.params["gamma_phi"]
    assert total == pytest.approx(quiet.gamma1 / 2 + quiet.gamma_phi, rel=1e-6)
    # so neither rate alone has an interval, and the 33% rule drops the row
    for name in ("gamma1", "gamma_phi"):
        assert result.ci95[name] == math.inf
        assert result.rel_err[name] == math.inf


def test_undriven_fit_json_is_strict_json(tmp_path):
    quiet = QubitScatterer(omega01=TRUTH.omega01, gamma1=TRUTH.gamma1,
                           gamma_phi=TRUTH.gamma_phi, r0=TRUTH.r0)
    path = tmp_path / "trace_fit.json"
    write_fit_json(path, fit_spectrum(_qubit_trace(qubit=quiet), make_interferometer()))

    def reject(token):
        raise ValueError(f"non-finite token {token}")

    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["ci95"]["gamma1"] == "inf" and doc["rel_err"]["gamma_phi"] == "inf"
    back = read_fit_json(path)
    for name in ("gamma1", "gamma_phi"):
        assert back.ci95[name] == math.inf and back.rel_err[name] == math.inf
    # files written with the bare token Infinity still load
    path.write_text(path.read_text().replace('"inf"', "Infinity"))
    assert read_fit_json(path) == back


def test_fit_recovers_an_unknown_calibration():
    from dataclasses import replace

    scale = 0.8 * np.exp(1j * math.pi / 5)
    delay = 2.3e-10
    spec = replace(make_interferometer(qubit=TRUTH), cal_scale=scale, cal_delay=delay)
    f0 = TRUTH.omega01 / (2 * math.pi)
    grid = np.linspace(f0 - 30e6, f0 + 30e6, 601)
    trace = sweep(spec, grid)
    result = fit_spectrum(trace, make_interferometer(), init=TRUTH)
    assert result.params["phase_slope"] == pytest.approx(delay, rel=1e-9)
    # the fitted scale is quoted at the window center
    f_ref = float(np.mean(grid))
    expected = scale * np.exp(-2j * math.pi * f_ref * delay)
    got = result.params["scale_re"] + 1j * result.params["scale_im"]
    assert got == pytest.approx(expected, abs=1e-12)
    assert result.params["omega01"] == pytest.approx(TRUTH.omega01, rel=1e-9)


def test_out_of_window_init_center_falls_back_to_the_feature():
    stale = QubitScatterer(omega01=2 * math.pi * 5.0e9, gamma1=TRUTH.gamma1,
                           gamma_phi=TRUTH.gamma_phi, r0=TRUTH.r0, rabi=TRUTH.rabi)
    result = fit_spectrum(_qubit_trace(), make_interferometer(), init=stale)
    assert result.converged
    assert result.params["omega01"] == pytest.approx(TRUTH.omega01, rel=1e-9)


def test_noisy_fits_stay_calibrated():
    hits = 0
    for seed in range(20):
        trace = _qubit_trace(noise=0.01, seed=seed)
        result = fit_spectrum(trace, make_interferometer(), init=TRUTH)
        assert result.converged
        assert abs(result.params["omega01"] - TRUTH.omega01) < 0.02 * TRUTH.omega01
        for name, true in (("gamma1", TRUTH.gamma1), ("gamma_phi", TRUTH.gamma_phi),
                           ("r0", TRUTH.r0)):
            assert abs(result.params[name] - true) / true < REL_ERR_MAX_DEFAULT
        if abs(result.params["gamma_phi"] - TRUTH.gamma_phi) <= result.ci95["gamma_phi"]:
            hits += 1
    assert hits >= 15  # 95% intervals, 20 draws


def test_fit_input_validation():
    trace = _qubit_trace()
    with pytest.raises(ValueError, match="fit options"):
        fit_spectrum(trace, make_interferometer(), init=TRUTH, options={"bogus": 1})
    short = SpectrumTrace(freqs=trace.freqs[:10], values={"s12": trace.values["s12"][:10]})
    with pytest.raises(ValueError, match="20 frequency points"):
        fit_spectrum(short, make_interferometer())
    no_cross = SpectrumTrace(freqs=trace.freqs, values={"s32": trace.values["s32"]})
    with pytest.raises(ValueError, match="cross path"):
        fit_spectrum(no_cross, make_interferometer())


def test_iteration_starved_fit_raises():
    trace = _qubit_trace(noise=0.01, seed=1)
    with pytest.raises(NoConvergence):
        fit_spectrum(trace, make_interferometer(), init=TRUTH, options={"max_iter": 1})


def test_calibration_curve_reference_point():
    freqs = np.linspace(5.0e9, 5.1e9, 5)
    f_ref = 5.05e9
    curve = calibration_curve(0.6, -0.2, 3e-10, freqs, f_ref)
    assert curve[2] == 0.6 - 0.2j  # untouched at the reference
    expected = (0.6 - 0.2j) * np.exp(-2j * math.pi * (freqs - f_ref) * 3e-10)
    assert np.allclose(curve, expected, rtol=1e-15)


# ---------------------------------------------------------------------------
# relaxation-model fit
# ---------------------------------------------------------------------------

def _gamma1_rates(noise=0.0, seed=0, points=30):
    bath = BathModel(alpha=1.7e-4, lorentz_center=2 * math.pi * 8.3e9,
                     lorentz_fwhm=2 * math.pi * 1.5e9, lorentz_height=2 * math.pi * 2.0e6)
    w = 2 * math.pi * np.linspace(4.0e9, 9.1e9, points)
    g = gamma1_model(bath, w)
    if noise:
        g = g * (1 + noise * np.random.default_rng(seed).standard_normal(points))
    return RateDataset(w, g, np.full(points, 1e5), np.full(points, np.nan),
                       np.full(points, np.nan)), bath


def test_pure_ohmic_relaxation_is_fit_exactly():
    w = 2 * math.pi * np.linspace(4.0e9, 9.0e9, 12)
    rates = RateDataset(w, 1.7e-4 * w, np.full(12, 1e5), np.full(12, np.nan),
                        np.full(12, np.nan))
    result = fit_gamma1(rates)
    assert result.converged
    assert result.params["alpha"] == pytest.approx(1.7e-4, rel=1e-12)
    assert result.params["lorentz_height"] <= 1e-9 * np.max(rates.gamma1)
    assert result.residual_rms < 1e-12


def test_one_gamma1_fit_takes_one_svd(monkeypatch):
    rates, _ = _gamma1_rates(noise=0.05, seed=1)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    fit_gamma1(rates)
    assert len(calls) == 1


def test_noisy_relaxation_fit_covers_the_truth():
    hits = 0
    for seed in range(10):
        rates, bath = _gamma1_rates(noise=0.1, seed=seed)
        result = fit_gamma1(rates)
        assert abs(result.params["alpha"] - bath.alpha) / bath.alpha < REL_ERR_MAX_DEFAULT
        if abs(result.params["alpha"] - bath.alpha) <= result.ci95["alpha"]:
            hits += 1
    assert hits >= 8


def test_relaxation_fit_guards():
    rates, _ = _gamma1_rates(points=6)
    with pytest.raises(IllPosed, match="8 rows"):
        fit_gamma1(rates)
    w = 2 * math.pi * np.linspace(5.0e9, 5.05e9, 10)
    narrow = RateDataset(w, 1e-4 * w, np.full(10, 1e5), np.full(10, np.nan),
                         np.full(10, np.nan))
    with pytest.raises(IllPosed, match="100 MHz"):
        fit_gamma1(narrow)
    w10 = 2 * math.pi * np.linspace(4.0e9, 9.0e9, 10)
    bad = RateDataset(w10, np.full(10, -1.0), np.full(10, 1e5),
                      np.full(10, np.nan), np.full(10, np.nan))
    with pytest.raises(IllPosed, match="finite"):
        fit_gamma1(bad)


# ---------------------------------------------------------------------------
# dephasing fits
# ---------------------------------------------------------------------------

def _flux_grid(points, f_lo=4.0e9, f_hi=8.5e9):
    targets = 2 * math.pi * np.linspace(f_lo, f_hi, points)
    flux = np.array([flux_for_omega01(TRANSMON, t) for t in targets])
    slopes = np.array([abs(domega01_dflux(TRANSMON, p)) for p in flux])
    return targets, flux, slopes


def test_power_law_exponent_is_exact_on_power_law_data():
    # slope ratio across this flux band exceeds a decade
    targets, flux, slopes = _flux_grid(12, f_lo=2.0e9, f_hi=9.0e9)
    amplitude = 1e-14
    gphi = amplitude * slopes**2
    rates = RateDataset(targets, np.full(12, 1e5), gphi, flux, np.full(12, 0.1))
    result = fit_gamma_phi_power(rates, TRANSMON)
    assert result.params["eta"] == pytest.approx(2.0, abs=1e-9)
    assert result.params["amplitude"] == pytest.approx(amplitude, rel=1e-8)
    assert result.iterations == 1
    assert result.ci95["eta"] == pytest.approx(0.0, abs=1e-8)


def test_quasi_static_noise_shows_unit_exponent():
    targets, flux, slopes = _flux_grid(10, f_lo=2.0e9, f_hi=9.0e9)
    gphi = np.array([gamma_phi_model(OUNoise(80e-6, 0.0, s)) for s in slopes])
    rates = RateDataset(targets, np.full(10, 1e5), gphi, flux, np.full(10, 0.05))
    result = fit_gamma_phi_power(rates, TRANSMON)
    assert result.params["eta"] == pytest.approx(1.0, abs=1e-9)
    assert result.params["amplitude"] == pytest.approx(80e-6 / math.sqrt(2), rel=1e-9)


def test_power_fit_matches_weighted_polyfit():
    rng = np.random.default_rng(6)
    targets, flux, slopes = _flux_grid(14, f_lo=2.0e9, f_hi=9.0e9)
    gphi = 1e-14 * slopes**2 * np.exp(0.2 * rng.standard_normal(14))
    rel = rng.uniform(0.05, 0.3, 14)
    rates = RateDataset(targets, np.full(14, 1e5), gphi, flux, rel)
    result = fit_gamma_phi_power(rates, TRANSMON)
    slope_ref, icept_ref = np.polyfit(np.log(slopes), np.log(gphi), 1, w=1 / rel)
    assert result.params["eta"] == pytest.approx(slope_ref, rel=1e-10)
    assert result.params["amplitude"] == pytest.approx(math.exp(icept_ref), rel=1e-10)


def test_power_fit_guards():
    targets, flux, slopes = _flux_grid(10, f_lo=2.0e9, f_hi=9.0e9)
    gphi = 1e-14 * slopes**2
    noisy = RateDataset(targets, np.full(10, 1e5), gphi, flux, np.full(10, 0.5))
    with pytest.raises(IllPosed, match="usable rows"):
        fit_gamma_phi_power(noisy, TRANSMON)  # every row above rel_err_max
    targets, flux, slopes = _flux_grid(10, f_lo=7.3e9, f_hi=8.2e9)
    narrow = RateDataset(targets, np.full(10, 1e5), 1e-14 * slopes**2, flux,
                         np.full(10, 0.1))
    with pytest.raises(IllPosed, match="decade"):
        fit_gamma_phi_power(narrow, TRANSMON)


def test_unknown_flux_rows_are_skipped():
    targets, flux, slopes = _flux_grid(12, f_lo=2.0e9, f_hi=9.0e9)
    flux = flux.copy()
    flux[::4] = np.nan  # three rows lose their flux tag
    gphi = 1e-14 * slopes**2
    rates = RateDataset(targets, np.full(12, 1e5), gphi, flux, np.full(12, 0.1))
    result = fit_gamma_phi_power(rates, TRANSMON)
    assert result.params["eta"] == pytest.approx(2.0, abs=1e-10)


def test_quasi_static_flux_noise_amplitude():
    sigma = 79e-6
    targets, flux, slopes = _flux_grid(30)
    gphi = np.array([gamma_phi_model(OUNoise(sigma, 0.0, s)) for s in slopes])
    gphi = gphi * (1 + 0.1 * np.random.default_rng(3).standard_normal(30))
    rates = RateDataset(targets, np.full(30, 1e5), gphi, flux, np.full(30, 0.1))
    result = fit_ou(rates, TRANSMON)
    assert result.converged
    assert abs(result.params["sigma"] - sigma) / sigma < 0.10
    assert set(result.params) == {"sigma", "kappa", "kappa_upper95"}
    assert set(result.ci95) == {"sigma", "kappa"}
    assert result.params["kappa_upper95"] >= result.params["kappa"]


def test_finite_noise_bandwidth_is_recovered():
    sigma, kappa = 400e-6, 2 * math.pi * 10e6
    targets, flux, slopes = _flux_grid(40)
    gphi = np.array([gamma_phi_model(OUNoise(sigma, kappa, s)) for s in slopes])
    gphi = gphi * (1 + 0.1 * np.random.default_rng(4).standard_normal(40))
    rates = RateDataset(targets, np.full(40, 1e5), gphi, flux, np.full(40, 0.1))
    result = fit_ou(rates, TRANSMON)
    assert abs(result.params["kappa"] - kappa) / kappa < 0.20


def test_start_scales_reproduce_each_rate():
    # the fit's seed pairs each trial kappa with per-row scales in closed
    # form; each must give its own row's rate back through the model
    _, _, slopes = _flux_grid(40)
    rng = np.random.default_rng(5)
    g = gamma_phi_rate(200e-6 * slopes, 2 * math.pi * 2e6) * np.exp(0.3 * rng.standard_normal(40))
    g[7] = 0.0
    v_med = float(np.median(g))
    for kappa in [0.0] + [c * v_med for c in (0.3, 1.0, 3.0, 10.0, 30.0)]:
        sigmas = _ou_sigmas(g, slopes, kappa)
        assert sigmas[7] == 0.0
        back = gamma_phi_rate(sigmas * slopes, kappa)
        assert back[7] == 0.0
        rows = g > 0
        assert np.max(np.abs(back[rows] / g[rows] - 1)) <= 1e-10


def test_flux_noise_fit_handles_missing_weights():
    targets, flux, slopes = _flux_grid(12)
    gphi = np.array([gamma_phi_model(OUNoise(60e-6, 0.0, s)) for s in slopes])
    rates = RateDataset(targets, np.full(12, 1e5), gphi, flux, np.full(12, np.nan))
    result = fit_ou(rates, TRANSMON)  # NaN errors: rows kept, fit unweighted
    assert result.params["sigma"] == pytest.approx(60e-6, rel=1e-6)


def test_flux_noise_fit_guards():
    targets, flux, slopes = _flux_grid(3)
    tiny = RateDataset(targets, np.full(3, 1e5), 1e-8 * slopes, flux, np.full(3, 0.1))
    with pytest.raises(IllPosed, match="usable rows"):
        fit_ou(tiny, TRANSMON)
    targets, flux, slopes = _flux_grid(8, f_lo=6.9e9, f_hi=7.0e9)
    flat = RateDataset(targets, np.full(8, 1e5), 1e-8 * slopes, flux, np.full(8, 0.1))
    with pytest.raises(IllPosed, match="constant"):
        fit_ou(flat, TRANSMON)


# ---------------------------------------------------------------------------
# result and table serialization
# ---------------------------------------------------------------------------

def test_fit_result_json_round_trip(tmp_path):
    rates, _ = _gamma1_rates(noise=0.05, seed=1)
    result = fit_gamma1(rates)
    path = tmp_path / "fit.json"
    write_fit_json(path, result)
    back = read_fit_json(path)
    assert back == result  # covariance excluded from equality
    doc = json.loads(path.read_text())
    assert set(doc) == {"params", "ci95", "rel_err", "residual_rms",
                        "iterations", "converged"}


def test_fit_result_validation():
    with pytest.raises(ValueError, match="missing from params"):
        FitResult(params={"a": 1.0}, ci95={"b": 0.1}, rel_err={"b": 0.1},
                  residual_rms=0.0, iterations=1, converged=True)
    with pytest.raises(ValueError, match="must be >= 0"):
        FitResult(params={"a": 1.0}, ci95={"a": -0.1}, rel_err={"a": 0.1},
                  residual_rms=0.0, iterations=1, converged=True)
    with pytest.raises(ValueError, match="inconsistent"):
        FitResult(params={"a": 2.0}, ci95={"a": 0.5}, rel_err={"a": 0.9},
                  residual_rms=0.0, iterations=1, converged=True)
    with pytest.raises(ValueError, match="unknown fit-result keys"):
        FitResult.from_json_dict({"params": {}, "ci95": {}, "rel_err": {},
                                  "residual_rms": 0.0, "iterations": 1,
                                  "converged": True, "extra": 1})
    with pytest.raises(ValueError, match="missing fit-result keys"):
        FitResult.from_json_dict({"params": {}})


def test_zero_estimate_maps_to_infinite_relative_error():
    result = FitResult(params={"a": 0.0}, ci95={"a": 0.3},
                       rel_err={"a": math.inf}, residual_rms=0.0,
                       iterations=1, converged=True)
    assert result.rel_err["a"] == math.inf


def test_rate_table_round_trip(tmp_path):
    targets, flux, slopes = _flux_grid(9)
    flux = flux.copy()
    flux[4] = np.nan
    rates = RateDataset(targets, 1e-4 * targets,
                        np.array([gamma_phi_model(OUNoise(5e-5, 0.0, s)) for s in slopes]),
                        flux, np.full(9, 0.21))
    path = tmp_path / "rates.csv"
    write_rates_csv(path, rates)
    back = read_rates_csv(path)
    for name in ("omega01", "gamma1", "gamma_phi", "flux", "rel_err_gamma_phi"):
        assert np.array_equal(getattr(back, name), getattr(rates, name), equal_nan=True)
    assert rates_to_csv(back) == path.read_text()


_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.floats(1e-300, 1e300), _ANY_FLOAT, _ANY_FLOAT,
                               _ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=10))
def test_rates_csv_matches_the_row_by_row_oracle(rows):
    rates = RateDataset(*(np.array(col) for col in zip(*rows)))
    text = rates_to_csv(rates)
    assert text == rates_csv_oracle(rates)
    if np.isfinite(rates.gamma1).all() and np.isfinite(rates.gamma_phi).all():
        back = rates_from_csv(text)
        for name in ("omega01", "gamma1", "gamma_phi", "flux", "rel_err_gamma_phi"):
            assert np.array_equal(getattr(back, name).view(np.int64),
                                  getattr(rates, name).view(np.int64))


def test_rate_table_parse_errors():
    good = rates_to_csv(RateDataset(np.array([1e9, 2e9]), np.array([1.0, 2.0]),
                                    np.array([1.0, 2.0]), np.array([0.1, 0.2]),
                                    np.array([0.1, 0.1])))
    with pytest.raises(ValueError, match="line 1: expected header"):
        rates_from_csv("omega,gamma\n1,2\n")
    lines = good.splitlines()
    with pytest.raises(ValueError, match="line 3: expected 5 fields"):
        rates_from_csv("\n".join([lines[0], lines[1], "1,2,3"]))
    with pytest.raises(ValueError, match="line 2: non-numeric"):
        rates_from_csv("\n".join([lines[0], lines[1].replace(lines[1].split(",")[0], "x", 1)]))
    with pytest.raises(ValueError, match="line 2: no data rows"):
        rates_from_csv(lines[0] + "\n")
    with pytest.raises(ValueError, match="invalid rate table"):
        rates_from_csv("\n".join([lines[0], "-1,2,3,0.1,0.1"]))


def test_rate_dataset_validation_and_subset():
    with pytest.raises(ValueError, match="equal length"):
        RateDataset(np.array([1e9, 2e9]), np.array([1.0]), np.array([1.0, 2.0]),
                    np.array([0.1, 0.2]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="omega01"):
        RateDataset(np.array([1e9, -2e9]), np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                    np.array([0.1, 0.2]), np.array([0.1, 0.1]))
    rates = RateDataset(np.array([1e9, 2e9, 3e9]), np.array([1.0, 2.0, 3.0]),
                        np.array([4.0, 5.0, 6.0]), np.array([0.1, 0.2, 0.3]),
                        np.array([0.1, 0.1, 0.1]))
    sub = rates.subset(np.array([True, False, True]))
    assert len(sub) == 2
    assert np.array_equal(sub.gamma_phi, [4.0, 6.0])
