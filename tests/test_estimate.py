"""Regime classification, spectrum fits, and rate-model fits."""
import cmath
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mzq import components, estimate, netcore
from mzq.components import (
    T_DEGENERATE,
    BeamSplitterModel,
    CircuitSpec,
    LineParams,
    QubitScatterer,
    SpectrumTrace,
    make_interferometer,
    parse_json,
    read_utf8,
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
    gamma1_curve,
    gamma1_jacobian,
    ou_curve,
    ou_jacobian,
    power_curve,
    power_jacobian,
    rates_from_csv,
    read_rates_csv,
    write_fit_json,
    write_rates_csv,
)
from mzq.components import _lineshape, _qubit_r_and_grad, _reflection_embedding, _transmission
from mzq.estimate import (_CALIBRATION, _QUBIT_BOUNDS, _embedded_spectrum, _fold_qubit, _median,
                           _mobius_coefficients, _quantile)
from mzq.leastsq import NoConvergence, covariance
from mzq.netcore import SingularSystem
from mzq.physics import (
    BathModel,
    OUNoise,
    TransmonParams,
    domega01_dflux,
    flux_for_omega01,
    gamma1_model,
    gamma_phi_model,
    flux_slope,
)

from oracles import port_solution_oracle, rates_csv_oracle, transfer_chain_oracle

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
# the median and the quartile without numpy.ma
# ---------------------------------------------------------------------------

def _bits(x) -> bytes:
    return np.float64(x).tobytes()


_ORDER_CASES = {
    "n=1": [2.5], "n=2": [3.0, -1.0], "odd": [5.0, 1.0, 4.0, 2.0, 3.0],
    "even": [0.1, 0.7, 0.3, 0.2], "ties": [2.0, 1.0, 2.0, 2.0, 1.0, 3.0],
    "negative": [-4.0, -1e-3, -7.5, -2.0], "zero": [-0.0], "zeros": [0.0, -0.0, -0.0, 0.0],
    "signed-zero ties": [-0.0, 1.0, 0.0, -0.0, -1.0, 0.0, 0.0],
    "trace magnitudes": list(np.abs(_qubit_trace(noise=0.01, seed=3).values["s12"])),
    "gamma1/omega01": list(2e-4 * np.random.default_rng(5).random(37)),
    "gamma_phi/slope": list(3e-4 * np.random.default_rng(6).random(96)),
    "rad/s": list(2 * math.pi * 1e9 * np.random.default_rng(7).random(16)),
}


@pytest.mark.parametrize("values", _ORDER_CASES.values(), ids=_ORDER_CASES.keys())
def test_median_and_quartile_give_numpys_bits(values):
    a = np.array(values)
    assert _bits(_median(a)) == _bits(np.median(a))
    assert _bits(_quantile(a, 0.25)) == _bits(np.percentile(a, 25))


def test_median_and_quartile_give_numpys_bits_on_random_arrays():
    rng = np.random.default_rng(2024)
    for k in range(3000):
        a = rng.normal(size=int(rng.integers(1, 700))) * 10.0 ** rng.uniform(-10, 10)
        if k % 3 == 0:  # ties
            a = np.round(a / np.abs(a).max(), 1)
        elif k % 3 == 1:  # ties of -0.0 and 0.0 between -1 and 1
            a = np.round(0.3 * rng.normal(size=a.size)) * np.sign(rng.normal(size=a.size))
        assert _bits(_median(a)) == _bits(np.median(a)), k
        assert _bits(_quantile(a, 0.25)) == _bits(np.percentile(a, 25)), k


def test_median_of_an_array_with_nan_is_nan():
    for a in ([math.nan], [1.0, math.nan, 2.0], [math.nan, -math.inf, 0.0, math.inf]):
        assert math.isnan(_median(np.array(a)))


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
    # zero spread keeps no point inside 3.5 sigma, so the baseline stops on its first pass
    dark = np.zeros(grid.size)
    resid, floor = estimate._detrend(grid, dark)
    assert np.array_equal(resid, dark) and floor == 1e-6 * 1e-300
    with pytest.raises(NoFeature):
        classify_regime(SpectrumTrace(freqs=grid, values={"s12": dark.astype(complex)}))


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
    for name in ("gamma1", "gamma_phi"):
        assert doc["ci95"][name] == "inf" and doc["rel_err"][name] == "inf"
        assert float(doc["ci95"][name]) == math.inf


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
    no_cross = SpectrumTrace(freqs=trace.freqs,
                             values={p: trace.values[p] for p in ("s32", "s14")})
    with pytest.raises(ValueError, match=r"^trace has no cross path \(s12 or s34\)$"):
        fit_spectrum(no_cross, make_interferometer())


def test_a_fit_at_full_reflection_returns_an_infinite_r0_interval():
    # a transmon that decays only into the line reflects fully on resonance,
    # and about half of all noise draws put the best fit on r0's upper bound
    full = replace(TRUTH, r0=1.0)
    at_bound = 0
    for seed in range(10):
        result = fit_spectrum(_qubit_trace(noise=0.01, seed=seed, qubit=full),
                              make_interferometer(), init=full)
        assert (result.params["r0"] == 1 - estimate._R0_MIN) == (result.ci95["r0"] == math.inf)
        at_bound += result.ci95["r0"] == math.inf
        for name in ("omega01", "gamma1", "gamma_phi"):
            assert math.isfinite(result.params[name]) and math.isfinite(result.ci95[name])
            true = getattr(full, name)
            assert abs(result.params[name] - true) / true < REL_ERR_MAX_DEFAULT
    assert at_bound >= 1


def test_a_fit_that_escapes_to_no_reflection_is_refused():
    # no scatterer in the trace: r0 runs to its lower fold bound, whose column is dead
    grid = np.linspace(5.17e9, 5.23e9, 601)
    with pytest.raises(NoConvergence, match="reflection amplitude pinned at its bound"):
        fit_spectrum(synthesize(make_interferometer(), grid), make_interferometer(), init=TRUTH)


def test_a_fit_whose_r0_entry_ends_negative_reports_the_covariance_of_its_params():
    # a line this broad leads the optimizer across r0 = 0; the model is even in
    # that entry, so the reported r0 is its fold and so must the covariance be
    broad = replace(TRUTH, gamma_phi=2 * math.pi * 5e6)
    trace, runs = _qubit_trace(noise=0.01, seed=3, qubit=broad), []
    lm = estimate.levenberg_marquardt
    with mock.patch.object(estimate, "levenberg_marquardt",
                           lambda *a, **k: runs.append(lm(*a, **k)) or runs[-1]):
        result = fit_spectrum(trace, make_interferometer(), init=TRUTH)
    assert runs[-1].x[3] < 0 < result.params["r0"]
    _, jacobian, _ = _embedded_spectrum(make_interferometer(), trace.freqs,
                                        float(np.mean(trace.freqs)), TRUTH.rabi, ["s12", "s34"])
    cols = jacobian(np.array(list(result.params.values())))
    want = covariance(np.concatenate([half for c in cols.values() for half in (c.real, c.imag)]),
                      runs[-1].residual)
    np.testing.assert_allclose(result.covariance, want, rtol=1e-9, atol=0)
    assert want[3, 1] < 0 and result.covariance[3, 1] < 0  # corr(r0, gamma1)


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
# spectrum fit: the scatterer's exact embedding and the analytic Jacobian
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["ideal", "branchline"]), arm=st.sampled_from(["a", "b"]),
       delays=st.lists(st.floats(0.0, 1e-9), min_size=4, max_size=4),
       losses=st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4),
       refl=st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(-math.pi, math.pi)),
                     min_size=9, max_size=9))
def test_cross_paths_are_affine_then_mobius_in_the_reflection(kind, arm, delays, losses, refl):
    center = 5.2e9
    freqs = center * np.linspace(0.7, 1.3, len(refl))
    w = 2 * math.pi * freqs
    r = np.array([cmath.rect(mag, phase) for mag, phase in refl])
    template = CircuitSpec(BeamSplitterModel(kind, center_frequency=2 * math.pi * center),
                           LineParams(phase_rate=tuple(delays), attenuation=tuple(losses)),
                           qubit_arm=arm)
    solve_at = _reflection_embedding(template, freqs, ["s12", "s34"])
    mobius = _mobius_coefficients(solve_at, freqs.size)

    def given_r(q, omegas):  # the scatterer of spec reflects r, whatever its lineshape
        k = np.searchsorted(w, omegas)
        return (r[k],)

    spec = replace(template, qubit=TRUTH)
    with mock.patch.object(components, "_lineshape", given_r), \
            mock.patch.object(oracles, "_lineshape", given_r):
        swept = sweep(spec, freqs)
        totals = transfer_chain_oracle(spec, w)
    # (a1_out, a3_out, ...) for a unit port-2 drive, then a unit port-4 drive
    oracle = {"s12": np.array([port_solution_oracle(m, 0, 1)[0] for m in totals]),
              "s34": np.array([port_solution_oracle(m, 1, 0)[1] for m in totals])}
    # worst error measured over 60 random draws: 4e-14 of the largest sample
    for p, (a, b, d) in mobius.items():
        scale = np.abs(oracle[p]).max()
        for got in (solve_at(r)[p], (a + b * r) / (1 + d * r), swept.values[p]):
            assert np.abs(got - oracle[p]).max() <= 1e-12 * scale


_X_SCALE = np.array([2 * math.pi * 1e6] * 3 + [0.1] * 3 + [1e-9])
_N_FIT = len(_QUBIT_BOUNDS) + len(_CALIBRATION)  # the spectrum fit's vector


def test_the_fit_vector_table_follows_the_scatterer_fields():
    # a fitted field is one row of _QUBIT_BOUNDS: its keys are QubitScatterer's
    # fields but the drive, in field order, and the gradient has a column for each
    assert list(_QUBIT_BOUNDS) == [f.name for f in fields(QubitScatterer) if f.name != "rabi"]
    r, grad = _qubit_r_and_grad(TRUTH, np.linspace(5.19e9, 5.21e9, 5) * 2 * math.pi)
    assert grad.shape == (r.size, len(_QUBIT_BOUNDS))


@pytest.mark.parametrize("rabi", [0.0, TRUTH.rabi], ids=["undriven", "driven"])
@pytest.mark.parametrize("x, clamped", [
    ([TRUTH.omega01, TRUTH.gamma1, TRUTH.gamma_phi, 0.9, 0.8, 0.3, 2e-10], []),
    # every abs in the fold flips the sign of its column
    ([-1.0001 * TRUTH.omega01, -1.3 * TRUTH.gamma1, -TRUTH.gamma_phi, -0.7, -0.5, 0.2, -1e-10],
     []),
    ([TRUTH.omega01, 4e-4, TRUTH.gamma_phi, 0.8, 1.0, 0.0, 0.0], [1]),  # gamma1 on its floor
    # r0 clamped; the center sits between grid points, since at |t| = 1e-6 the
    # solve's own rounding, not the Jacobian, would set the difference error
    ([TRUTH.omega01 + 2 * math.pi * 0.15e6, TRUTH.gamma1, TRUTH.gamma_phi, 1.5, 1.0, 0.0, 0.0],
     [3]),
], ids=["plain", "negative", "gamma1-floor", "r0-clamped"])
def test_spectrum_jacobian_matches_central_differences(rabi, x, clamped):
    trace = _qubit_trace(points=201)
    model, jacobian, _ = _embedded_spectrum(make_interferometer(), trace.freqs,
                                            float(np.mean(trace.freqs)), rabi, ["s12", "s34"])
    x = np.array(x)
    jac = jacobian(x)
    steps = 1e-4 * _X_SCALE
    steps[clamped] = 1e-5 * np.abs(x[clamped])  # stay on the clamp
    for k, h in enumerate(steps):
        up, down = model(x + h * np.eye(_N_FIT)[k]), model(x - h * np.eye(_N_FIT)[k])
        for p, cols in jac.items():
            central = (up[p] - down[p]) / (2 * h)
            # scaled columns, as the fit sees them; measured worst 6e-8
            tol = 1e-6 * np.abs(cols * _X_SCALE).max()
            assert np.abs(central - cols[:, k]).max() * _X_SCALE[k] <= tol
            if k in clamped:
                assert not cols[:, k].any()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=st.lists(st.floats(-1e12, 1e12), min_size=4, max_size=4).filter(lambda v: v[0] != 0),
       rabi=st.floats(0.0, 1e9), offsets=st.lists(st.floats(-1e9, 1e9), max_size=5))
def test_folded_reflection_stays_clear_of_full_reflection(x, rabi, offsets):
    q = _fold_qubit(x, rabi)[0]
    w = q.omega01 + np.array([0.0, *offsets])  # resonance is the worst point
    t = _transmission(_lineshape(q, w)[0], w)
    assert np.abs(t).min() >= 1e-6 > T_DEGENERATE


def test_spectrum_jacobian_at_a_zero_rate_is_the_right_hand_derivative():
    # gamma_phi = 0 sits on the fold's kink; the column must not be zero there,
    # or a fit started at 0 could never leave it
    trace = _qubit_trace(points=201)
    model, jacobian, _ = _embedded_spectrum(make_interferometer(), trace.freqs,
                                            float(np.mean(trace.freqs)), TRUTH.rabi,
                                            ["s12", "s34"])
    x = np.array([TRUTH.omega01, TRUTH.gamma1, 0.0, 0.9, 1.0, 0.0, 0.0])
    h = 1e-7 * _X_SCALE[2]
    up, at = model(x + h * np.eye(_N_FIT)[2]), model(x)
    for p, cols in jacobian(x).items():
        forward = (up[p] - at[p]) / h
        assert cols[:, 2].any()
        assert np.abs(forward - cols[:, 2]).max() <= 1e-5 * np.abs(cols[:, 2]).max()


def test_spectrum_fit_runs_no_sweep(monkeypatch):
    trace, calls = _qubit_trace(noise=0.01, seed=3), []
    for module in (estimate, components):
        monkeypatch.setattr(module, "sweep", lambda *a, **k: calls.append(a) or sweep(*a, **k))
    result = fit_spectrum(trace, make_interferometer(), init=TRUTH)
    assert result.converged
    assert not calls


@pytest.mark.parametrize("start", [{"gamma_phi": 0.0}, {"r0": 1.0}, {"r0": 1e-7}],
                         ids=["gamma_phi-zero", "r0-full", "r0-tiny"])
def test_spectrum_fit_leaves_a_start_on_a_fold_kink(start):
    # on a kink or a clamp the column can be zero, and a zero column never moves
    trace = _qubit_trace(noise=0.01, seed=3)
    result = fit_spectrum(trace, make_interferometer(), init=replace(TRUTH, **start))
    assert result.converged
    for name in ("gamma1", "gamma_phi", "r0"):
        assert result.params[name] == pytest.approx(getattr(TRUTH, name), rel=0.1)


@pytest.mark.parametrize("gamma1", [1e-4, 2 * math.pi * 1e3], ids=["1e-4", "1kHz"])
def test_spectrum_fit_recovers_from_a_saturating_start(gamma1):
    # at these starts rabi^2/(gamma1 G2) is 3.5e11 and 5.6e3: the start line
    # is flat, so the widths must come from the data's linewidth
    trace = _qubit_trace(noise=0.01, seed=3)
    reference = fit_spectrum(trace, make_interferometer(), init=TRUTH)
    result = fit_spectrum(trace, make_interferometer(), init=replace(TRUTH, gamma1=gamma1))
    assert result.converged
    for name in ("gamma1", "gamma_phi", "r0"):
        assert result.params[name] == pytest.approx(getattr(TRUTH, name), rel=0.05)
        assert result.params[name] == pytest.approx(reference.params[name], rel=1e-5)


def test_spectrum_fit_leaves_a_zero_relaxation_start():
    # gamma1 = 0 needs an undriven init, and undriven data fix only
    # G2 = gamma1/2 + gamma_phi; gamma1 must still leave its floor
    undriven = replace(TRUTH, rabi=0.0)
    trace = _qubit_trace(noise=0.01, seed=3, qubit=undriven)
    result = fit_spectrum(trace, make_interferometer(), init=replace(undriven, gamma1=0.0))
    assert result.converged
    assert result.params["gamma1"] > 0.1 * TRUTH.gamma1
    g2 = result.params["gamma1"] / 2 + result.params["gamma_phi"]
    assert g2 == pytest.approx(undriven.gamma2, rel=0.02)


def test_spectrum_fit_keeps_the_port_gate(monkeypatch):
    trace = _qubit_trace()
    monkeypatch.setattr(netcore, "COND_LIMIT", 1e-3)
    with pytest.raises(SingularSystem) as err:
        fit_spectrum(trace, make_interferometer(), init=TRUTH)
    assert err.value.frequency in trace.freqs


def test_a_dark_cross_path_starts_the_calibration_at_unit_scale(monkeypatch):
    # all-zero data over a bright background: the ratio's median is 0, so the scale starts at 1
    grid = np.linspace(5.17e9, 5.23e9, 601)
    trace = SpectrumTrace(freqs=grid, values={"s12": np.zeros(grid.size, complex)})
    starts = []

    def capture(fun, x0, **kwargs):
        starts.append(np.array(x0))
        raise NoConvergence("start captured")

    monkeypatch.setattr(estimate, "levenberg_marquardt", capture)
    with pytest.raises(NoConvergence, match="start captured"):
        fit_spectrum(trace, make_interferometer(), init=TRUTH)
    assert starts[0][4:].tolist() == [1.0, 0.0, 0.0]


def test_every_fit_evaluation_goes_through_the_port_gate(monkeypatch):
    # one gated solve per residual evaluation, plus three Mobius probes and the final curves
    trace, solves, evals = _qubit_trace(noise=0.01, seed=3), [], []
    solve, lm = netcore.solve_port_system_many, estimate.levenberg_marquardt
    monkeypatch.setattr(netcore, "solve_port_system_many",
                        lambda *a, **k: solves.append(a) or solve(*a, **k))
    monkeypatch.setattr(estimate, "levenberg_marquardt",
                        lambda fun, *a, **k: lm(lambda x: evals.append(x) or fun(x), *a, **k))
    result = fit_spectrum(trace, make_interferometer(), init=TRUTH)
    assert result.converged and evals
    assert len(solves) == len(evals) + 4


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
# rate-model Jacobians
# ---------------------------------------------------------------------------

_BATH_X = np.array([1.7e-4, 2 * math.pi * 8.3e9, 2 * math.pi * 1.5e9, 2 * math.pi * 2.0e6])
_W = 2 * math.pi * np.linspace(4.0e9, 9.0e9, 40)
_SLOPES = np.linspace(1e9, 3e10, 30)


@pytest.mark.parametrize("curve, jacobian, x, xs", [
    (gamma1_curve, gamma1_jacobian, _BATH_X, _W),
    # every abs in the fold flips the sign of its column
    (gamma1_curve, gamma1_jacobian, -_BATH_X, _W),
    (gamma1_curve, gamma1_jacobian, _BATH_X * [1, 1, 0, 1] + [0, 0, 0.5, 0], _W),  # fwhm clamp
    (power_curve, power_jacobian, np.array([3.0, 1.4]), _SLOPES),
    (power_curve, power_jacobian, np.array([-3.0, 0.7]), _SLOPES),
    (ou_curve, ou_jacobian, np.array([200e-6, 2 * math.pi * 2e6]), _SLOPES),
    (ou_curve, ou_jacobian, np.array([-200e-6, -2 * math.pi * 2e6]), _SLOPES),
], ids=["gamma1", "gamma1-negative", "gamma1-fwhm-clamp", "power", "power-negative", "ou",
        "ou-negative"])
def test_rate_jacobians_match_richardson_differences(curve, jacobian, x, xs):
    want = oracles.richardson_jacobian(lambda p: curve(p, xs), x, 1e-4 * np.abs(x))
    got = jacobian(x, xs)
    assert got.shape == (xs.size, x.size)
    # scaled columns, as a fit sees them, against the curve's size
    err = np.abs(got - want).max(axis=0) * np.abs(x)
    assert np.all(err <= 1e-9 * np.abs(curve(x, xs)).max())


def test_rate_jacobian_folds_are_the_right_hand_derivative_at_zero():
    # + at 0: fit_ou starts kappa there, and a zero column would pin it
    for zero in (0.0, -0.0):
        g1 = gamma1_jacobian(np.array([zero, *_BATH_X[1:3], zero]), _W)
        assert np.all(g1[:, 0] == _W) and np.all(g1[:, 3] > 0)
        power = power_jacobian(np.array([zero, 1.4]), _SLOPES)
        assert np.all(power[:, 0] == _SLOPES**1.4)
        ou = ou_jacobian(np.array([200e-6, zero]), _SLOPES)
        assert np.all(ou[:, 1] == -1 / 6)


def test_fwhm_column_is_zero_on_its_clamp():
    for fwhm in (0.0, -0.5, 1.0):
        x = np.array([*_BATH_X[:2], fwhm, _BATH_X[3]])
        jac = gamma1_jacobian(x, _W)
        assert not jac[:, 2].any() and jac[:, 3].all()


def test_a_gamma1_fit_reports_the_fwhm_its_curve_used():
    # LM stopping below the fwhm clamp ran the curve at 1 rad/s, so that is the estimate
    rates, _ = _gamma1_rates(noise=0.05, seed=1)
    lm = estimate.levenberg_marquardt

    def below_the_clamp(*args, **kwargs):
        res = lm(*args, **kwargs)
        return replace(res, x=np.array([*res.x[:2], -0.5, res.x[3]]))

    with mock.patch.object(estimate, "levenberg_marquardt", below_the_clamp):
        assert fit_gamma1(rates).params["lorentz_fwhm"] == 1.0


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(4, 40), eta=st.floats(-1.0, 3.0),
       log_amp=st.floats(-40.0, 0.0), spread=st.floats(0.01, 1.0), weighted=st.booleans())
def test_power_fit_matches_the_normal_equation_oracle(seed, rows, eta, log_amp, spread,
                                                      weighted):
    rng = np.random.default_rng(seed)
    # the end points put the slopes more than a decade apart
    flux = np.concatenate([[0.02, 0.45], rng.uniform(0.02, 0.45, rows - 2)])
    slopes = np.abs(flux_slope(TRANSMON, flux))
    gphi = math.exp(log_amp) * slopes**eta * np.exp(spread * rng.standard_normal(rows))
    rel = rng.uniform(0.01, 0.3, rows) if weighted else np.full(rows, 0.1)
    rates = RateDataset(np.full(rows, 2 * math.pi * 5e9), np.full(rows, 1e5), gphi, flux, rel)
    result = fit_gamma_phi_power(rates, TRANSMON)
    params, ci95, cov = oracles.power_law_oracle(slopes, gphi, rel)
    for name in ("amplitude", "eta"):
        assert result.params[name] == pytest.approx(params[name], rel=1e-9, abs=1e-12)
        assert result.ci95[name] == pytest.approx(ci95[name], rel=1e-9)
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(result.covariance - cov) <= 1e-9 * scale)
    assert result.dof == rows - 2


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


def test_motionally_narrowed_noise_is_fit_from_the_quasi_static_start():
    # kappa is several times s*sigma on every row, so the data fix sigma^2/kappa
    # sharply and sigma and kappa only loosely; the fit starts at kappa = 0
    sigma, kappa = 1e-3, 2 * math.pi * 50e6
    targets, flux, slopes = _flux_grid(48)
    assert np.all(kappa > 1.5 * sigma * slopes)
    gphi = np.array([gamma_phi_model(OUNoise(sigma, kappa, s)) for s in slopes])
    gphi = gphi * (1 + 0.1 * np.random.default_rng(3).standard_normal(48))
    rates = RateDataset(targets, np.full(48, 1e5), gphi, flux, np.full(48, 0.1))
    result = fit_ou(rates, TRANSMON)
    assert result.converged
    narrowed = result.params["sigma"] ** 2 / result.params["kappa"]
    assert abs(narrowed / (sigma**2 / kappa) - 1) < 0.05
    assert abs(result.params["kappa"] - kappa) < result.ci95["kappa"]


def test_flux_noise_fit_handles_missing_weights():
    targets, flux, slopes = _flux_grid(12)
    gphi = np.array([gamma_phi_model(OUNoise(60e-6, 0.0, s)) for s in slopes])
    rel = np.full(12, 0.1)
    rel[::3] = [np.nan, 0.0, -0.1, np.nan]
    rates = RateDataset(targets, np.full(12, 1e5), gphi, flux, rel)
    result = fit_ou(rates, TRANSMON)  # a row without a usable weight is set aside
    assert result == fit_ou(rates.subset(rel > 0), TRANSMON)
    assert result.dof == 8 - 2
    assert result.params["sigma"] == pytest.approx(60e-6, rel=1e-6)
    with pytest.raises(IllPosed, match="usable rows"):
        fit_ou(replace(rates, rel_err_gamma_phi=np.full(12, np.nan)), TRANSMON)


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
    want = {"params": result.params, "ci95": result.ci95, "rel_err": result.rel_err,
            "residual_rms": result.residual_rms, "iterations": result.iterations,
            "converged": True}
    assert parse_json(read_utf8(path)) == want
    assert path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_fit_result_validation():
    with pytest.raises(ValueError, match="missing from params"):
        FitResult(params={"a": 1.0}, ci95={"b": 0.1}, residual_rms=0.0, iterations=1,
                  converged=True)
    with pytest.raises(ValueError, match="must be >= 0"):
        FitResult(params={"a": 1.0}, ci95={"a": -0.1}, residual_rms=0.0, iterations=1,
                  converged=True)


def test_zero_estimate_maps_to_infinite_relative_error():
    result = FitResult(params={"a": 0.0}, ci95={"a": 0.3}, residual_rms=0.0,
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
    again = tmp_path / "again.csv"
    write_rates_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.floats(1e-300, 1e300), _ANY_FLOAT, _ANY_FLOAT,
                               _ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=10))
def test_rates_csv_matches_the_row_by_row_oracle(rows):
    rates = RateDataset(*(np.array(col) for col in zip(*rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rates.csv"
        write_rates_csv(path, rates)
        text = path.read_bytes().decode()
    assert text == rates_csv_oracle(rates)
    if np.isfinite(rates.gamma1).all() and np.isfinite(rates.gamma_phi).all():
        back = rates_from_csv(text)
        for name in ("omega01", "gamma1", "gamma_phi", "flux", "rel_err_gamma_phi"):
            assert np.array_equal(getattr(back, name).view(np.int64),
                                  getattr(rates, name).view(np.int64))


def test_rate_table_parse_errors():
    good = rates_csv_oracle(RateDataset(np.array([1e9, 2e9]), np.array([1.0, 2.0]),
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
    with pytest.raises(ValueError, match="line 2: omega01"):
        rates_from_csv("\n".join([lines[0], "-1,2,3,0.1,0.1"]))
    # rules shared with trace CSVs: an empty file has no header, a line of
    # spaces is a row of one field, and a form feed does not end a line
    with pytest.raises(ValueError, match="line 1: expected header"):
        rates_from_csv("")
    with pytest.raises(ValueError, match="line 3: expected 5 fields, got 1"):
        rates_from_csv("\n".join([lines[0], lines[1], "  ", lines[2]]))
    with pytest.raises(ValueError, match="line 3: non-numeric"):
        rates_from_csv("\n".join([lines[0], lines[1] + "\f", "x" + lines[2]]))
    quoted = ",".join(f'"{f}"' for f in lines[1].split(","))
    spaced = ", ".join(lines[0].split(","))
    assert rates_csv_oracle(rates_from_csv("\n".join([spaced, quoted, lines[2]]))) == good


def test_a_rate_table_that_is_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_bytes(b"omega01_rad_s,gamma1_rad_s,gamma_phi_rad_s,flux_phi0,rel_err_gamma_phi\n"
                     b"1e9,1,1,0.1,0.1\n2e9,2,2,0.2,\xff\n")
    with pytest.raises(ValueError, match="^line 3: not UTF-8 text$"):
        read_rates_csv(path)


def test_rate_dataset_validation_and_subset():
    with pytest.raises(ValueError, match="equal length"):
        RateDataset(np.array([1e9, 2e9]), np.array([1.0]), np.array([1.0, 2.0]),
                    np.array([0.1, 0.2]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="omega01"):
        RateDataset(np.array([1e9, -2e9]), np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                    np.array([0.1, 0.2]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="^gamma1 must be 1-d$"):
        RateDataset(np.array([1e9, 2e9]), np.array([[1.0, 2.0]]), np.array([1.0, 2.0]),
                    np.array([0.1, 0.2]), np.array([0.1, 0.1]))
    rates = RateDataset(np.array([1e9, 2e9, 3e9]), np.array([1.0, 2.0, 3.0]),
                        np.array([4.0, 5.0, 6.0]), np.array([0.1, 0.2, 0.3]),
                        np.array([0.1, 0.1, 0.1]))
    sub = rates.subset(np.array([True, False, True]))
    assert len(sub) == 2
    assert np.array_equal(sub.gamma_phi, [4.0, 6.0])
