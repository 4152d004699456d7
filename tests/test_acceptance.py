"""Top-level acceptance checks, one verdict line per criterion."""
import math
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from mzq.components import (
    BeamSplitterModel,
    CircuitSpec,
    LineParams,
    QubitScatterer,
    SpectrumTrace,
    _lineshape,
    _transmission,
    make_interferometer,
    sweep,
    synthesize,
    total_matrix_stack,
)
from mzq.estimate import (
    RateDataset,
    RegimeLabel,
    classify_regime,
    fit_gamma1,
    fit_gamma_phi_power,
    fit_ou,
    fit_spectrum,
)
from mzq.physics import (
    BathModel,
    OUNoise,
    TransmonParams,
    alpha_res,
    domega01_dflux,
    flux_for_omega01,
    gamma1_model,
    gamma_phi_model,
    omega01,
    ou_coherence,
    ou_spectrum,
)
from conftest import ACCEPTANCE_LINES
from oracles import ou_coherence_mc, transfer_chain_oracle

TRANSMON = TransmonParams(ej_max=20.0e9, ec=592.4e6)


def _report(num: int, line: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    text = f"[acceptance {num}] {line}: {verdict}"
    print(text, flush=True)
    ACCEPTANCE_LINES.append(text)
    assert ok, f"acceptance {num} failed: {line}"


def _scan_trace(f01_hz: float) -> SpectrumTrace:
    qubit = QubitScatterer(omega01=2 * math.pi * f01_hz, gamma1=2 * math.pi * 1e6,
                           gamma_phi=2 * math.pi * 0.4e6, r0=0.9)
    grid = np.linspace(f01_hz - 50e6, f01_hz + 50e6, 2001)
    return sweep(make_interferometer(qubit=qubit), grid)


def test_acceptance_1_regime_labels():
    t0 = perf_counter()
    labels = [classify_regime(_scan_trace(f)) for f in (4.556e9, 5.826e9, 7.288e9)]
    dt = perf_counter() - t0
    expect = [RegimeLabel.PEAK_DIP, RegimeLabel.DIP, RegimeLabel.DIP_PEAK]
    got = "/".join(lab.value for lab in labels)
    _report(1, f"lineshape labels {got} in {dt:.2f} s", labels == expect and dt < 1.0)


def test_acceptance_2_sweet_spot_frequency():
    f01 = omega01(TRANSMON, 0.0) / (2 * math.pi)
    dev = abs(f01 - 9.13e9) / 9.13e9
    _report(2, f"sweet-spot f01 {f01 / 1e9:.4f} GHz (dev {dev:.2%})", dev < 0.005)


def test_acceptance_3_resonator_equivalent_coupling():
    alpha = alpha_res(2 * math.pi * 70e6, 2 * math.pi * 6.54e9)
    dev = abs(alpha - 3.6e-4) / 3.6e-4
    _report(3, f"single-mode alpha {alpha:.4g} (dev {dev:.2%})", dev < 0.01)


def test_acceptance_4_relaxation_fit_coverage():
    bath = BathModel(alpha=1.7e-4, lorentz_center=2 * math.pi * 8.3e9,
                     lorentz_fwhm=2 * math.pi * 1.5e9,
                     lorentz_height=2 * math.pi * 2.0e6)
    w = 2 * math.pi * np.linspace(4.0e9, 9.1e9, 30)
    clean = gamma1_model(bath, w)
    t0 = perf_counter()
    hits = 0
    for seed in range(100):
        g = clean * (1 + 0.1 * np.random.default_rng(seed).standard_normal(30))
        rates = RateDataset(w, g, np.full(30, 1e5), np.full(30, np.nan),
                            np.full(30, np.nan))
        result = fit_gamma1(rates)
        if abs(result.params["alpha"] - bath.alpha) <= result.ci95["alpha"]:
            hits += 1
    dt = perf_counter() - t0
    _report(4, f"alpha in 95% CI in {hits}/100 noisy fits ({dt:.1f} s)",
            hits >= 90 and dt < 10.0)


def _flux_noise_rates(sigma, kappa, points, seed):
    targets = 2 * math.pi * np.linspace(4.0e9, 8.5e9, points)
    flux = np.array([flux_for_omega01(TRANSMON, t) for t in targets])
    slopes = np.array([abs(domega01_dflux(TRANSMON, p)) for p in flux])
    gphi = np.array([gamma_phi_model(OUNoise(sigma, kappa, s)) for s in slopes])
    gphi = gphi * (1 + 0.1 * np.random.default_rng(seed).standard_normal(points))
    return RateDataset(targets, np.full(points, 1e5), gphi, flux,
                       np.full(points, 0.1))


def test_acceptance_5_flux_noise_fits():
    t0 = perf_counter()
    sigma = 79e-6
    quasi_ok = True
    for seed in range(5):
        result = fit_ou(_flux_noise_rates(sigma, 0.0, 30, seed), TRANSMON)
        quasi_ok &= abs(result.params["sigma"] - sigma) / sigma < 0.10
        quasi_ok &= result.params["kappa_upper95"] >= result.params["kappa"] >= 0

    kappa = 2 * math.pi * 10e6
    result = fit_ou(_flux_noise_rates(400e-6, kappa, 40, 4), TRANSMON)
    kappa_dev = abs(result.params["kappa"] - kappa) / kappa
    dt = perf_counter() - t0
    _report(5, f"flux-noise sigma within 10% and kappa dev {kappa_dev:.2%} "
               f"({dt:.1f} s)", quasi_ok and kappa_dev < 0.20 and dt < 30.0)


def test_acceptance_6_coherence_against_monte_carlo():
    v = 1e6
    worst = 0.0
    for ratio in (0.0, 1.0, 100.0):
        noise = OUNoise(sigma=1e-4, kappa=ratio * v, slope=1e10)
        taus = np.linspace(0.0, 5.0 / v, 21)
        exact = ou_coherence(noise, taus)
        mc = ou_coherence_mc(v, ratio * v, taus, n_traj=200000, seed=1)
        worst = max(worst, float(np.sqrt(np.mean((exact - mc) ** 2))))
    _report(6, f"coherence envelope vs Monte Carlo, worst rms {worst:.4f}",
            worst < 0.02)


def test_acceptance_7_spectrum_fit_accuracy():
    truth = QubitScatterer(omega01=2 * math.pi * 5.2e9, gamma1=2 * math.pi * 1.0e6,
                           gamma_phi=2 * math.pi * 0.4e6, r0=0.9,
                           rabi=2 * math.pi * 1.5e6)
    spec = make_interferometer(qubit=truth)
    grid = np.linspace(5.17e9, 5.23e9, 601)

    clean = fit_spectrum(sweep(spec, grid), make_interferometer(), init=truth)
    names = ("omega01", "gamma1", "gamma_phi", "r0")
    clean_dev = max(abs(clean.params[k] - getattr(truth, k)) / getattr(truth, k)
                    for k in names)

    rough = True
    omega_devs, rate_devs = [], []
    for seed in range(10):
        trace = synthesize(spec, grid, noise_sigma=0.01, seed=seed)
        result = fit_spectrum(trace, make_interferometer(), init=truth)
        omega_devs.append(abs(result.params["omega01"] - truth.omega01) / truth.omega01)
        rate_devs.extend(abs(result.params[k] - getattr(truth, k)) / getattr(truth, k)
                         for k in ("gamma1", "gamma_phi", "r0"))
    rough = max(omega_devs) < 0.02 and max(rate_devs) < 0.33
    _report(7, f"noiseless dev {clean_dev:.2e}, noisy omega01 dev "
               f"{max(omega_devs):.2%}, worst rate dev {max(rate_devs):.2%}",
            clean_dev < 1e-3 and rough)


def test_acceptance_8_property_suite():
    ok = True
    q = QubitScatterer(omega01=2 * math.pi * 5.2e9, gamma1=2 * math.pi * 1e6,
                       gamma_phi=2 * math.pi * 4e5, r0=0.83, rabi=2 * math.pi * 2e6)

    # the stacked chain is the explicit five-factor product, for both splitters
    w = np.concatenate([2 * math.pi * np.linspace(4e9, 8e9, 81),
                        q.omega01 + np.linspace(-2e8, 2e8, 41)])
    lines = LineParams(phase_rate=(1.1e-9, 0.9e-9, 1.3e-9, 0.7e-9),
                       attenuation=(0.02, 0.05, 0.0, 0.1))
    for kind in ("ideal", "branchline"):
        splitter = BeamSplitterModel(kind=kind, center_frequency=2 * math.pi * 6e9)
        spec = CircuitSpec(splitter=splitter, lines=lines, qubit=q)
        ok &= np.allclose(np.moveaxis(total_matrix_stack(spec, w), -1, 0),
                          transfer_chain_oracle(spec, w), rtol=1e-12, atol=1e-12)

    # scatterer unitarity: r + t = 1 exactly, lossless circuit conserves power
    w = q.omega01 + np.linspace(-1e8, 1e8, 101)
    r = _lineshape(q, w)[0]
    t = _transmission(r, w)
    ok &= bool(np.max(np.abs(r + t - 1.0)) <= 1e-15)

    d = 1.0 / (2 * 5.746e9)
    lossless = CircuitSpec(splitter=BeamSplitterModel(kind="ideal"),
                           lines=LineParams(phase_rate=(0.0, 0.0, d, d)))
    trace = sweep(lossless, np.linspace(4e9, 8e9, 201))
    power = np.abs(trace.values["s12"]) ** 2 + np.abs(trace.values["s32"]) ** 2
    ok &= bool(np.max(np.abs(power - 1.0)) <= 1e-9)

    # analytic flux slope against finite differences
    step = 1e-7
    for flux in np.linspace(-0.45, 0.45, 19):
        fd = (omega01(TRANSMON, flux + step) - omega01(TRANSMON, flux - step)) / (2 * step)
        scale = max(abs(fd), abs(omega01(TRANSMON, flux)))
        ok &= abs(domega01_dflux(TRANSMON, flux) - fd) <= 1e-6 * scale

    # OU spectrum normalization
    noise = OUNoise(sigma=1e-4, kappa=2 * math.pi * 3e6, slope=1e10)
    edges = np.concatenate([[0.0], noise.kappa * np.geomspace(1.0, 1e7, 8)])
    integral = 2 * sum(quad(lambda x: ou_spectrum(noise, x), a, b)[0]
                       for a, b in zip(edges[:-1], edges[1:]))
    ok &= abs(integral - 2 * math.pi * noise.v**2) <= 1e-4 * 2 * math.pi * noise.v**2

    # power-law exponent recovered to two decimals
    flux = np.linspace(0.05, 0.45, 12)
    w01 = np.array([omega01(TRANSMON, p) for p in flux])
    slopes = np.array([abs(domega01_dflux(TRANSMON, p)) for p in flux])
    rates = RateDataset(w01, np.full(12, 1e5), 1e-14 * slopes**2, flux,
                        np.full(12, 0.1))
    eta = fit_gamma_phi_power(rates, TRANSMON).params["eta"]
    ok &= round(eta, 2) == 2.00

    _report(8, f"invariant suite (chain, unitarity, power, flux slope, "
               f"spectrum norm, eta {eta:.2f})", bool(ok))
