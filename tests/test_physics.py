"""Transmon spectrum, bath models, and the dephasing envelope."""
import math
from dataclasses import fields

import numpy as np
import pytest
from oracles import dephasing_rate_oracle, richardson_jacobian
from scipy.integrate import quad

from mzq.physics import (
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    BathModel,
    CouplingParams,
    DegenerateFlux,
    OUNoise,
    QuasiStaticLimit,
    TransmonParams,
    alpha_from_dipole,
    alpha_res,
    coupling_gk,
    domega01_dflux,
    dressed_frequencies,
    flux_for_omega01,
    flux_slope,
    gamma1_model,
    gamma_phi_model,
    gamma_phi_rate,
    gamma_phi_rate_partials,
    kondo_alpha,
    omega01,
    ou_coherence,
    ou_spectrum,
    spectral_density_ohmic,
)

TRANSMON = TransmonParams(ej_max=20.0e9, ec=592.4e6)


# ---------------------------------------------------------------------------
# transmon spectrum
# ---------------------------------------------------------------------------

def test_sweet_spot_frequency():
    f01 = omega01(TRANSMON, 0.0) / (2 * math.pi)
    assert f01 == pytest.approx(math.sqrt(8 * 20.0e9 * 592.4e6) - 592.4e6, rel=1e-15)
    assert f01 == pytest.approx(9.13e9, rel=5e-3)


def test_frequency_formula_off_sweet_spot():
    expected = 2 * math.pi * (
        math.sqrt(8 * 20.0e9 * math.cos(math.pi * 0.25) * 592.4e6) - 592.4e6
    )
    assert omega01(TRANSMON, 0.25) == pytest.approx(expected, rel=1e-15)


def test_frequency_is_periodic_and_even():
    for flux in (0.05, 0.21, 0.4):
        w = omega01(TRANSMON, flux)
        assert omega01(TRANSMON, -flux) == pytest.approx(w, rel=1e-15)
        assert omega01(TRANSMON, flux + 1.0) == pytest.approx(w, rel=1e-12)


def test_half_integer_flux_is_degenerate():
    with pytest.raises(DegenerateFlux):
        omega01(TRANSMON, 0.5)
    with pytest.raises(DegenerateFlux):
        domega01_dflux(TRANSMON, 0.5)
    with pytest.raises(DegenerateFlux):
        domega01_dflux(TRANSMON, 1.5)


def test_flux_derivative_matches_finite_difference():
    # property from the build contract: analytic slope within 1e-6 of FD
    step = 1e-7
    for flux in np.linspace(-0.48, 0.48, 25):
        if abs(abs(flux) - 0.5) < 0.02:
            continue
        fd = (omega01(TRANSMON, flux + step) - omega01(TRANSMON, flux - step)) / (2 * step)
        analytic = domega01_dflux(TRANSMON, flux)
        scale = max(abs(fd), abs(omega01(TRANSMON, flux)))
        assert abs(analytic - fd) <= 1e-6 * scale


def test_slope_is_zero_at_sweet_spot_and_negative_above():
    assert domega01_dflux(TRANSMON, 0.0) == 0.0
    for flux in (0.1, 0.25, 0.45):
        assert domega01_dflux(TRANSMON, flux) < 0


def _slope_reference(flux):
    """Pointwise analytic slope, or None where no slope exists."""
    cosine = math.cos(math.pi * flux)
    if abs(cosine) < 1e-12 or math.sqrt(8 * TRANSMON.ej_max * abs(cosine) * TRANSMON.ec) <= TRANSMON.ec:
        return None
    return (-math.pi**2 * math.sqrt(8 * TRANSMON.ej_max * TRANSMON.ec) * math.copysign(1.0, cosine)
            * math.sin(math.pi * flux) / math.sqrt(abs(cosine)))


def test_array_flux_slope_matches_the_scalar_form():
    # 0.4995 and 1.5005 lie in the band next to half-integer flux where f01 <= 0
    grid = np.concatenate([np.linspace(-1.6, 1.6, 321), [0.5, 1.5, 0.4995, 1.5005]])
    slopes = flux_slope(TRANSMON, np.append(grid, math.nan))
    assert slopes.shape == (grid.size + 1,) and math.isnan(slopes[-1])
    assert math.isnan(domega01_dflux(TRANSMON, math.nan))
    assert abs(math.cos(math.pi * 0.4995)) > 1e-12 and _slope_reference(0.4995) is None
    for flux, slope in zip(grid, slopes):
        want = _slope_reference(flux)
        if want is None:
            assert math.isnan(slope)
            with pytest.raises(DegenerateFlux):
                domega01_dflux(TRANSMON, float(flux))
        else:
            assert abs(slope - want) <= 1e-15 * max(abs(want), 1.0)
            assert domega01_dflux(TRANSMON, float(flux)) == slope


def test_flux_lookup_round_trip():
    for flux in (0.05, 0.17, 0.33, 0.45):
        target = omega01(TRANSMON, flux)
        assert flux_for_omega01(TRANSMON, target) == pytest.approx(flux, abs=1e-9)


def test_flux_lookup_rejects_unreachable_targets():
    top = omega01(TRANSMON, 0.0)
    with pytest.raises(ValueError):
        flux_for_omega01(TRANSMON, 1.5 * top)
    with pytest.raises(ValueError):
        # bottom of the band, where the junction energy has vanished
        flux_for_omega01(TRANSMON, -2 * math.pi * 592.4e6)


def test_transmon_regime_is_enforced():
    with pytest.raises(ValueError, match="ej_max/ec > 10"):
        TransmonParams(ej_max=1.0e9, ec=1.0e8)  # ratio exactly 10
    with pytest.raises(ValueError):
        TransmonParams(ej_max=-1.0e9, ec=1.0e8)


# each parameter object with valid fields, and whether its fields must be > 0 or only >= 0
_PARAMS = {
    TransmonParams: (dict(ej_max=20.0e9, ec=592.4e6), True),
    BathModel: (dict(alpha=1.7e-4), False),
    CouplingParams: (dict(d_tilde=6.9e-21), True),
    OUNoise: (dict(sigma=1e-4, kappa=1.0, slope=1.0), False),
}


@pytest.mark.parametrize("cls, name, bad", [
    (cls, f.name, bad) for cls, (_, strict) in _PARAMS.items() for f in fields(cls)
    for bad in (math.nan, math.inf, -math.inf, -1.0) + ((0.0,) if strict else ())])
def test_parameter_objects_refuse_a_field_by_name(cls, name, bad):
    good, strict = _PARAMS[cls]
    with pytest.raises(ValueError) as err:
        cls(**{**good, name: bad})
    assert str(err.value) == f"{name} must be finite and {'>' if strict else '>='} 0"


# ---------------------------------------------------------------------------
# relaxation bath
# ---------------------------------------------------------------------------

def test_pure_ohmic_rate_is_linear():
    bath = BathModel(alpha=1.7e-4)
    w = 2 * math.pi * np.array([4.0e9, 6.5e9, 9.0e9])
    assert np.array_equal(gamma1_model(bath, w), 1.7e-4 * w)
    assert gamma1_model(bath, w[0]) == 1.7e-4 * w[0]


def test_lorentzian_peak_height_and_width():
    center = 2 * math.pi * 8.3e9
    fwhm = 2 * math.pi * 1.5e9
    height = 2 * math.pi * 2.0e6
    bath = BathModel(alpha=1.7e-4, lorentz_center=center, lorentz_fwhm=fwhm,
                     lorentz_height=height)
    at_center = gamma1_model(bath, center)
    assert at_center == pytest.approx(1.7e-4 * center + height, rel=1e-15)
    half_up = gamma1_model(bath, center + fwhm / 2) - 1.7e-4 * (center + fwhm / 2)
    assert half_up == pytest.approx(height / 2, rel=1e-12)


def test_bath_model_validation():
    with pytest.raises(ValueError):
        BathModel(alpha=-1e-4)
    with pytest.raises(ValueError):
        BathModel(alpha=1e-4, lorentz_height=1e6)  # peak with no width


def test_alpha_from_dipole_value():
    coupling = CouplingParams(d_tilde=6.9e-21)
    expected = (6.9e-21) ** 2 / (HBAR * SPEED_OF_LIGHT * VACUUM_PERMITTIVITY)
    alpha = alpha_from_dipole(coupling)
    assert alpha == pytest.approx(expected, rel=1e-15)
    assert 1.4e-4 < alpha < 2.0e-4
    # quadratic in the dipole moment
    double = alpha_from_dipole(CouplingParams(d_tilde=2 * 6.9e-21))
    assert double == pytest.approx(4 * alpha, rel=1e-12)


def test_single_mode_equivalent_coupling():
    alpha = alpha_res(2 * math.pi * 70e6, 2 * math.pi * 6.54e9)
    assert alpha == pytest.approx(math.pi * (70 / 6540) ** 2, rel=1e-15)
    assert alpha == pytest.approx(3.6e-4, rel=1e-2)
    for g, omega_res in ((0.0, 1e10), (1e8, -1e10), (math.nan, 1e10)):
        with pytest.raises(ValueError, match="^g and omega_res must be > 0$"):
            alpha_res(g, omega_res)


def test_kondo_convention_is_a_rescaling():
    assert kondo_alpha(1.7e-4) == 1.7e-4 / (2 * math.pi)
    assert kondo_alpha(0.0) == 0.0
    with pytest.raises(ValueError):
        kondo_alpha(-0.1)


def test_mode_couplings_reproduce_the_ohmic_density():
    coupling = CouplingParams(d_tilde=6.9e-21)
    length = 0.012
    w = 2 * math.pi * np.array([3.0e9, 5.0e9, 8.0e9])
    gk = coupling_gk(coupling, w, length)
    assert np.all(np.diff(gk) > 0)
    # sum over modes spaced pi*c/length approximates the integral, so per
    # mode: 2*pi*gk^2/(pi*c/length) must equal alpha*omega exactly
    density = 2 * math.pi * gk**2 / (math.pi * SPEED_OF_LIGHT / length)
    assert np.allclose(density, alpha_from_dipole(coupling) * w, rtol=1e-12, atol=0)
    for omega_k, bad_length in ((w, 0.0), (w, math.nan), (np.array([1e9, 0.0]), length)):
        with pytest.raises(ValueError, match="^omega_k and length must be > 0$"):
            coupling_gk(coupling, omega_k, bad_length)


def test_ohmic_spectral_density_cutoff():
    beta = 2.4e-4
    cutoff = 2 * math.pi * 50e9
    assert spectral_density_ohmic(beta, cutoff, cutoff) == pytest.approx(
        beta * cutoff / math.e, rel=1e-15)
    assert spectral_density_ohmic(beta, 1e9) == beta * 1e9  # no cutoff by default
    assert spectral_density_ohmic(beta, 0.0) == 0.0
    with pytest.raises(ValueError, match="^beta must be >= 0$"):
        spectral_density_ohmic(-beta, 1e9)
    for bad in (0.0, -cutoff, math.nan):
        with pytest.raises(ValueError, match="^cutoff must be > 0$"):
            spectral_density_ohmic(beta, 1e9, bad)
    with pytest.raises(ValueError, match="^omega must be >= 0$"):
        spectral_density_ohmic(beta, np.array([1e9, -1.0]), cutoff)


def test_dressed_mode_splitting():
    g = 2 * math.pi * 70e6
    w = 2 * math.pi * 6.54e9
    lo, hi = dressed_frequencies(w, w, g)
    assert hi - lo == pytest.approx(2 * g, rel=1e-12)
    assert (hi + lo) / 2 == pytest.approx(w, rel=1e-15)
    # far detuned the modes pin to the bare frequencies
    lo, hi = dressed_frequencies(w, w + 2 * math.pi * 2e9, 0.0)
    assert lo == pytest.approx(w, rel=1e-12)
    for args in ((0.0, w, g), (w, -w, g), (w, w, -g), (w, w, math.nan)):
        with pytest.raises(ValueError, match="^frequencies must be > 0 and g >= 0$"):
            dressed_frequencies(*args)


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------

def _noise(sigma, kappa, slope=2 * math.pi * 1e10):
    return OUNoise(sigma=sigma, kappa=kappa, slope=slope)


def test_ou_spectrum_shape_and_normalization():
    noise = _noise(1e-4, 2 * math.pi * 3e6)
    w = np.array([-5e7, -1e3, 0.0, 1e3, 5e7])
    s = ou_spectrum(noise, w)
    assert np.array_equal(s, s[::-1])  # even
    assert np.all(s > 0)
    assert np.argmax(s) == 2
    # even integrand; integrate decade by decade out to where the remaining
    # tail (~2*kappa/(pi*edge) of the total) is far below the tolerance
    edges = np.concatenate([[0.0], noise.kappa * np.geomspace(1.0, 1e7, 8)])
    integral = 2 * sum(
        quad(lambda x: ou_spectrum(noise, x), a, b)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    assert integral == pytest.approx(2 * math.pi * noise.v**2, rel=1e-4)


def test_quasi_static_spectrum_is_singular_at_zero():
    noise = _noise(1e-4, 0.0)
    with pytest.raises(QuasiStaticLimit):
        ou_spectrum(noise, 0.0)
    assert ou_spectrum(noise, 1e3) == 0.0
    assert np.array_equal(ou_spectrum(noise, np.array([1e3, -2e4])), [0.0, 0.0])


def test_coherence_envelope_limits():
    noise = _noise(1e-4, 0.0)
    v = noise.v
    assert ou_coherence(noise, 0.0) == 1.0
    assert ou_coherence(noise, math.sqrt(2) / v) == pytest.approx(math.exp(-1), rel=1e-12)
    taus = np.linspace(0, 5 / v, 200)
    env = ou_coherence(noise, taus)
    assert np.all(np.diff(env) < 0)
    assert np.all(env <= 1.0)
    with pytest.raises(ValueError):
        ou_coherence(noise, -1e-9)


def test_fast_noise_decays_exponentially():
    # motional narrowing: kappa >> v turns the envelope into exp(-v^2 t/kappa)
    noise = _noise(1e-4, 200 * 1e-4 * 2 * math.pi * 1e10)
    v = noise.v
    taus = np.linspace(0.5, 3.0, 6) / (v**2 / noise.kappa)
    env = ou_coherence(noise, taus)
    assert np.allclose(env, np.exp(-(v**2 / noise.kappa) * taus), rtol=2e-2, atol=0)


def test_small_kappa_tau_kernel_is_smooth():
    # the series branch and the exact branch must agree at the switch point;
    # v*tau ~ 1 there so the envelope is in its sensitive range
    noise = OUNoise(sigma=1.0, kappa=1.0, slope=1e4)
    below = ou_coherence(noise, 0.99e-4 / noise.kappa)
    middle = ou_coherence(noise, 1.00e-4 / noise.kappa)
    above = ou_coherence(noise, 1.01e-4 / noise.kappa)
    assert below > middle > above
    assert middle == pytest.approx(math.exp(-0.5), rel=1e-3)


def test_dephasing_rate_limits():
    slope = 2 * math.pi * 1e10
    assert gamma_phi_model(OUNoise(sigma=0.0, kappa=123.0, slope=slope)) == 0.0
    quasi = OUNoise(sigma=79e-6, kappa=0.0, slope=slope)
    assert gamma_phi_model(quasi) == pytest.approx(quasi.v / math.sqrt(2), rel=1e-15)
    fast = OUNoise(sigma=79e-6, kappa=100 * 79e-6 * slope, slope=slope)
    assert gamma_phi_model(fast) == pytest.approx(fast.v**2 / fast.kappa, rel=2e-2)


def test_dephasing_rate_is_the_inverse_1_over_e_time():
    noise = _noise(2e-4, 2 * math.pi * 2e6)
    rate = gamma_phi_model(noise)
    assert ou_coherence(noise, 1.0 / rate) == pytest.approx(math.exp(-1), rel=1e-9)


def test_dephasing_rate_matches_the_decimal_oracle():
    v = 2 * math.pi * 1e6
    kappas = v * np.logspace(-12, 12, 97)
    want = np.array([dephasing_rate_oracle(v, k) for k in kappas])
    got = gamma_phi_rate(v, kappas)
    assert np.max(np.abs(got / want - 1)) <= 1e-11


def test_dephasing_rate_matches_the_oracle_where_the_kernel_switches_to_its_series():
    # the root u = kappa*t_phi runs over 1.4e-6 to 1.4e-2, where expm1(-u) + u cancels 2-6 digits
    v = 2 * math.pi * 1e6
    kappas = v * np.logspace(-6, -2, 201)
    want = np.array([dephasing_rate_oracle(v, k) for k in kappas])
    assert np.max(np.abs(gamma_phi_rate(v, kappas) / want - 1)) <= 5e-15


def test_dephasing_rate_array_limits():
    v = np.array([0.0, 0.0, 3.0, 2.5])
    kappa = np.array([0.0, 7.0, 0.0, 0.0])
    rate = gamma_phi_rate(v, kappa)
    assert list(rate) == [0.0, 0.0, 3.0 / math.sqrt(2), 2.5 / math.sqrt(2)]
    # beyond any realistic kappa/v the rate stays finite: v^2/kappa
    assert gamma_phi_rate(1.0, 1e200) == pytest.approx(1e-200, rel=1e-15)


_V = 2 * math.pi * 1e6


def test_dephasing_partials_satisfy_euler_identity():
    # the rate is homogeneous of degree 1 in (v, kappa)
    kappa = _V * np.concatenate(([0.0], np.logspace(-9, 12, 169)))
    d_v, d_kappa = gamma_phi_rate_partials(_V, kappa)
    rate = gamma_phi_rate(_V, kappa)
    assert np.max(np.abs(_V * d_v + kappa * d_kappa - rate) / rate) <= 1e-12


def test_dephasing_partials_at_the_quasi_static_point_are_exact():
    d_v, d_kappa = gamma_phi_rate_partials(np.array([0.0, 1e-300, 3.0, _V]), 0.0)
    assert np.all(d_v == 1 / math.sqrt(2))
    assert np.all(d_kappa == -1 / 6)


def test_dephasing_partials_reach_the_narrowed_limit():
    # kappa >> v: the rate is v^2/kappa
    kappa = _V * np.array([1e8, 3e9, 1e12, 1e50])
    d_v, d_kappa = gamma_phi_rate_partials(_V, kappa)
    assert np.allclose(d_v, 2 * _V / kappa, rtol=1e-12, atol=0)
    assert np.allclose(d_kappa, -(_V / kappa) ** 2, rtol=1e-12, atol=0)


def test_dephasing_partials_are_continuous_across_the_series_switch():
    # d/dkappa takes its series below u = 1e-2, that is below x = sqrt(f(1e-2))
    x_switch = math.sqrt(math.expm1(-1e-2) + 1e-2)
    kappa = _V * x_switch * np.array([1 - 1e-9, 1 + 1e-9])
    u = kappa / gamma_phi_rate(_V, kappa)
    assert u[0] < 1e-2 < u[1]
    for below, above in gamma_phi_rate_partials(_V, kappa):
        assert below == pytest.approx(above, rel=1e-10)


@pytest.mark.parametrize("ratio", np.logspace(-2, 6, 17))
def test_dephasing_partials_match_richardson_differences(ratio):
    p = np.array([_V, ratio * _V])
    # the rate varies on the scale max(v, kappa) in kappa
    steps = 1e-3 * np.array([_V, max(_V, p[1])])
    want = richardson_jacobian(lambda q: gamma_phi_rate(q[0], q[1]), p, steps)[0]
    got = np.array(gamma_phi_rate_partials(*p))
    assert np.allclose(got, want, rtol=1e-8, atol=0)


def test_dephasing_partials_at_zero_v_are_zero():
    d_v, d_kappa = gamma_phi_rate_partials(0.0, np.array([1e-300, 1.0, 1e300]))
    assert np.all(d_v == 0) and np.all(d_kappa == 0)


def test_scalar_dephasing_rate_is_the_array_element():
    rng = np.random.default_rng(11)
    sigma = 10 ** rng.uniform(-6, -3, 50)
    kappa = 10 ** rng.uniform(2, 9, 50)
    slope = 2 * math.pi * 1e10
    rates = gamma_phi_rate(slope * sigma, kappa)
    for s, k, r in zip(sigma, kappa, rates):
        assert gamma_phi_model(OUNoise(s, k, slope)) == r


def test_noise_parameter_validation():
    with pytest.raises(ValueError):
        OUNoise(sigma=-1e-4, kappa=1.0, slope=1.0)
    with pytest.raises(ValueError):
        OUNoise(sigma=1e-4, kappa=math.nan, slope=1.0)
    assert _noise(3e-4, 1.0).v == 3e-4 * 2 * math.pi * 1e10
