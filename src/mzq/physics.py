"""Transmon spectrum, relaxation and dephasing models, and flux noise.

Angular frequencies and rates are rad/s throughout; junction and charging
energies are plain Hz (energy divided by the Planck constant); flux is in
units of the flux quantum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import _check_fields

# CODATA 2018 exact h and c; CODATA 2022 vacuum permittivity
HBAR = 6.62607015e-34 / (2 * math.pi)
SPEED_OF_LIGHT = 299792458.0
VACUUM_PERMITTIVITY = 8.8541878188e-12


class DegenerateFlux(ValueError):
    """Raised where the junction energy vanishes (half-integer flux)."""


class QuasiStaticLimit(ValueError):
    """Raised when the zero-frequency spectral value is a delta function."""


@dataclass(frozen=True)
class TransmonParams:
    """Symmetric-junction transmon energies in Hz.

    ej_max: maximum Josephson energy. ec: charging energy. The transmon
    regime ej_max/ec > 10 is enforced.
    """

    ej_max: float
    ec: float

    def __post_init__(self):
        _check_fields(self, strict=True)
        if self.ej_max / self.ec <= 10:
            raise ValueError("transmon regime requires ej_max/ec > 10")


@dataclass(frozen=True)
class BathModel:
    """Relaxation model: Ohmic background plus a parasitic Lorentzian mode.

    gamma1(omega) = alpha*omega
                    + lorentz_height * hw^2 / ((omega - lorentz_center)^2 + hw^2)

    with hw = lorentz_fwhm/2. alpha is dimensionless; the Lorentzian is
    parameterized by its peak height (rad/s), center and FWHM (rad/s).
    """

    alpha: float
    lorentz_center: float = 0.0
    lorentz_fwhm: float = 0.0
    lorentz_height: float = 0.0

    def __post_init__(self):
        _check_fields(self)
        if self.lorentz_height > 0 and self.lorentz_fwhm <= 0:
            raise ValueError("lorentz_fwhm must be > 0 when the peak is present")


@dataclass(frozen=True)
class CouplingParams:
    """Dipole coupling of the scatterer to the line continuum.

    d_tilde: effective dipole moment in A*s. Medium constants default to
    vacuum. g0 is the derived coupling prefactor sqrt(d_tilde^2/(hbar*eps0)).
    """

    d_tilde: float
    c: float = SPEED_OF_LIGHT
    epsilon0: float = VACUUM_PERMITTIVITY

    def __post_init__(self):
        _check_fields(self, strict=True)

    @property
    def g0(self) -> float:
        return math.sqrt(self.d_tilde**2 / (HBAR * self.epsilon0))


@dataclass(frozen=True)
class OUNoise:
    """Ornstein-Uhlenbeck flux noise acting on the transition frequency.

    The flux deviation has autocorrelation sigma^2 * exp(-kappa*|tau|) and
    shifts the transition by slope * delta_flux. sigma is in flux quanta,
    kappa in rad/s, slope in rad/s per flux quantum.
    """

    sigma: float
    kappa: float
    slope: float

    def __post_init__(self):
        _check_fields(self)

    @property
    def v(self) -> float:
        """Frequency-deviation scale slope * sigma in rad/s."""
        return self.slope * self.sigma


# ---------------------------------------------------------------------------
# transmon spectrum
# ---------------------------------------------------------------------------

def omega01(params: TransmonParams, flux: float) -> float:
    """Transition frequency 2*pi*(sqrt(8*ej_max*|cos(pi*flux)|*ec) - ec).

    flux is in flux quanta. Raises DegenerateFlux where the junction energy
    is too small for the transition to exist (near half-integer flux).
    """
    cosine = abs(math.cos(math.pi * flux))
    f01 = math.sqrt(8 * params.ej_max * cosine * params.ec) - params.ec
    if f01 <= 0:
        raise DegenerateFlux(f"junction energy vanishes at flux {flux!r}")
    return 2 * math.pi * f01


def flux_slope(params: TransmonParams, flux) -> np.ndarray:
    """Elementwise analytic domega01/dflux in rad/s per flux quantum.

    NaN where flux is NaN, where |cos(pi*flux)| < 1e-12 (the slope diverges)
    and where f01 <= 0 (no transition).
    """
    theta = np.pi * np.asarray(flux, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.cos(theta)
        mag = np.abs(cosine)
        slope = (-np.pi**2 * math.sqrt(8 * params.ej_max * params.ec) * np.sign(cosine)
                 * np.sin(theta) / np.sqrt(mag))
        exists = np.sqrt(8 * params.ej_max * mag * params.ec) - params.ec > 0
    return np.where((mag >= 1e-12) & exists, slope, np.nan)


def domega01_dflux(params: TransmonParams, flux: float) -> float:
    """Scalar flux_slope; raises DegenerateFlux where the slope is undefined."""
    slope = float(flux_slope(params, flux))
    if math.isnan(slope) and not math.isnan(flux):
        if abs(math.cos(math.pi * flux)) < 1e-12:
            raise DegenerateFlux(f"derivative diverges at flux {flux!r}")
        raise DegenerateFlux(f"junction energy vanishes at flux {flux!r}")
    return slope


def flux_for_omega01(params: TransmonParams, target: float) -> float:
    """Flux in [0, 1/2) at which omega01 equals target (rad/s)."""
    cosine = (target / (2 * math.pi) + params.ec) ** 2 / (8 * params.ej_max * params.ec)
    if not 0 < cosine <= 1:
        raise ValueError("target frequency is outside the attainable band")
    return math.acos(cosine) / math.pi


# ---------------------------------------------------------------------------
# relaxation channel
# ---------------------------------------------------------------------------

def gamma1_model(bath: BathModel, omega) -> np.ndarray | float:
    """Relaxation rate of the Ohmic-plus-Lorentzian bath at omega (rad/s)."""
    w = np.asarray(omega, dtype=float)
    out = bath.alpha * w
    if bath.lorentz_height > 0:
        hw = bath.lorentz_fwhm / 2
        out = out + bath.lorentz_height * hw**2 / ((w - bath.lorentz_center) ** 2 + hw**2)
    return out if out.ndim else float(out)


def alpha_from_dipole(coupling: CouplingParams) -> float:
    """Dimensionless Ohmic coupling d_tilde^2/(hbar*c*epsilon0)."""
    return coupling.d_tilde**2 / (HBAR * coupling.c * coupling.epsilon0)


def alpha_res(g: float, omega_res: float) -> float:
    """Equivalent Ohmic coupling pi*(g/omega_res)^2 of a single mode.

    g and omega_res are rad/s; a precharacterized resonator coupling thus
    cross-checks the dipole route to alpha.
    """
    if not (g > 0 and omega_res > 0):
        raise ValueError("g and omega_res must be > 0")
    return math.pi * (g / omega_res) ** 2


def kondo_alpha(alpha: float) -> float:
    """Kondo-convention coupling alpha/(2*pi)."""
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    return alpha / (2 * math.pi)


def coupling_gk(coupling: CouplingParams, omega_k, length: float) -> np.ndarray | float:
    """Mode coupling g0*sqrt(omega_k/(2*length)) for a line of given length.

    omega_k is the mode frequency (rad/s), length in meters. Summing
    2*pi*g_k^2 over modes spaced by pi*c/length reproduces the Ohmic
    spectral density alpha*omega in the continuum limit.
    """
    w = np.asarray(omega_k, dtype=float)
    if np.any(w <= 0) or not length > 0:
        raise ValueError("omega_k and length must be > 0")
    out = coupling.g0 * np.sqrt(w / (2 * length))
    return out if out.ndim else float(out)


def spectral_density_ohmic(beta: float, omega, cutoff: float = math.inf) -> np.ndarray | float:
    """Ohmic spectral density beta*omega*exp(-omega/cutoff)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not cutoff > 0:
        raise ValueError("cutoff must be > 0")
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("omega must be >= 0")
    out = beta * w * (np.exp(-w / cutoff) if math.isfinite(cutoff) else 1.0)
    return out if out.ndim else float(out)


def dressed_frequencies(omega_res: float, omega_q: float, g: float) -> tuple[float, float]:
    """Normal-mode frequencies of a resonator-qubit pair (rad/s each).

    (omega_res + omega_q)/2 +- sqrt(g^2 + (omega_res - omega_q)^2/4); on
    resonance the splitting is 2g.
    """
    if not (omega_res > 0 and omega_q > 0 and g >= 0):
        raise ValueError("frequencies must be > 0 and g >= 0")
    mean = (omega_res + omega_q) / 2
    split = math.sqrt(g**2 + (omega_res - omega_q) ** 2 / 4)
    return mean - split, mean + split


# ---------------------------------------------------------------------------
# dephasing channel
# ---------------------------------------------------------------------------

def ou_spectrum(noise: OUNoise, omega) -> np.ndarray | float:
    """Frequency-noise spectral density slope^2*sigma^2*2*kappa/(kappa^2+omega^2).

    Integrates to 2*pi*(slope*sigma)^2 over the real line. In the fast limit
    kappa >> |omega| it flattens to 2*v^2/kappa. kappa = 0 is the quasi-static
    limit: the value is a delta function at omega = 0, so that point raises
    QuasiStaticLimit (elsewhere the density is zero).
    """
    w = np.asarray(omega, dtype=float)
    if noise.kappa == 0:
        if np.any(w == 0):
            raise QuasiStaticLimit("spectrum at omega = 0 is a delta function")
        out = np.zeros_like(w)
        return out if out.ndim else 0.0
    out = noise.v**2 * 2 * noise.kappa / (noise.kappa**2 + w**2)
    return out if out.ndim else float(out)


# (exp(-x) - 1 + x)/x^2 = sum_k (-x)^k/(k + 2)!: coefficients through x^9
_KERNEL_SERIES = tuple((-1) ** k / math.factorial(k + 2) for k in range(10))


def _phase_variance_kernel(kappa: float, tau) -> np.ndarray:
    """Double time integral (exp(-kappa*tau) - 1 + kappa*tau)/kappa^2.

    Equals tau^2/2 in the kappa -> 0 limit. Below x = kappa*tau = 0.1 it is
    tau^2 times the series through x^9 (by Horner), whose first dropped term
    is below 1e-18 of it; above, expm1(-x) + x cancels under two digits.
    """
    t = np.asarray(tau, dtype=float)
    if kappa == 0:
        return t**2 / 2
    x = kappa * t
    xs = np.minimum(x, 0.1)  # the series is only taken below 0.1, so it cannot overflow
    series = _KERNEL_SERIES[-1]
    for c in reversed(_KERNEL_SERIES[:-1]):
        series = series * xs + c
    exact = (np.expm1(-x) + x) / kappa**2
    return np.where(x < 0.1, t**2 * series, exact)


def ou_coherence(noise: OUNoise, tau) -> np.ndarray | float:
    """Dephasing envelope exp(-v^2*(exp(-k*t) - 1 + k*t)/k^2) of OU noise.

    Exact for Gaussian noise (second cumulant). At kappa = 0 it reduces to
    the Gaussian decay exp(-v^2*tau^2/2).
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise ValueError("tau must be >= 0")
    out = np.exp(-noise.v**2 * _phase_variance_kernel(noise.kappa, t))
    return out if out.ndim else float(out)


def gamma_phi_rate(v, kappa) -> np.ndarray:
    """Dephasing rate of OU noise (inverse 1/e time), elementwise in v, kappa >= 0.

    With x = kappa/v and u = kappa*t_phi the 1/e condition is
    u - 1 + exp(-u) = x^2 and the rate is kappa/u. Newton from
    u0 = sqrt(2)*x + x^2, right of the root of a convex increasing function,
    descends monotonically. Past x = 1e8 the root is x^2 + 1 to double
    precision, taken as v/(x + 1/x) so that it cannot overflow.
    """
    v, kappa = np.asarray(v, dtype=float), np.asarray(kappa, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = kappa / v
        xs = np.minimum(x, 1e8)
        u = math.sqrt(2) * xs + xs**2
        for _ in range(6):
            u = u - (_phase_variance_kernel(1.0, u) - xs**2) / -np.expm1(-u)
        rate = np.where(x > 1e8, v / (x + 1 / x), kappa / u)
    return np.where(v == 0, 0.0, np.where(kappa == 0, v / math.sqrt(2), rate))


def gamma_phi_rate_partials(v, kappa) -> tuple[np.ndarray, np.ndarray]:
    """(d rate/dv, d rate/dkappa) of gamma_phi_rate, elementwise in v, kappa >= 0.

    Implicitly from u - 1 + exp(-u) = x^2, with e = 1 - exp(-u) and s = rate/v: d/dv = 2 s^2 x/e,
    d/dkappa = 1/u - 2 s^2/e, or its series -1/6 + u^2/360 below u = 1e-2, where that cancels.
    kappa = 0 gives exactly 1/sqrt(2) and -1/6; v = 0 < kappa gives 0 and 0.
    """
    v, kappa = np.asarray(v, dtype=float), np.asarray(kappa, dtype=float)
    rate = gamma_phi_rate(v, kappa)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, s, e = kappa / rate, rate / v, -np.expm1(-kappa / rate)
        d_v = 2 * s * (s * kappa / v) / e
        d_kappa = np.where(u < 1e-2, -1 / 6 + u**2 / 360, rate / kappa - 2 * s * s / e)
    return (np.where(kappa == 0, 1 / math.sqrt(2), np.where(v == 0, 0.0, d_v)),
            np.where(kappa == 0, -1 / 6, np.where(v == 0, 0.0, d_kappa)))


def gamma_phi_model(noise: OUNoise) -> float:
    """Scalar gamma_phi_rate: v/sqrt(2) at kappa = 0, v^2/kappa for kappa >> v."""
    return float(gamma_phi_rate(noise.v, noise.kappa))
