"""Inverse problems: spectrum fits, regime classification, and rate-model fits.

The per-spectrum fit extracts the scatterer parameters plus a complex
calibration (scale and cable-delay phase slope) from cross-path data. The
second stage fits rate-vs-frequency models to a table of extracted rates.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .components import (
    CROSS_PATHS,
    CircuitSpec,
    QubitScatterer,
    SpectrumTrace,
    _lineshape,
    _qubit_r_and_grad,
    _reflection_embedding,
    csv_table,
    read_utf8,
    # unused: perfbench/test_perfbench.py::test_tracer_records_nested_layers_and_restores_originals
    # reads mzq.estimate.sweep; ROADMAP item 1 frees it
    sweep,
    write_csv,
    write_json,
)
from .leastsq import (
    BadInitialization,
    NoConvergence,
    confidence_half_widths,
    covariance,
    levenberg_marquardt,
    prediction_band,
    t_quantile,
)
from .physics import (BathModel, TransmonParams, flux_slope, gamma1_model, gamma_phi_rate,
                      gamma_phi_rate_partials)

__all__ = [
    "FitResult", "RateDataset", "RegimeLabel", "IllPosed", "NoFeature",
    "NoConvergence", "BadInitialization", "classify_regime", "fit_spectrum",
    "fit_gamma1", "fit_gamma_phi_power", "fit_ou", "write_fit_json", "write_rates_csv",
    "read_rates_csv",
]

RATES_CSV_HEADER = "omega01_rad_s,gamma1_rad_s,gamma_phi_rad_s,flux_phi0,rel_err_gamma_phi"

REL_ERR_MAX_DEFAULT = 0.33

FIT_OPTIONS = ("max_iter", "ftol", "xtol")  # levenberg_marquardt settings fit_spectrum takes


class IllPosed(ValueError):
    """Raised when a dataset cannot constrain the requested model."""


class NoFeature(ValueError):
    """Raised when a trace shows no excursion above the noise floor."""


class RegimeLabel(str, enum.Enum):
    PEAK_DIP = "PeakDip"
    DIP = "Dip"
    DIP_PEAK = "DipPeak"


def _json_float(x: float) -> float | str:
    x = float(x)
    return x if math.isfinite(x) else str(x)  # float() reads the string back


def _json_floats(values: dict[str, float]) -> dict[str, float | str]:
    return {k: _json_float(v) for k, v in values.items()}


@dataclass
class FitResult:
    """Point estimates with linearized 95% confidence half-widths.

    rel_err is derived, never stored: it maps each ci95 key to
    ci95/|estimate|. covariance (when present) is in the coordinates of the
    leading params keys, in their order, so a band through the reported
    params reads it as is; dof is the residual degrees of freedom behind the
    intervals; curves (spectrum fits) maps each fitted cross path to the
    calibrated model at the fitted point; band (rate fits) maps a point count
    to (grid, y, lo, hi), the fitted curve and its 95% band over that many
    points spanning the x values of the rows the fit used. None of the four
    is serialized.
    """

    params: dict[str, float]
    ci95: dict[str, float]
    residual_rms: float
    iterations: int
    converged: bool
    covariance: np.ndarray | None = field(default=None, repr=False, compare=False)
    dof: int | None = field(default=None, compare=False)
    curves: dict[str, np.ndarray] | None = field(default=None, repr=False, compare=False)
    band: Callable[[int], tuple] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for k, hw in self.ci95.items():
            if k not in self.params:
                raise ValueError(f"ci95 key {k!r} missing from params")
            if not hw >= 0:
                raise ValueError(f"ci95[{k!r}] must be >= 0")

    @property
    def rel_err(self) -> dict[str, float]:
        """ci95/|estimate| per ci95 key: 0 for a zero interval, inf for a zero estimate."""
        out = {}
        for k, hw in self.ci95.items():
            p = self.params[k]
            if hw == 0:
                out[k] = 0.0
            elif p == 0:
                out[k] = math.inf
            else:
                out[k] = hw / abs(p)
        return out


def _fit_result(jacobian: np.ndarray, residual: np.ndarray, iterations: int,
                params: dict[str, float], residual_rms: float,
                curves: dict[str, np.ndarray] | None = None,
                rate_model: tuple | None = None) -> FitResult:
    """Result of a converged fit at params: one covariance, ci95 on the leading params.

    rate_model, a rate fit's (curve, jacobian, xs) with xs the x values of the
    rows it used, gives the result its band at the vector of params' values.
    """
    m, n = jacobian.shape
    cov = covariance(jacobian, residual)
    hw = confidence_half_widths(cov, m - n)
    ci95 = {k: float(h) for k, h in zip(params, hw)}
    band = None if rate_model is None else partial(prediction_band, *rate_model,
                                                   np.array([*params.values()]), cov, m - n)
    return FitResult(params=params, ci95=ci95, residual_rms=residual_rms,
                     iterations=iterations, converged=True, covariance=cov, dof=m - n,
                     curves=curves, band=band)


def write_fit_json(path, result: FitResult) -> None:
    """Strict JSON, keys sorted; a non-finite float becomes the string "inf", "-inf" or "nan"."""
    doc = {"params": _json_floats(result.params), "ci95": _json_floats(result.ci95),
           "rel_err": _json_floats(result.rel_err),
           "residual_rms": _json_float(result.residual_rms),
           "iterations": result.iterations, "converged": result.converged}
    write_json(path, doc)


@dataclass
class RateDataset:
    """Extracted rates per flux point, all rates in rad/s, flux in flux quanta.

    flux may be NaN where unknown; slope-based fits skip such rows.
    """

    omega01: np.ndarray
    gamma1: np.ndarray
    gamma_phi: np.ndarray
    flux: np.ndarray
    rel_err_gamma_phi: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            a = np.asarray(getattr(self, f.name), dtype=float)
            if a.ndim != 1:
                raise ValueError(f"{f.name} must be 1-d")
            setattr(self, f.name, a)
        if any(getattr(self, f.name).size != self.omega01.size for f in fields(self)):
            raise ValueError("rate columns must have equal length")
        if not np.all(np.isfinite(self.omega01)) or np.any(self.omega01 <= 0):
            raise ValueError("omega01 must be finite and > 0 in every row")

    def __len__(self) -> int:
        return self.omega01.size

    def subset(self, mask: np.ndarray) -> "RateDataset":
        return RateDataset(*(getattr(self, f.name)[mask] for f in fields(self)))


def rates_from_csv(text: str) -> RateDataset:
    """Parse CSV produced by write_rates_csv; errors carry the 1-based line number."""
    rows = []
    for num, row in csv_table(text, RATES_CSV_HEADER.split(",")):
        try:
            vals = [float(p) for p in row]
        except ValueError:
            raise ValueError(f"line {num}: non-numeric field") from None
        if not 0 < vals[0] < math.inf:
            raise ValueError(f"line {num}: omega01 must be finite and > 0")
        # flux may be NaN (unknown) and rel_err any float: excluded_rows sets aside
        # a row whose rel_err is not a usable weight
        if not (math.isfinite(vals[1]) and math.isfinite(vals[2])):
            raise ValueError(f"line {num}: gamma1 and gamma_phi must be finite")
        rows.append(vals)
    return RateDataset(*np.array(rows).T)


def write_rates_csv(path, rates: RateDataset) -> None:
    write_csv(path, RATES_CSV_HEADER.split(","), [getattr(rates, f.name) for f in fields(rates)])


def read_rates_csv(path) -> RateDataset:
    return rates_from_csv(read_utf8(path))


# ---------------------------------------------------------------------------
# background detrending and regime classification
# ---------------------------------------------------------------------------

# np.median and np.percentile load numpy.ma, which no mzq process needs. These give
# numpy's bits: a mean summed from +0.0, a quantile partitioned where numpy does
def _median(a: np.ndarray):
    """np.median(a) of a 1-d array: NaN if any entry is, else the mean of its middle pair."""
    s = np.sort(a)
    return s[-1] if np.isnan(s[-1]) else (0.0 + s[(s.size - 1) // 2] + s[s.size // 2]) / 2


def _quantile(a: np.ndarray, q: float):
    """np.quantile(a, q) by numpy's default linear method, of a 1-d array without NaN."""
    v = a.size * q + (1 - q) - 1  # the virtual index; at or past the end numpy takes s[-1]
    i, j = (math.floor(v), math.floor(v) + 1) if v < a.size - 1 else (-1, -1)
    s = np.partition(a, sorted({0, -1, i, j}))
    t, lo, hi = v - i, s[i], s[j]
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


def _detrend(freqs: np.ndarray, mag: np.ndarray):
    """Fit a cubic baseline, up to 6 times with 3.5-sigma clipping, to skip the feature.

    Returns (residual, noise_floor). The noise floor is the scaled median
    absolute deviation of the kept points with a small absolute floor so a
    numerically exact baseline does not declare every ripple a feature.
    """
    x = np.linspace(-1.0, 1.0, freqs.size)
    mask = np.ones(freqs.size, dtype=bool)
    for _ in range(6):
        coef = np.polyfit(x[mask], mag[mask], 3)
        resid = mag - np.polyval(coef, x)
        med = _median(resid[mask])
        sigma = 1.4826 * _median(np.abs(resid[mask] - med))
        new_mask = np.abs(resid - med) < 3.5 * sigma  # none at all where sigma is 0
        if new_mask.sum() < max(5, mask.size // 4):  # a cubic plus one spare point
            break
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    floor = 1e-6 * max(float(np.max(np.abs(mag))), 1e-300)
    return resid, max(float(sigma), floor)


def _smooth(y: np.ndarray) -> np.ndarray:
    """Moving average of odd width max(3, ~n/150), reflected at the ends; callers pass n >= 16."""
    width = max(3, (y.size // 150) | 1)
    pad = width // 2
    padded = np.pad(y, pad, mode="reflect")
    kernel = np.full(width, 1.0 / width)
    return np.convolve(padded, kernel, mode="valid")


def classify_regime(trace: SpectrumTrace) -> RegimeLabel:
    """Label the lineshape of the preferred cross path.

    The interferometer background is removed by a clipped polynomial fit;
    the label follows the detrended excursion pair: Dip when the positive
    excursion is below 20% of the negative one, otherwise PeakDip or
    DipPeak by which extremum comes first in frequency.
    """
    path = trace.cross_path()
    mag = np.abs(trace.values[path])
    if mag.size < 16:
        raise NoFeature("trace too short to classify")
    resid, noise = _detrend(trace.freqs, mag)
    rs = _smooth(resid)
    peak = float(rs.max())
    dip = float(-rs.min())
    if max(peak, dip) < 3 * noise:
        raise NoFeature(f"no excursion above 3x the noise floor ({noise:.3g})")
    if peak < 0.2 * dip:
        return RegimeLabel.DIP
    if trace.freqs[int(np.argmax(rs))] < trace.freqs[int(np.argmin(rs))]:
        return RegimeLabel.PEAK_DIP
    return RegimeLabel.DIP_PEAK


# ---------------------------------------------------------------------------
# per-spectrum fit
# ---------------------------------------------------------------------------

def _fold(x, lower=0.0, upper=math.inf):
    """|x| held in [lower, upper], which keeps a fit's model valid at any step, and its
    derivative in x: the sign of x, + at 0 (where fit_ou starts kappa), 0 where a bound
    above 0 holds it."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    held = ((a <= lower) & np.greater(lower, 0)) | (a >= upper)
    return np.clip(a, lower, upper), np.where(x < 0, -1.0, 1.0) * ~held


# The spectrum fit's vector: the qubit's fitted fields in field order, with fold bounds, then
# the calibration. gamma1 > 0 keeps saturation finite, r0 < 1 keeps |1 - r| >= 1 - Re(r) >= _R0_MIN
_GAMMA1_MIN = 1e-3
_R0_MIN = 1e-6
_QUBIT_BOUNDS = {"omega01": (0.0, math.inf), "gamma1": (_GAMMA1_MIN, math.inf),
                 "gamma_phi": (0.0, math.inf), "r0": (_R0_MIN, 1 - _R0_MIN)}
_CALIBRATION = ("scale_re", "scale_im", "phase_slope")
_NQ = len(_QUBIT_BOUNDS)  # x[:_NQ] is the qubit's, x[_NQ:] the calibration's


def _fold_qubit(x, rabi: float):  # the scatterer at the folded x, and the fold's derivative
    folded, slope = _fold(x[:_NQ], *zip(*_QUBIT_BOUNDS.values()))
    return QubitScatterer(**dict(zip(_QUBIT_BOUNDS, folded)), rabi=rabi), slope


# the reflection at which, with 0 and its negative, each path's Mobius form is sampled
_R_PROBE = 0.5


def _mobius_coefficients(solve_at, n: int) -> dict[str, tuple]:
    """(a, b, d) per path with S(r) = (a + b r)/(1 + d r), from solves at r = 0, +-_R_PROBE.

    a is the qubit-free background.
    """
    s0, s_plus, s_minus = (solve_at(np.full(n, r)) for r in (0.0, _R_PROBE, -_R_PROBE))
    out = {}
    for p in s0:
        d = (s_plus[p] + s_minus[p] - 2 * s0[p]) / (_R_PROBE * (s_minus[p] - s_plus[p]))
        out[p] = (s0[p], (s_plus[p] - s0[p]) / _R_PROBE + s_plus[p] * d, d)
    return out


def _embedded_spectrum(template: CircuitSpec, freqs: np.ndarray, f_ref: float, rabi: float,
                       paths: list[str]):
    """Calibrated cross paths and their Jacobian as functions of the fit vector x.

    Returns (model, jacobian, mobius): model(x) solves the template's reflection embedding at
    the folded lineshape's r, calibrated at f_ref; jacobian(x) maps each path to dS/dx, from
    dS/dr = (b - a d)/(1 + d r)^2 and closed-form calibration columns; mobius holds (a, b, d).
    """
    w = 2 * math.pi * freqs
    solve_at = _reflection_embedding(template, freqs, paths)
    mobius = _mobius_coefficients(solve_at, w.size)

    def model(x) -> dict[str, np.ndarray]:
        r = _lineshape(_fold_qubit(x, rabi)[0], w)[0]
        cal = calibration_curve(*x[_NQ:], freqs, f_ref)
        return {p: s * cal for p, s in solve_at(r).items()}

    def jacobian(x) -> dict[str, np.ndarray]:
        qubit, slope = _fold_qubit(x, rabi)
        r, dr = _qubit_r_and_grad(qubit, w)
        dr *= slope
        scale_re, scale_im, delay = x[_NQ:]
        unwind = calibration_curve(1.0, 0.0, delay, freqs, f_ref)
        scale = complex(scale_re, scale_im)
        out = {}
        for p, (a, b, d) in mobius.items():
            den = 1 + d * r
            s = (a + b * r) / den * unwind
            ds = (b - a * d) / den**2 * unwind * scale
            out[p] = np.column_stack([ds[:, None] * dr, s, 1j * s,
                                      -2j * math.pi * (freqs - f_ref) * scale * s])
        return out

    return model, jacobian, mobius


def calibration_curve(scale_re: float, scale_im: float, phase_slope: float,
                      freqs: np.ndarray, f_ref: float) -> np.ndarray:
    """Complex calibration factor over a grid.

    The scale applies at the reference frequency and the phase slope (a
    cable delay in seconds) winds relative to it; referencing the window
    center keeps the scale and the delay nearly independent parameters.
    """
    return (scale_re + 1j * scale_im) * np.exp(-2j * np.pi * (freqs - f_ref) * phase_slope)


def _feature_init(freqs: np.ndarray, values: np.ndarray):
    """Locate the dominant detrended excursion: center (Hz) and FWHM (Hz)."""
    resid, _ = _detrend(freqs, np.abs(values))
    rs = _smooth(resid)
    i0 = int(np.argmax(np.abs(rs)))
    half = abs(rs[i0]) / 2
    lo = i0
    while lo > 0 and abs(rs[lo - 1]) > half:
        lo -= 1
    hi = i0
    while hi < rs.size - 1 and abs(rs[hi + 1]) > half:
        hi += 1
    df = float(np.mean(np.diff(freqs)))
    return float(freqs[i0]), max(hi - lo + 1, 2) * df


def fit_spectrum(trace: SpectrumTrace, spec_template: CircuitSpec,
                 init: QubitScatterer | None = None,
                 options: dict | None = None) -> FitResult:
    """Fit the scatterer and calibration to the cross-path data of a trace.

    Free parameters: omega01, gamma1, gamma_phi, r0, complex scale, and a
    linear phase slope (cable delay, seconds). The scale is referenced at
    the mean grid frequency, so a pure delay leaves it untouched. Through
    paths are ignored. Residuals are the stacked real and imaginary parts
    of model minus data over every cross path present, unweighted.

    init seeds the start and fixes the drive amplitude; an init center that
    lies outside the swept window is replaced by the dominant feature in the
    data, so one init can serve a whole flux sweep. An init whose saturation
    rabi^2/(gamma1 G2) exceeds 100 would start on a flat line, so gamma1
    then starts at pi times the feature's FWHM and gamma_phi at half that,
    as without an init. options may override the max_iter, ftol and xtol
    defaults of levenberg_marquardt.

    The model is sweep's, evaluated through the scatterer's exact embedding:
    with r the scatterer reflection, (1 - r) M(r) = A + r B per frequency,
    so A and B are built once per trace and the fit runs no sweep.
    Every evaluated point, the converged one included, passes both of
    sweep's gates, |1 - r| and the port solve's condition, so SingularSystem
    names the frequency as sweep would. The Jacobian is closed form: each
    cross path is Mobius in r, S = (a + b r)/(1 + d r). gamma1 and r0 start
    off their fold clamps, where their columns are live. spec_template's
    qubit is ignored: the fitted scatterer takes its place.

    The result's curves hold the calibrated model of each fitted cross path
    at the converged point, from one more evaluation on the same embedding.
    """
    opts = dict(options or {})
    unknown = set(opts) - set(FIT_OPTIONS)
    if unknown:
        raise ValueError(f"unknown fit options: {sorted(unknown)}")

    primary = trace.cross_path()
    paths = [p for p in CROSS_PATHS if p in trace.values]
    freqs = trace.freqs
    if freqs.size < 20:
        raise ValueError("need at least 20 frequency points")

    data = {p: trace.values[p] for p in paths}

    rabi = init.rabi if init is not None else 0.0
    # a shared init cannot carry the right center for every trace of a flux
    # sweep, so a center outside the window starts on the data's feature; a
    # saturation rabi^2/(gamma1 G2) above 100 holds the reflection below 1 %
    # of r0, a flat line whose columns vanish, so the widths start from its FWHM
    w_lo, w_hi = 2 * math.pi * freqs[0], 2 * math.pi * freqs[-1]
    center_ok = init is not None and w_lo <= init.omega01 <= w_hi
    widths_ok = init is not None and rabi**2 <= 100 * init.gamma1 * init.gamma2
    if not (center_ok and widths_ok):
        f0, fwhm = _feature_init(freqs, data[primary])
    omega01_0 = init.omega01 if center_ok else 2 * math.pi * f0
    gamma1_0, gamma_phi_0 = ((init.gamma1, init.gamma_phi) if widths_ok
                             else (math.pi * fwhm, math.pi * fwhm / 2))
    r0_0 = init.r0 if init is not None else 0.9

    # calibration start: compare data with the qubit-free background; the
    # line fit uses only the outer bands, away from the scatterer feature
    f_ref = float(np.mean(freqs))
    model, model_jacobian, mobius = _embedded_spectrum(spec_template, freqs, f_ref, rabi, paths)
    background = mobius[primary][0]
    ok = np.abs(background) > 1e-12
    delay_0, scale_0 = 0.0, 0j
    if ok.sum() >= 4:
        ratio = data[primary][ok] / background[ok]
        rel = freqs[ok] - f_ref
        angle = np.unwrap(np.angle(ratio))
        outer = np.ones(ratio.size, dtype=bool)
        edge = max(ratio.size // 10, 2)
        outer[edge:-edge] = False
        slope = np.polyfit(rel[outer], angle[outer], 1)[0]
        delay_0 = -slope / (2 * math.pi)
        unwound = ratio * np.exp(2j * np.pi * rel * delay_0)
        pick = unwound[outer]
        scale_0 = complex(_median(pick.real), _median(pick.imag))
    if abs(scale_0) < 1e-9:
        scale_0 = 1.0 + 0.0j

    x0 = np.array([omega01_0, gamma1_0, gamma_phi_0, r0_0,
                   scale_0.real, scale_0.imag, delay_0])
    x_scale = np.array([2 * math.pi * 1e9,
                        max(gamma1_0, 2 * math.pi * 1e5),
                        max(gamma_phi_0, 2 * math.pi * 1e5),
                        0.1, 0.1, 0.1, 1e-9])
    # start gamma1 and r0 off their clamps: there a column is zero and the
    # fit could never move the parameter
    x0[1] = max(x0[1], 1e-6 * x_scale[1])
    x0[3] = min(max(x0[3], 1e-3), 1 - 1e-3)

    def stacked(parts) -> np.ndarray:  # real and imaginary parts, path after path
        return np.concatenate([half for c in parts for half in (c.real, c.imag)])

    data_vec = stacked(data[p] for p in paths)
    res = levenberg_marquardt(lambda x: stacked(m - data[p] for p, m in model(x).items()),
                              x0, x_scale=x_scale, **opts,
                              jac=lambda x: stacked(model_jacobian(x).values()))

    qubit, slope = _fold_qubit(res.x, rabi)
    if qubit.r0 == _R0_MIN:
        # r0 on its lower fold bound is an escaped fit; on the upper one, full
        # reflection, it is an estimate whose dead column gives an infinite interval
        raise NoConvergence("reflection amplitude pinned at its bound")
    params = {k: float(getattr(qubit, k)) for k in _QUBIT_BOUNDS}
    params.update(zip(_CALIBRATION, map(float, res.x[_NQ:])))
    res.jacobian[:, :_NQ] *= slope  # so the covariance is in the reported params
    rms = float(np.sqrt(np.mean(res.residual**2)) / max(np.sqrt(np.mean(data_vec**2)), 1e-300))
    return _fit_result(res.jacobian, res.residual, res.iterations, params, rms,
                       curves=model(res.x))


# ---------------------------------------------------------------------------
# rate-model fits
# ---------------------------------------------------------------------------

_BATH_LOWER = (0.0, 0.0, 1.0, 0.0)  # the fwhm stays at 1 rad/s or more


def _fold_bath(x):  # the bath at the folded x, and the fold's derivative
    folded, slope = _fold(x[:4], _BATH_LOWER)
    return BathModel(*folded), slope


def gamma1_curve(x, w: np.ndarray) -> np.ndarray:
    """Relaxation model at the folded parameters x = (alpha, center, fwhm, height)."""
    return gamma1_model(_fold_bath(x)[0], w)


def power_curve(x, slopes: np.ndarray) -> np.ndarray:
    """Dephasing power law at x = (amplitude, eta): |amplitude| * slopes**eta."""
    return _fold(x[0])[0] * slopes ** x[1]


def ou_curve(x, slopes: np.ndarray) -> np.ndarray:
    """Dephasing rate at the folded flux-noise parameters x = (sigma, kappa)."""
    sigma, kappa = _fold(x[:2])[0]
    return gamma_phi_rate(sigma * slopes, kappa)


def gamma1_jacobian(x, w: np.ndarray) -> np.ndarray:
    """d gamma1_curve / dx, shape (N, 4); the fwhm column is 0 on its clamp at 1 rad/s."""
    bath, slope = _fold_bath(x)
    h, hw, dw = bath.lorentz_height, bath.lorentz_fwhm / 2, w - bath.lorentz_center
    den = dw**2 + hw**2
    cols = [w, 2 * h * hw**2 * dw / den**2, h * hw * dw**2 / den**2, hw**2 / den]
    return np.column_stack(cols) * slope


def power_jacobian(x, slopes: np.ndarray) -> np.ndarray:
    """d power_curve / dx, shape (N, 2)."""
    return np.column_stack([slopes ** x[1] * _fold(x[0])[1],
                            power_curve(x, slopes) * np.log(slopes)])


def ou_jacobian(x, slopes: np.ndarray) -> np.ndarray:
    """d ou_curve / dx, shape (N, 2), from physics.gamma_phi_rate_partials."""
    (sigma, kappa), slope = _fold(x[:2])
    d_v, d_kappa = gamma_phi_rate_partials(sigma * slopes, kappa)
    return np.column_stack([d_v * slopes, d_kappa]) * slope


def _fit_rate_curve(names: list[str], curve, jacobian, xs: np.ndarray, y: np.ndarray,
                    sqrt_w: np.ndarray, x0: np.ndarray, x_scale: np.ndarray, lower=0.0):
    """Weighted LM fit of curve(x, xs), folded by _fold(x, lower), to y; reports the folded x."""
    res = levenberg_marquardt(lambda x: (curve(x, xs) - y) * sqrt_w, x0, x_scale=x_scale,
                              jac=lambda x: jacobian(x, xs) * sqrt_w[:, None])
    x = _fold(res.x, lower)[0]
    rms = float(np.sqrt(np.mean(res.residual**2)) /
                max(np.sqrt(np.mean((y * sqrt_w) ** 2)), 1e-300))
    return _fit_result(jacobian(x, xs) * sqrt_w[:, None], res.residual, res.iterations,
                       dict(zip(names, map(float, x))), rms, rate_model=(curve, jacobian, xs))


def fit_gamma1(rates: RateDataset) -> FitResult:
    """Fit the Ohmic-plus-Lorentzian relaxation model to gamma1 rows.

    Parameters: alpha, lorentz_center, lorentz_fwhm, lorentz_height.
    Residuals are unweighted (the table carries no gamma1 uncertainty).
    """
    w = rates.omega01
    g = rates.gamma1
    if len(rates) < 8:
        raise IllPosed("need at least 8 rows to fit the relaxation model")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise IllPosed("gamma1 rows must be finite and >= 0")
    if w.max() - w.min() < 2 * math.pi * 100e6:
        raise IllPosed("omega01 values cluster within 100 MHz")

    alpha_0 = float(_quantile(g / w, 0.25))
    bump = g - alpha_0 * w
    i0 = int(np.argmax(bump))
    height_0 = max(float(bump[i0]), 0.0)
    center_0 = float(w[i0])
    fwhm_0 = 2 * math.pi * 1.5e9
    x0 = np.array([alpha_0, center_0, fwhm_0, height_0])
    x_scale = np.array([max(alpha_0, 1e-5), 2 * math.pi * 1e9, 2 * math.pi * 1e9,
                        max(height_0, 2 * math.pi * 1e4)])
    return _fit_rate_curve([f.name for f in fields(BathModel)], gamma1_curve, gamma1_jacobian,
                           w, g, np.ones_like(g), x0, x_scale, _BATH_LOWER)


def excluded_rows(rates: RateDataset, transmon: TransmonParams, rel_err_max: float):
    """({reason: row mask}, |domega01/dflux|): why the slope-based fits set rows aside.

    A row goes if its rel_err is at or above rel_err_max, its flux is NaN,
    its slope is not > 0 (sweet spot, no transition), or its rel_err or
    gamma_phi is not > 0 (NaN included), so each kept row carries its own
    finite weight and a logarithm.
    """
    slopes = np.abs(flux_slope(transmon, rates.flux))
    flux_known = np.isfinite(rates.flux)
    return {"rel_err_at_or_above_max": rates.rel_err_gamma_phi >= rel_err_max,
            "flux_unknown": ~flux_known,
            "zero_flux_sensitivity": flux_known & ~(slopes > 0),
            "rel_err_not_positive": ~(rates.rel_err_gamma_phi > 0),
            "gamma_phi_not_positive": ~(rates.gamma_phi > 0)}, slopes


def _slope_rows(rates: RateDataset, transmon: TransmonParams, rel_err_max: float):
    """The rows no excluded_rows reason hits, and their slopes; at least 4."""
    checks, slopes = excluded_rows(rates, transmon, rel_err_max)
    keep = ~np.logical_or.reduce(list(checks.values()))
    if np.count_nonzero(keep) < 4:
        raise IllPosed("fewer than 4 usable rows after filtering")
    return rates.subset(keep), slopes[keep]


def fit_gamma_phi_power(rates: RateDataset, transmon: TransmonParams,
                        rel_err_max: float = REL_ERR_MAX_DEFAULT) -> FitResult:
    """Fit log gamma_phi = log A + eta*log|domega01/dflux| by weighted regression.

    Rows that excluded_rows sets aside are dropped; each kept row is
    weighted by its inverse squared relative error.
    """
    kept, slopes = _slope_rows(rates, transmon, rel_err_max)
    if slopes.max() / slopes.min() < 10:
        raise IllPosed("flux sensitivity spans less than one decade")

    x = np.log(slopes)
    y = np.log(kept.gamma_phi)
    sqrt_w = 1.0 / kept.rel_err_gamma_phi
    design = sqrt_w[:, None] * np.column_stack([np.ones_like(x), x])
    (intercept, eta), *_ = np.linalg.lstsq(design, sqrt_w * y, rcond=None)
    amplitude = math.exp(intercept)
    resid = design @ [intercept, eta] - sqrt_w * y
    rms = math.sqrt(float(resid @ resid) / float(sqrt_w @ sqrt_w))
    # the log residual is linear in (log amplitude, eta), so its Jacobian in
    # (amplitude, eta) is exact and covariance() carries the delta method
    return _fit_result(design / [amplitude, 1.0], resid, 1,
                       {"amplitude": amplitude, "eta": float(eta)}, rms,
                       rate_model=(power_curve, power_jacobian, slopes))


def fit_ou(rates: RateDataset, transmon: TransmonParams,
           rel_err_max: float = REL_ERR_MAX_DEFAULT) -> FitResult:
    """Fit the flux-noise amplitude and rate through the dephasing model.

    Rows that excluded_rows sets aside are dropped; each kept row is
    weighted by 1/(rel_err gamma_phi)^2, its inverse variance up to one
    factor common to every row, which the fit's s^2 absorbs: sigma, kappa
    and their intervals do not depend on it. Reports
    sigma and kappa with 95% intervals plus kappa_upper95, the one-sided 95%
    upper bound for kappa, which is the meaningful statement when kappa is
    indistinguishable from zero. The search starts at the quasi-static point
    kappa = 0, sigma = sqrt(2) median(gamma_phi/slope).
    """
    kept, slopes = _slope_rows(rates, transmon, rel_err_max)
    if slopes.max() / slopes.min() < 1.2:
        raise IllPosed("flux sensitivity is effectively constant across rows")

    g = kept.gamma_phi
    sqrt_w = 1.0 / (kept.rel_err_gamma_phi * g)

    sigma_0 = math.sqrt(2) * float(_median(g / slopes))
    x0 = np.array([sigma_0, 0.0])
    x_scale = np.array([max(sigma_0, 1e-6), 2 * math.pi * 1e6])
    result = _fit_rate_curve(["sigma", "kappa"], ou_curve, ou_jacobian, slopes, g, sqrt_w,
                             x0, x_scale)
    se_kappa = math.sqrt(result.covariance[1, 1])
    upper = result.params["kappa"] + t_quantile(result.dof, 0.95) * se_kappa
    return replace(result, params={**result.params, "kappa_upper95": upper})
