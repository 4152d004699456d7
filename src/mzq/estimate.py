"""Inverse problems: spectrum fits, regime classification, and rate-model fits.

The per-spectrum fit extracts the scatterer parameters plus a complex
calibration (scale and cable-delay phase slope) from cross-path data. The
second stage fits rate-vs-frequency models to a table of extracted rates.
"""
from __future__ import annotations

import enum
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .components import (
    CROSS_PATHS,
    CircuitSpec,
    QubitScatterer,
    SpectrumTrace,
    sweep,
    write_csv_columns,
)
from .leastsq import (
    BadInitialization,
    LMResult,
    NoConvergence,
    confidence_half_widths,
    covariance,
    levenberg_marquardt,
    t_quantile,
)
from .physics import (BathModel, TransmonParams, _phase_variance_kernel, flux_slope,
                      gamma1_model, gamma_phi_rate)

__all__ = [
    "FitResult", "RateDataset", "RegimeLabel", "IllPosed", "NoFeature",
    "NoConvergence", "BadInitialization", "classify_regime", "fit_spectrum",
    "fit_gamma1", "fit_gamma_phi_power", "fit_ou", "write_fit_json",
    "read_fit_json", "write_rates_csv", "read_rates_csv",
]

RATES_CSV_HEADER = "omega01_rad_s,gamma1_rad_s,gamma_phi_rad_s,flux_phi0,rel_err_gamma_phi"

REL_ERR_MAX_DEFAULT = 0.33


class IllPosed(ValueError):
    """Raised when a dataset cannot constrain the requested model."""


class NoFeature(ValueError):
    """Raised when a trace shows no excursion above the noise floor."""


class RegimeLabel(str, enum.Enum):
    PEAK_DIP = "PeakDip"
    DIP = "Dip"
    DIP_PEAK = "DipPeak"


def _rel_err_map(params: dict[str, float], ci95: dict[str, float]) -> dict[str, float]:
    out = {}
    for k, hw in ci95.items():
        p = params[k]
        if hw == 0:
            out[k] = 0.0
        elif p == 0:
            out[k] = math.inf
        else:
            out[k] = hw / abs(p)
    return out


def _json_float(x: float) -> float | str:
    x = float(x)
    return x if math.isfinite(x) else str(x)  # float() reads the string back


def _json_floats(values: dict[str, float]) -> dict[str, float | str]:
    return {k: _json_float(v) for k, v in values.items()}


@dataclass
class FitResult:
    """Point estimates with linearized 95% confidence half-widths.

    rel_err maps each ci95 key to ci95/|estimate|. covariance (when present)
    is ordered like the leading params keys; dof is the residual degrees of
    freedom behind the intervals. Neither is serialized.
    """

    params: dict[str, float]
    ci95: dict[str, float]
    rel_err: dict[str, float]
    residual_rms: float
    iterations: int
    converged: bool
    covariance: np.ndarray | None = field(default=None, repr=False, compare=False)
    dof: int | None = field(default=None, compare=False)

    def __post_init__(self):
        for k, hw in self.ci95.items():
            if k not in self.params:
                raise ValueError(f"ci95 key {k!r} missing from params")
            if not hw >= 0:
                raise ValueError(f"ci95[{k!r}] must be >= 0")
        expected = _rel_err_map(self.params, self.ci95)
        for k, v in expected.items():
            got = self.rel_err.get(k)
            if got is None:
                raise ValueError(f"rel_err missing key {k!r}")
            if v == got:
                continue
            if not math.isfinite(v) or not math.isfinite(got) or abs(got - v) > 1e-12 * max(abs(v), 1e-300):
                raise ValueError(f"rel_err[{k!r}] inconsistent with ci95/|params|")

    def to_json_dict(self) -> dict:
        """Plain-JSON form; a non-finite float becomes the string "inf", "-inf" or "nan"."""
        return {
            "params": _json_floats(self.params),
            "ci95": _json_floats(self.ci95),
            "rel_err": _json_floats(self.rel_err),
            "residual_rms": _json_float(self.residual_rms),
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FitResult":
        keys = {"params", "ci95", "rel_err", "residual_rms", "iterations", "converged"}
        unknown = set(doc) - keys
        if unknown:
            raise ValueError(f"unknown fit-result keys: {sorted(unknown)}")
        missing = keys - set(doc)
        if missing:
            raise ValueError(f"missing fit-result keys: {sorted(missing)}")
        return cls(
            params={k: float(v) for k, v in doc["params"].items()},
            ci95={k: float(v) for k, v in doc["ci95"].items()},
            rel_err={k: float(v) for k, v in doc["rel_err"].items()},
            residual_rms=float(doc["residual_rms"]),
            iterations=int(doc["iterations"]),
            converged=bool(doc["converged"]),
        )


def _make_result(params: dict[str, float], ci95: dict[str, float], residual_rms: float,
                 iterations: int, cov: np.ndarray, dof: int) -> FitResult:
    return FitResult(params=params, ci95=ci95, rel_err=_rel_err_map(params, ci95),
                     residual_rms=residual_rms, iterations=iterations,
                     converged=True, covariance=cov, dof=dof)


def _lm_fit_result(res: LMResult, params: dict[str, float], residual_rms: float) -> FitResult:
    """Result of a converged LM fit: one covariance, ci95 on the leading params."""
    m, n = res.jacobian.shape
    cov = covariance(res)
    hw = confidence_half_widths(cov, m - n)
    ci95 = {k: float(h) for k, h in zip(params, hw)}
    return _make_result(params, ci95, residual_rms, res.iterations, cov, m - n)


def write_fit_json(path, result: FitResult) -> None:
    with open(path, "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_fit_json(path) -> FitResult:
    with open(path) as fh:
        return FitResult.from_json_dict(json.load(fh))


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
        arrays = {}
        for name in ("omega01", "gamma1", "gamma_phi", "flux", "rel_err_gamma_phi"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1:
                raise ValueError(f"{name} must be 1-d")
            arrays[name] = a
            object.__setattr__(self, name, a)
        n = arrays["omega01"].size
        if any(a.size != n for a in arrays.values()):
            raise ValueError("rate columns must have equal length")
        if not np.all(np.isfinite(arrays["omega01"])) or np.any(arrays["omega01"] <= 0):
            raise ValueError("omega01 must be finite and > 0 in every row")

    def __len__(self) -> int:
        return self.omega01.size

    def subset(self, mask: np.ndarray) -> "RateDataset":
        return RateDataset(self.omega01[mask], self.gamma1[mask], self.gamma_phi[mask],
                           self.flux[mask], self.rel_err_gamma_phi[mask])


def _write_rates_rows(fh, rates: RateDataset) -> None:
    write_csv_columns(fh, RATES_CSV_HEADER.split(","), rates.omega01, rates.gamma1,
                      rates.gamma_phi, rates.flux, rates.rel_err_gamma_phi)


def rates_to_csv(rates: RateDataset) -> str:
    buf = io.StringIO()
    _write_rates_rows(buf, rates)
    return buf.getvalue()


def rates_from_csv(text: str) -> RateDataset:
    lines = [ln for ln in text.splitlines()]
    if not lines or lines[0].strip() != RATES_CSV_HEADER:
        raise ValueError(f"line 1: expected header {RATES_CSV_HEADER!r}")
    cols: list[list[float]] = [[], [], [], [], []]
    for num, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {num}: expected 5 fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {num}: non-numeric field") from None
        # flux may be NaN (unknown) and rel_err NaN or inf (no weight)
        if not (math.isfinite(vals[1]) and math.isfinite(vals[2])):
            raise ValueError(f"line {num}: gamma1 and gamma_phi must be finite")
        for c, v in zip(cols, vals):
            c.append(v)
    if not cols[0]:
        raise ValueError("line 2: no data rows")
    try:
        return RateDataset(*[np.array(c) for c in cols])
    except ValueError as exc:
        raise ValueError(f"invalid rate table: {exc}") from None


def write_rates_csv(path, rates: RateDataset) -> None:
    with open(path, "w") as fh:
        _write_rates_rows(fh, rates)


def read_rates_csv(path) -> RateDataset:
    with open(path) as fh:
        return rates_from_csv(fh.read())


# ---------------------------------------------------------------------------
# background detrending and regime classification
# ---------------------------------------------------------------------------

def _detrend(freqs: np.ndarray, mag: np.ndarray, degree: int = 3,
             clip: float = 3.5, iters: int = 6):
    """Fit a polynomial baseline with sigma clipping to skip the feature.

    Returns (residual, noise_floor). The noise floor is the scaled median
    absolute deviation of the kept points with a small absolute floor so a
    numerically exact baseline does not declare every ripple a feature.
    """
    x = np.linspace(-1.0, 1.0, freqs.size)
    mask = np.ones(freqs.size, dtype=bool)
    resid = mag - np.median(mag)
    sigma = 0.0
    for _ in range(iters):
        coef = np.polyfit(x[mask], mag[mask], degree)
        resid = mag - np.polyval(coef, x)
        med = np.median(resid[mask])
        sigma = 1.4826 * np.median(np.abs(resid[mask] - med))
        if sigma == 0:
            break
        new_mask = np.abs(resid - med) < clip * sigma
        if new_mask.sum() < max(degree + 2, mask.size // 4):
            break
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    floor = 1e-6 * max(float(np.max(np.abs(mag))), 1e-300)
    return resid, max(float(sigma), floor)


def _smooth(y: np.ndarray) -> np.ndarray:
    n = y.size
    width = max(3, (n // 150) | 1)
    if n < 3 * width:
        return y
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

def _fold_qubit(x: np.ndarray, rabi: float) -> QubitScatterer:
    # reflective folding keeps the forward model valid at any step the
    # optimizer tries; r0 stays clear of full reflection so 1/t is tame
    return QubitScatterer(
        omega01=abs(x[0]),
        gamma1=max(abs(x[1]), 1e-3),
        gamma_phi=abs(x[2]),
        r0=min(max(abs(x[3]), 1e-6), 1 - 1e-6),
        rabi=rabi,
    )


def calibration_curve(scale_re: float, scale_im: float, phase_slope: float,
                      freqs: np.ndarray, f_ref: float) -> np.ndarray:
    """Complex calibration factor over a grid.

    The scale applies at the reference frequency and the phase slope (a
    cable delay in seconds) winds relative to it; referencing the window
    center keeps the scale and the delay nearly independent parameters.
    """
    return (scale_re + 1j * scale_im) * np.exp(-2j * np.pi * (freqs - f_ref) * phase_slope)


def spectrum_curve(template: CircuitSpec, x, rabi: float,
                   freqs: np.ndarray) -> dict[str, np.ndarray]:
    """Calibrated cross paths at the folded fit parameters x (fit_spectrum's order)."""
    model = sweep(replace(template, qubit=_fold_qubit(x, rabi)), freqs)
    cal = calibration_curve(x[4], x[5], x[6], freqs, float(np.mean(freqs)))
    return {p: model.values[p] * cal for p in CROSS_PATHS}


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
    data, so one init can serve a whole flux sweep. options may override
    the max_iter, ftol and xtol defaults of levenberg_marquardt.
    """
    opts = dict(options or {})
    unknown = set(opts) - {"max_iter", "ftol", "xtol"}
    if unknown:
        raise ValueError(f"unknown fit options: {sorted(unknown)}")

    paths = [p for p in CROSS_PATHS if p in trace.values]
    if not paths:
        raise ValueError("trace has no cross path (s12 or s34) to fit")
    freqs = trace.freqs
    if freqs.size < 20:
        raise ValueError("need at least 20 frequency points")

    template = replace(spec_template, qubit=None)
    primary = trace.cross_path()
    data = {p: np.asarray(trace.values[p], dtype=complex) for p in paths}

    rabi = init.rabi if init is not None else 0.0
    if init is not None:
        omega01_0, gamma1_0 = init.omega01, init.gamma1
        gamma_phi_0, r0_0 = init.gamma_phi, init.r0
        # a shared init cannot carry the right center for every trace of a
        # flux sweep; when it falls outside the window, start on the feature
        if not 2 * math.pi * freqs[0] <= omega01_0 <= 2 * math.pi * freqs[-1]:
            f0, _ = _feature_init(freqs, data[primary])
            omega01_0 = 2 * math.pi * f0
    else:
        f0, fwhm = _feature_init(freqs, data[primary])
        omega01_0 = 2 * math.pi * f0
        gamma1_0 = math.pi * fwhm
        gamma_phi_0 = gamma1_0 / 2
        r0_0 = 0.9

    # calibration start: compare data with the qubit-free background; the
    # line fit uses only the outer bands, away from the scatterer feature
    f_ref = float(np.mean(freqs))
    background = sweep(template, freqs).values[primary]
    ok = np.abs(background) > 1e-12
    if ok.sum() >= 4:
        ratio = data[primary][ok] / background[ok]
        rel = freqs[ok] - f_ref
        angle = np.unwrap(np.angle(ratio))
        outer = np.ones(ratio.size, dtype=bool)
        edge = max(ratio.size // 10, 2)
        if ratio.size > 2 * edge:
            outer[edge:-edge] = False
        slope = np.polyfit(rel[outer], angle[outer], 1)[0]
        delay_0 = -slope / (2 * math.pi)
        unwound = ratio * np.exp(2j * np.pi * rel * delay_0)
        pick = unwound[outer]
        scale_0 = complex(np.median(pick.real), np.median(pick.imag))
    else:
        delay_0, scale_0 = 0.0, 1.0 + 0.0j
    if abs(scale_0) < 1e-9:
        scale_0 = 1.0 + 0.0j

    x0 = np.array([omega01_0, gamma1_0, gamma_phi_0, r0_0,
                   scale_0.real, scale_0.imag, delay_0])
    x_scale = np.array([2 * math.pi * 1e9,
                        max(gamma1_0, 2 * math.pi * 1e5),
                        max(gamma_phi_0, 2 * math.pi * 1e5),
                        0.1, 0.1, 0.1, 1e-9])

    data_vec = np.concatenate([np.concatenate([data[p].real, data[p].imag]) for p in paths])

    def residual(x: np.ndarray) -> np.ndarray:
        model = spectrum_curve(template, x, rabi, freqs)
        parts = []
        for p in paths:
            diff = model[p] - data[p]
            parts.append(diff.real)
            parts.append(diff.imag)
        return np.concatenate(parts)

    res = levenberg_marquardt(residual, x0, x_scale=x_scale, **opts)
    if not res.converged:
        raise NoConvergence(
            f"spectrum fit stopped after {res.iterations} iterations, cost {res.cost:.3g}")

    qubit = _fold_qubit(res.x, rabi)
    if qubit.r0 in (1e-6, 1 - 1e-6):
        # a reflection amplitude pinned at the fold bound is an escaped fit,
        # not an estimate; its jacobian column is dead so the intervals lie
        raise NoConvergence("reflection amplitude pinned at its bound")
    params = {
        "omega01": qubit.omega01,
        "gamma1": qubit.gamma1,
        "gamma_phi": qubit.gamma_phi,
        "r0": qubit.r0,
        "scale_re": float(res.x[4]),
        "scale_im": float(res.x[5]),
        "phase_slope": float(res.x[6]),
    }
    rms = float(np.sqrt(np.mean(res.residual**2)) / max(np.sqrt(np.mean(data_vec**2)), 1e-300))
    return _lm_fit_result(res, params, rms)


# ---------------------------------------------------------------------------
# rate-model fits
# ---------------------------------------------------------------------------

def _fold_bath(x) -> BathModel:
    return BathModel(abs(x[0]), abs(x[1]), max(abs(x[2]), 1.0), abs(x[3]))


def gamma1_curve(x, w: np.ndarray) -> np.ndarray:
    """Relaxation model at the folded parameters x = (alpha, center, fwhm, height)."""
    return gamma1_model(_fold_bath(x), w)


def ou_curve(x, slopes: np.ndarray) -> np.ndarray:
    """Dephasing rate at the folded flux-noise parameters x = (sigma, kappa)."""
    return gamma_phi_rate(abs(x[0]) * slopes, abs(x[1]))


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

    alpha_0 = float(np.percentile(g / w, 25))
    bump = g - alpha_0 * w
    i0 = int(np.argmax(bump))
    height_0 = max(float(bump[i0]), 0.0)
    center_0 = float(w[i0])
    fwhm_0 = 2 * math.pi * 1.5e9

    def residual(x: np.ndarray) -> np.ndarray:
        return gamma1_curve(x, w) - g

    x0 = np.array([alpha_0, center_0, fwhm_0, height_0])
    x_scale = np.array([max(alpha_0, 1e-5), 2 * math.pi * 1e9, 2 * math.pi * 1e9,
                        max(height_0, 2 * math.pi * 1e4)])
    res = levenberg_marquardt(residual, x0, x_scale=x_scale)
    if not res.converged:
        raise NoConvergence(
            f"relaxation-model fit stopped after {res.iterations} iterations")

    params = asdict(_fold_bath(res.x))  # alpha, lorentz_center, lorentz_fwhm, lorentz_height
    rms = float(np.sqrt(np.mean(res.residual**2)) / np.sqrt(np.mean(g**2)))
    return _lm_fit_result(res, params, rms)


def _slope_rows(rates: RateDataset, transmon: TransmonParams, rel_err_max: float,
                require_positive_gamma: bool):
    """Rows usable for slope-based dephasing fits, with |domega01/dflux|."""
    keep = np.isfinite(rates.flux) & np.isfinite(rates.gamma_phi)
    keep &= rates.gamma_phi > 0 if require_positive_gamma else rates.gamma_phi >= 0
    keep &= ~(rates.rel_err_gamma_phi >= rel_err_max)
    slopes = np.abs(flux_slope(transmon, rates.flux))
    keep &= slopes > 0
    return rates.subset(keep), slopes[keep]


def fit_gamma_phi_power(rates: RateDataset, transmon: TransmonParams,
                        rel_err_max: float = REL_ERR_MAX_DEFAULT) -> FitResult:
    """Fit log gamma_phi = log A + eta*log|domega01/dflux| by weighted regression.

    Rows with rel_err_gamma_phi at or above rel_err_max are excluded. Weights
    are inverse squared relative errors when every kept row has one.
    """
    kept, slopes = _slope_rows(rates, transmon, rel_err_max, require_positive_gamma=True)
    if len(kept) < 4:
        raise IllPosed("fewer than 4 usable rows after filtering")
    if slopes.max() / slopes.min() < 10:
        raise IllPosed("flux sensitivity spans less than one decade")

    x = np.log(slopes)
    y = np.log(kept.gamma_phi)
    rel = kept.rel_err_gamma_phi
    wgt = 1.0 / rel**2 if np.all(rel > 0) else np.ones_like(y)

    sw = wgt.sum()
    swx = float(wgt @ x)
    swxx = float(wgt @ (x * x))
    swy = float(wgt @ y)
    swxy = float(wgt @ (x * y))
    det = sw * swxx - swx**2
    if det <= 0:
        raise IllPosed("degenerate flux-sensitivity design")
    eta = (sw * swxy - swx * swy) / det
    intercept = (swy - eta * swx) / sw

    resid = y - (intercept + eta * x)
    dof = len(kept) - 2
    s2 = float(wgt @ resid**2) / dof
    cov_fit = s2 / det * np.array([[swxx, -swx], [-swx, sw]])
    quantile = t_quantile(dof, 0.975)
    amplitude = math.exp(intercept)

    params = {"amplitude": amplitude, "eta": eta}
    ci95 = {"amplitude": amplitude * quantile * math.sqrt(max(cov_fit[0, 0], 0.0)),
            "eta": quantile * math.sqrt(max(cov_fit[1, 1], 0.0))}
    # propagate the log-amplitude variance onto the amplitude itself
    cov = np.array([
        [amplitude**2 * cov_fit[0, 0], amplitude * cov_fit[0, 1]],
        [amplitude * cov_fit[1, 0], cov_fit[1, 1]],
    ])
    rms = float(np.sqrt((wgt @ resid**2) / sw))
    return _make_result(params, ci95, rms, 1, cov, dof)


def _ou_sigmas(g: np.ndarray, slopes: np.ndarray, kappa: float) -> np.ndarray:
    """Per-row OU scale sigma_i with 1/e time 1/g_i: (s_i*sigma_i)^2 K(kappa, 1/g_i) = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / (slopes * np.sqrt(_phase_variance_kernel(kappa, 1.0 / g)))


def _ou_start(g: np.ndarray, slopes: np.ndarray, sqrt_w: np.ndarray):
    """Starting point for the flux-noise fit over a coarse kappa grid.

    The model has a near-degenerate valley in the motionally narrowed regime
    (only sigma^2/kappa is sharply constrained there), so each trial kappa is
    paired with the median of the per-row scales that reproduce each rate
    exactly, and the lowest-cost pair seeds the optimizer.
    """
    sigma_qs = math.sqrt(2) * float(np.median(g / slopes))
    if not sigma_qs > 0:
        return max(sigma_qs, 0.0), 0.0
    v_med = sigma_qs * float(np.median(slopes))
    best = None
    for kappa in [0.0] + [c * v_med for c in (0.3, 1.0, 3.0, 10.0, 30.0)]:
        sigma = float(np.median(_ou_sigmas(g, slopes, kappa)))
        if not sigma_qs / 100 <= sigma <= sigma_qs * 100:
            continue
        model = gamma_phi_rate(sigma * slopes, kappa)
        cost = float(np.sum(((model - g) * sqrt_w) ** 2))
        if best is None or cost < best[0]:
            best = (cost, sigma, kappa)
    if best is None:
        return sigma_qs, 0.0
    return best[1], best[2]


def fit_ou(rates: RateDataset, transmon: TransmonParams,
           rel_err_max: float = REL_ERR_MAX_DEFAULT) -> FitResult:
    """Fit the flux-noise amplitude and rate through the dephasing model.

    gamma_phi rows are weighted by their inverse variance when relative
    errors are available. Reports sigma and kappa with 95% intervals plus
    kappa_upper95, the one-sided 95% upper bound for kappa, which is the
    meaningful statement when kappa is indistinguishable from zero.
    """
    kept, slopes = _slope_rows(rates, transmon, rel_err_max, require_positive_gamma=False)
    if len(kept) < 4:
        raise IllPosed("fewer than 4 usable rows after filtering")
    if slopes.max() / slopes.min() < 1.2:
        raise IllPosed("flux sensitivity is effectively constant across rows")

    g = kept.gamma_phi
    rel = kept.rel_err_gamma_phi
    if np.all(rel > 0) and np.all(g > 0):
        sqrt_w = 1.0 / (rel * g)
    else:
        sqrt_w = np.ones_like(g)

    sigma_0, kappa_0 = _ou_start(g, slopes, sqrt_w)

    def residual(x: np.ndarray) -> np.ndarray:
        return (ou_curve(x, slopes) - g) * sqrt_w

    x0 = np.array([sigma_0, kappa_0])
    x_scale = np.array([max(sigma_0, 1e-6), max(kappa_0, 2 * math.pi * 1e6)])
    res = levenberg_marquardt(residual, x0, x_scale=x_scale)
    if not res.converged:
        raise NoConvergence(f"flux-noise fit stopped after {res.iterations} iterations")

    rms = float(np.sqrt(np.mean(res.residual**2)) /
                max(np.sqrt(np.mean((g * sqrt_w) ** 2)), 1e-300))
    result = _lm_fit_result(res, {"sigma": abs(res.x[0]), "kappa": abs(res.x[1])}, rms)
    se_kappa = result.ci95["kappa"] / t_quantile(result.dof, 0.975)
    upper = result.params["kappa"] + t_quantile(result.dof, 0.95) * se_kappa
    return replace(result, params={**result.params, "kappa_upper95": upper})
