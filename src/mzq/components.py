"""Circuit components and spectrum generation for the interferometer model.

A circuit is a five-element chain

    splitter . line . scatterer . line . splitter

where the splitter is a 50:50 quadrature element (ideal or a single-section
branch-line hybrid), the lines carry per-segment phase delay and attenuation,
and the scatterer is a driven two-level system embedded in one arm. Mode
components (0, 1) of the internal four-vector belong to arm a, components
(2, 3) to arm b.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netcore
from .netcore import SingularSystem

# Canonical path order used everywhere traces are stored or serialized.
PATHS = ("s12", "s32", "s34", "s14")
CROSS_PATHS = ("s12", "s34")
DRIVE_PORTS = (2, 4)

# Below this transmission magnitude the scatterer's transfer block is
# numerically meaningless (entries scale as 1/t).
T_DEGENERATE = 1e-9


class DegenerateScatterer(SingularSystem):
    """Raised when the two-level scatterer is fully reflecting (|t| ~ 0)."""


class TraceParseError(ValueError):
    """Raised on malformed trace files, carrying the offending line number."""


def _require_finite(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class LineParams:
    """Per-segment propagation parameters of the four internal line segments.

    phase_rate: seconds per segment; the accumulated phase is phase_rate * omega.
    attenuation: dimensionless damping exponent r >= 0 per segment; the segment
        amplitude factor is exp(-r + 1j * phase_rate * omega).

    Segments (0, 1) sit in arm a, segments (2, 3) in arm b.
    """

    phase_rate: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    attenuation: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("phase_rate", "attenuation"):
            vals = getattr(self, name)
            if len(vals) != 4:
                raise ValueError(f"{name} needs 4 entries, got {len(vals)}")
            object.__setattr__(self, name, tuple(_require_finite(v, name) for v in vals))
        if any(r < 0 for r in self.attenuation):
            raise ValueError("attenuation entries must be >= 0")


@dataclass(frozen=True)
class BeamSplitterModel:
    """Splitter model: 'ideal' (frequency independent) or 'branchline'.

    A branch-line splitter is a single-section quadrature hybrid whose arms
    are a quarter wavelength long at center_frequency (rad/s); it matches the
    ideal splitter exactly at that frequency and develops imbalance and
    leakage away from it.
    """

    kind: str = "ideal"
    center_frequency: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ideal", "branchline"):
            raise ValueError(f"unknown splitter kind {self.kind!r}")
        if self.kind == "branchline" and not 0 < self.center_frequency < math.inf:
            raise ValueError("branchline splitter needs a finite center_frequency > 0")


@dataclass(frozen=True)
class QubitScatterer:
    """Two-level scatterer parameters, angular frequencies in rad/s.

    omega01: transition frequency. gamma1: energy relaxation rate.
    gamma_phi: pure dephasing rate. r0: maximum reflection amplitude in
    (0, 1]. rabi: drive amplitude entering the saturation term.
    """

    omega01: float
    gamma1: float
    gamma_phi: float
    r0: float
    rabi: float = 0.0

    def __post_init__(self):
        _require_finite(self.omega01, "omega01")
        _require_finite(self.gamma1, "gamma1")
        _require_finite(self.gamma_phi, "gamma_phi")
        _require_finite(self.r0, "r0")
        _require_finite(self.rabi, "rabi")
        if self.omega01 <= 0:
            raise ValueError("omega01 must be > 0")
        if self.gamma1 < 0 or self.gamma_phi < 0:
            raise ValueError("rates must be >= 0")
        if self.gamma2 <= 0:
            raise ValueError("gamma1/2 + gamma_phi must be > 0")
        if not 0 < self.r0 <= 1:
            raise ValueError("r0 must be in (0, 1]")
        if self.rabi < 0:
            raise ValueError("rabi must be >= 0")
        if self.rabi > 0 and self.gamma1 == 0:
            raise ValueError("saturation term needs gamma1 > 0 when rabi > 0")

    @property
    def gamma2(self) -> float:
        """Total decoherence rate gamma1/2 + gamma_phi."""
        return self.gamma1 / 2 + self.gamma_phi


@dataclass(frozen=True)
class CircuitSpec:
    """Complete description of one interferometer configuration."""

    splitter: BeamSplitterModel
    lines: LineParams
    qubit: QubitScatterer | None = None
    qubit_arm: str = "a"
    cal_scale: complex = 1 + 0j
    cal_delay: float = 0.0

    def __post_init__(self):
        if self.qubit_arm not in ("a", "b"):
            raise ValueError("qubit_arm must be 'a' or 'b'")
        scale = complex(self.cal_scale)
        if not (math.isfinite(scale.real) and math.isfinite(scale.imag)) or scale == 0:
            raise ValueError("cal_scale must be finite and nonzero")
        object.__setattr__(self, "cal_scale", scale)
        _require_finite(self.cal_delay, "cal_delay")


@dataclass
class SpectrumTrace:
    """Complex transmission samples per measurement path.

    freqs: strictly increasing frequency grid in Hz.
    values: mapping of path name (subset of PATHS) to complex arrays.
    noise_sigma: per-quadrature standard deviation added at synthesis time.
    label: free-text tag. drive_port and flux_phi0 record how the data
    was taken.
    """

    freqs: np.ndarray
    values: dict[str, np.ndarray]
    noise_sigma: float = 0.0
    label: str = ""
    drive_port: int | None = None
    flux_phi0: float | None = None

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("freqs must be a non-empty 1-D array")
        if not np.isfinite(f).all():
            raise ValueError("freqs must be finite")
        if f.size > 1 and not np.all(np.diff(f) > 0):
            raise ValueError("freqs must be strictly increasing")
        self.freqs = f
        vals = {}
        for path, arr in self.values.items():
            if path not in PATHS:
                raise ValueError(f"unknown path {path!r}")
            a = np.asarray(arr, dtype=complex)
            if a.shape != f.shape:
                raise ValueError(f"path {path!r} has {a.shape}, expected {f.shape}")
            vals[path] = a
        if not vals:
            raise ValueError("trace needs at least one path")
        self.values = vals
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and >= 0")
        if "\r" in self.label:  # csv.writer leaves it unquoted: the CSV would not read back
            raise ValueError("label must not contain a carriage return")

    def cross_path(self) -> str:
        """Preferred cross path: the one matching drive_port when known."""
        preferred = "s34" if self.drive_port == 4 else "s12"
        if preferred in self.values:
            return preferred
        for p in CROSS_PATHS:
            if p in self.values:
                return p
        raise ValueError("trace has no cross path (s12 or s34)")


# ---------------------------------------------------------------------------
# component factories
# ---------------------------------------------------------------------------

_IDEAL_BS = np.array(
    [
        [-1j, 0, -1, 0],
        [0, 1j, 0, -1],
        [-1, 0, -1j, 0],
        [0, -1, 0, 1j],
    ],
    dtype=complex,
) / math.sqrt(2)

# exchanges the mode pairs of arm a (0, 1) and arm b (2, 3)
_ARM_SWAP = [2, 3, 0, 1]


def tl_stack(params: LineParams, omegas: np.ndarray) -> np.ndarray:
    """Line factors exp(-r_k + i*phase_rate_k*omega) of the four segments, shape (N,4)."""
    w = np.asarray(omegas, dtype=float).reshape(-1)
    return np.exp(-np.asarray(params.attenuation) + 1j * np.asarray(params.phase_rate) * w[:, None])


def _branchline_coefficients(theta: np.ndarray):
    """Even/odd-mode reflection and transmission of a branch-line hybrid.

    Normalized impedances: series arms 1/sqrt(2), shunt arms 1, ports 1.
    theta is the electrical length of every arm (pi/2 at the design point).
    """
    za = 1 / math.sqrt(2)
    half = np.tan(theta / 2)
    results = []
    for stub_y in (1j * half, -1j / half):
        # shunt stub, quarter arm, shunt stub; the half circuit is symmetric
        a = np.cos(theta) + 1j * za * np.sin(theta) * stub_y
        b = 1j * za * np.sin(theta)
        c = 1j * np.sin(theta) / za + 2 * np.cos(theta) * stub_y + b * stub_y**2
        den = 2 * a + b + c
        results.append(((b - c) / den, 2 / den))
    (gamma_e, t_e), (gamma_o, t_o) = results
    refl = (gamma_e + gamma_o) / 2
    iso = (gamma_e - gamma_o) / 2
    thru = (t_e + t_o) / 2
    cross = (t_e - t_o) / 2
    return refl, iso, thru, cross


def bs_stack(model: BeamSplitterModel, omegas: np.ndarray) -> np.ndarray:
    """Splitter transfer matrices for each frequency, shape (N,4,4).

    The ideal splitter comes back as a read-only broadcast view of one matrix.
    """
    w = np.asarray(omegas, dtype=float).reshape(-1)
    if np.any(w <= 0):
        raise ValueError("omega must be > 0")
    if model.kind == "ideal":
        return np.broadcast_to(_IDEAL_BS, (w.size, 4, 4))

    theta = (math.pi / 2) * w / model.center_frequency
    refl, iso, thru, cross = _branchline_coefficients(theta)
    delta = thru**2 - cross**2
    if np.any(np.abs(delta) < 1e-12):
        idx = int(np.argmin(np.abs(delta)))
        raise SingularSystem(
            "branch-line splitter is not invertible into transfer form",
            frequency=w[idx] / (2 * math.pi),
        )
    # rows 1 and 3 are au and its arm swap av; rows 0 and 2 follow the same swap
    zero = np.zeros_like(thru)
    au = np.array([(cross * iso - thru * refl) / delta, thru / delta,
                   (cross * refl - thru * iso) / delta, -cross / delta])
    av = au[_ARM_SWAP]
    top = refl * au + iso * av + np.array([thru, zero, cross, zero])
    return np.moveaxis(np.array([top, au, top[_ARM_SWAP], av]), -1, 0)


def _lineshape(q: QubitScatterer, w: np.ndarray):
    """Reflection r = r0 (1 - i delta) / (1 + delta^2 + s) and its terms (delta, s, den).

    delta = (w - omega01)/G2 is the scaled detuning, s = rabi^2/(gamma1 G2)
    the saturation term and den = 1 + delta^2 + s.
    """
    g2 = q.gamma2
    detune = (w - q.omega01) / g2
    sat = (q.rabi**2 / (q.gamma1 * g2)) if q.rabi > 0 else 0.0
    with np.errstate(over="ignore"):  # far off resonance den is inf and r its limit 0
        den = 1 + detune**2 + sat
    return q.r0 * (1 - 1j * detune) / den, detune, sat, den


def qubit_rt_many(q: QubitScatterer, omegas: np.ndarray):
    """Reflection and transmission amplitudes of the scatterer, vectorized."""
    r = _lineshape(q, np.asarray(omegas, dtype=float))[0]
    return r, 1 - r


def _qubit_r_and_grad(q: QubitScatterer, omegas: np.ndarray):
    """Reflection r and dr/d(omega01, gamma1, gamma_phi, r0), shapes (N,) and (N,4)."""
    r, detune, sat, den = _lineshape(q, np.asarray(omegas, dtype=float).reshape(-1))
    g2 = q.gamma2
    dr_ddetune = q.r0 * (-1j * den - 2 * detune * (1 - 1j * detune)) / den**2
    dr_dsat = -r / den
    # G2 = gamma1/2 + gamma_phi scales both delta and s; gamma1 also enters s alone
    dr_dg2 = -(dr_ddetune * detune + dr_dsat * sat) / g2
    return r, np.stack([-dr_ddetune / g2,
                        dr_dg2 / 2 - dr_dsat * sat / q.gamma1,
                        dr_dg2,
                        r / q.r0], axis=1)


def _transfer_block(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Transfer blocks (1/t) * [[t^2 - r^2, r], [-r, 1]], shape (N,2,2)."""
    return np.moveaxis(np.array([[(t**2 - r**2) / t, r / t], [-r / t, 1 / t]]), -1, 0)


def qubit_stack(q: QubitScatterer, omegas: np.ndarray) -> np.ndarray:
    """Scatterer transfer blocks at the lineshape's r, shape (N,2,2), gated on |t|."""
    w = np.asarray(omegas, dtype=float).reshape(-1)
    r, t = qubit_rt_many(q, w)
    small = np.abs(t) < T_DEGENERATE
    if np.any(small):
        idx = int(np.argmax(small))
        raise DegenerateScatterer(
            f"|t| = {abs(t[idx]):.3g} below {T_DEGENERATE:.0e}",
            frequency=w[idx] / (2 * math.pi),
        )
    return _transfer_block(r, t)


def total_matrix_stack(spec: CircuitSpec, omegas: np.ndarray,
                       r: np.ndarray | None = None) -> np.ndarray:
    """Total transfer matrix splitter.line.scatterer.line.splitter per frequency.

    The scatterer block is qubit_stack of spec.qubit, or the arm is empty.
    A given r, the scatterer's reflection per frequency, replaces spec.qubit
    and is not gated: the caller keeps |1 - r| clear of 0.

    line.scatterer.line is block diagonal: d_k^2 on the empty arm and
    d_k * Q_kl * d_l on the scatterer arm, with d the line factors and Q the
    scatterer block. It is applied to the right splitter row by row, then the
    left splitter multiplies the result. The work runs frequency-last; the
    (N,4,4) result is a view of that layout.
    """
    w = np.asarray(omegas, dtype=float).reshape(-1)
    bs = np.moveaxis(bs_stack(spec.splitter, w), 0, -1)
    d = tl_stack(spec.lines, w).T
    inner_bs = (d * d)[:, None] * bs
    if r is not None or spec.qubit is not None:
        arm = slice(0, 2) if spec.qubit_arm == "a" else slice(2, 4)
        # the unscaled block stays a temporary: a name on it would add N*64 bytes to the peak
        block = (d[arm, None]
                 * np.moveaxis(qubit_stack(spec.qubit, w) if r is None
                               else _transfer_block(r, 1 - r), 0, -1)
                 * d[None, arm])
        inner_bs[arm] = np.einsum("kln,ljn->kjn", block, bs[arm])
    return np.moveaxis(np.einsum("ikn,kjn->ijn", bs, inner_bs), -1, 0)


# ---------------------------------------------------------------------------
# spectrum generation
# ---------------------------------------------------------------------------

def sweep(spec: CircuitSpec, freqs, drive_port: int = 2, label: str = "") -> SpectrumTrace:
    """Noiseless transmission spectrum of the circuit.

    Solves the port equations at every frequency for unit drives on both
    input ports, so the trace carries all four path amplitudes; drive_port
    records which port is the primary probe (it selects the default path for
    classification and fitting downstream).

    Args:
        spec: circuit description.
        freqs: strictly increasing frequency grid in Hz.
        drive_port: 2 or 4.
        label: free-text tag stored on the trace.

    Raises:
        SingularSystem: degenerate model (DegenerateScatterer for a fully
            reflecting scatterer), with the offending frequency attached.
    """
    if drive_port not in DRIVE_PORTS:
        raise ValueError("drive_port must be 2 or 4")
    f = np.asarray(freqs, dtype=float).reshape(-1)
    if f.size == 0 or (f.size > 1 and not np.all(np.diff(f) > 0)):
        raise ValueError("freqs must be non-empty and strictly increasing")
    if np.any(f <= 0):
        raise ValueError("freqs must be positive")
    w = 2 * math.pi * f
    totals = total_matrix_stack(spec, w)
    x = netcore.solve_port_system_many(totals, frequencies=f)
    return SpectrumTrace(freqs=f, values=_calibrated_paths(spec, w, x, PATHS), noise_sigma=0.0,
                         label=label, drive_port=drive_port)


# the port-solution entry of each path: (output row, drive column)
_PATH_ENTRY = {"s12": (0, 0), "s32": (1, 0), "s34": (1, 1), "s14": (0, 1)}


def _calibrated_paths(spec: CircuitSpec, w: np.ndarray, x: np.ndarray,
                      paths) -> dict[str, np.ndarray]:
    """The named paths of the port solutions x, times spec's calibration."""
    cal = spec.cal_scale * np.exp(-1j * w * spec.cal_delay)
    return {p: x[:, i, j] * cal for p in paths for i, j in [_PATH_ENTRY[p]]}


def _reflection_embedding(spec: CircuitSpec, freqs: np.ndarray, paths):
    """spec's calibrated paths as a function of its scatterer's reflection r.

    The scatterer block depends on r alone, and per frequency
    (1 - r) M(r) = A + r B, with M the total transfer matrix. A is the
    total at r = 0 and B follows from one more build at r = 1/2, both by
    total_matrix_stack. Returns solve_at(r): the paths of
    M(r) through the gated port solve, which are sweep's values for a
    scatterer that reflects r, to rounding. r is not gated on |t|: the
    caller keeps |1 - r| clear of 0.
    """
    f = np.asarray(freqs, dtype=float).reshape(-1)
    w = 2 * math.pi * f
    a_tot = total_matrix_stack(spec, w, np.zeros(w.size))
    b_tot = total_matrix_stack(spec, w, np.full(w.size, 0.5)) - 2 * a_tot

    def solve_at(r: np.ndarray) -> dict[str, np.ndarray]:
        totals = (a_tot + r[:, None, None] * b_tot) / (1 - r)[:, None, None]
        return _calibrated_paths(spec, w, netcore.solve_port_system_many(totals, frequencies=f),
                                 paths)

    return solve_at


def synthesize(spec: CircuitSpec, freqs, drive_port: int = 2, noise_sigma: float = 0.0,
               seed: int = 0, label: str = "") -> SpectrumTrace:
    """Sweep plus additive complex Gaussian noise, deterministic under seed.

    noise_sigma is the standard deviation applied independently to the real
    and imaginary part of every sample. A fresh generator is created per
    call, so identical arguments give bit-identical traces.
    """
    if not math.isfinite(noise_sigma) or noise_sigma < 0:
        raise ValueError("noise_sigma must be finite and >= 0")
    trace = sweep(spec, freqs, drive_port=drive_port, label=label)
    rng = np.random.default_rng(seed)
    n = trace.freqs.size
    for path in PATHS:
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        trace.values[path] = trace.values[path] + noise_sigma * noise
    trace.noise_sigma = noise_sigma
    return trace


def make_interferometer(center_hz: float = 5.746e9, qubit: QubitScatterer | None = None,
                        qubit_arm: str = "a", splitter_kind: str = "ideal") -> CircuitSpec:
    """Convenience circuit with full cross transmission at center_hz.

    With ideal splitters the arm opposite the scatterer is longer by one
    fringe period (delay 1/(2*center_hz) per segment) and the scatterer arm
    is attenuated, which reproduces the measured progression of line shapes:
    asymmetric peak-dip below center, symmetric dip near center, mirrored
    asymmetry above. With branch-line splitters the arms are left equal and
    the hybrids supply the frequency dependence.
    """
    if splitter_kind == "ideal":
        splitter = BeamSplitterModel(kind="ideal")
        d = 1 / (2 * center_hz)
        if qubit_arm == "a":
            lines = LineParams(phase_rate=(0.0, 0.0, d, d),
                               attenuation=(0.35, 0.35, 0.0, 0.0))
        else:
            lines = LineParams(phase_rate=(d, d, 0.0, 0.0),
                               attenuation=(0.0, 0.0, 0.35, 0.35))
    else:
        splitter = BeamSplitterModel(kind="branchline",
                                     center_frequency=2 * math.pi * center_hz)
        lines = LineParams()
    return CircuitSpec(splitter=splitter, lines=lines, qubit=qubit, qubit_arm=qubit_arm)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CSV_HEADER = ("freq_hz", "re", "im", "path", "label")


def write_csv_columns(fh, header, *columns) -> None:
    """Write a header row (unless None), then equal-length columns as CSV rows.

    A float array is written with 17 significant digits, enough to round-trip
    float64 exactly, spelled as format(float(x), ".17g") spells it (nan, inf,
    -0). A str is repeated on every row; any other column is written as given.

    A block of only float arrays and strs is rendered from one row template:
    csv.writer quotes each str once, each float field is %.17g, and a single %
    fills the template repeated once per row. A block with any other column
    (ints, a list of str) goes through csv.writer row by row. Columns of
    unequal length raise ValueError before anything is written.
    """
    lengths = {len(c) for c in columns if not isinstance(c, str)}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    writer = csv.writer(fh, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    is_float = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    if any(is_float) and all(f or isinstance(c, str) for c, f in zip(columns, is_float)):
        template = io.StringIO()
        csv.writer(template, lineterminator="\n").writerow(
            ["%.17g" if f else c.replace("%", "%%") for c, f in zip(columns, is_float)])
        floats = np.column_stack([c for c, f in zip(columns, is_float) if f])
        fh.write((template.getvalue() * rows) % tuple(floats.ravel().tolist()))
        return
    writer.writerows(zip(*([c] * rows if isinstance(c, str)
                           else map("{:.17g}".format, c.tolist()) if f else c
                           for c, f in zip(columns, is_float))))


def _csv_rows(text: str):
    """Yield (line, row): the 1-based physical line each record starts on.

    A quoted field may span lines, so a record starts one line after the
    last line of the record before it.
    """
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as err:  # e.g. a field over csv's size limit
        raise TraceParseError(f"line {reader.line_num}: {err}") from None


def trace_from_csv(text: str) -> SpectrumTrace:
    """Parse CSV produced by write_trace_csv; errors carry the 1-based line number."""
    reader = _csv_rows(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise TraceParseError("line 1: empty trace file") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise TraceParseError(f"line 1: expected header {','.join(CSV_HEADER)}")
    freqs: dict[str, list[float]] = {}
    vals: dict[str, list[complex]] = {}
    label = None
    for lineno, row in reader:
        if not row:
            continue
        if len(row) != 5:
            raise TraceParseError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            f = float(row[0])
            re_part = float(row[1])
            im_part = float(row[2])
        except ValueError as err:
            raise TraceParseError(f"line {lineno}: {err}") from None
        if not (math.isfinite(f) and math.isfinite(re_part) and math.isfinite(im_part)):
            raise TraceParseError(f"line {lineno}: non-finite number")
        path = row[3]
        if path not in PATHS:
            raise TraceParseError(f"line {lineno}: unknown path {path!r}")
        if label is None:
            label = row[4]
        elif row[4] != label:
            raise TraceParseError(f"line {lineno}: inconsistent label {row[4]!r}")
        freqs.setdefault(path, []).append(f)
        vals.setdefault(path, []).append(complex(re_part, im_part))
    if not freqs:
        raise TraceParseError("line 2: no data rows")
    grids = [np.asarray(g) for g in freqs.values()]
    for g in grids[1:]:
        if g.shape != grids[0].shape or not np.array_equal(g, grids[0]):
            raise TraceParseError("paths disagree on the frequency grid")
    return SpectrumTrace(
        freqs=grids[0],
        values={p: np.asarray(v) for p, v in vals.items()},
        label=label or "",
    )


def write_trace_csv(path: str | Path, trace: SpectrumTrace) -> None:
    """Write a trace as CSV (freq_hz,re,im,path,label), one path block at a time."""
    with open(path, "w") as fh:
        write_csv_columns(fh, CSV_HEADER)
        for p in PATHS:
            if p in trace.values:
                vals = trace.values[p]
                write_csv_columns(fh, None, trace.freqs, vals.real, vals.imag, p, trace.label)


# ---------------------------------------------------------------------------
# typed reads of JSON values, shared by run configs and trace documents
# ---------------------------------------------------------------------------

_REQUIRED = object()


class ConfigError(ValueError):
    """Raised for a JSON value of the wrong type or range, naming where it sits."""


def _is_number(v) -> bool:
    """A JSON number: a finite int or float, not a bool. Never raises, also on 10**330."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _check_keys(obj, where: str, allowed: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _read(parent: dict, key: str, where: str, default, accepts, expected: str,
          choices=None, minimum=None, strict=False):
    """parent[key], refused unless accepts(it), in choices and >= (or > if strict) minimum.

    An absent key reads as default, and so does a null where default is None;
    a key whose default is _REQUIRED must be present.
    """
    val = parent.get(key)
    if key not in parent or (val is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    if not accepts(val):
        raise ConfigError(f"{where}.{key}: expected {expected}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{where}.{key}: expected one of {sorted(choices)}")
    if minimum is not None and (val < minimum or (strict and val == minimum)):
        raise ConfigError(f"{where}.{key}: must be {'>' if strict else '>='} {minimum}")
    return val


def _obj(parent: dict, key: str, where: str, default=_REQUIRED) -> dict | None:
    """An object, or None for null; _check_keys refuses anything else where its keys are read."""
    return _read(parent, key, where, default, lambda v: True, "an object")


def _num(parent: dict, key: str, where: str, default=_REQUIRED, **limits) -> float | None:
    val = _read(parent, key, where, default, _is_number, "a finite number", **limits)
    return None if val is None else float(val)


def _int(parent: dict, key: str, where: str, default=_REQUIRED, **limits) -> int | None:
    return _read(parent, key, where, default, lambda v: type(v) is int, "an integer", **limits)


def _str(parent: dict, key: str, where: str, default=_REQUIRED, choices=None) -> str:
    return _read(parent, key, where, default, lambda v: isinstance(v, str), "a string", choices)


def trace_from_json(text: str) -> SpectrumTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise TraceParseError(f"line {err.lineno}: {err.msg}") from None

    def numbers(obj: dict, key: str, where: str = "") -> np.ndarray:
        a = np.asarray(obj[key])
        if a.dtype.kind not in "iuf":  # strings, bools and nulls are not samples
            raise ValueError(f"{where}{key} must be a list of numbers")
        return a.astype(float)

    try:
        freqs = numbers(doc, "freq_hz")
        values = {}
        if not isinstance(doc["paths"], dict):
            raise ValueError(f"paths must be an object, got {type(doc['paths']).__name__}")
        for p, d in doc["paths"].items():
            if not isinstance(d, dict):
                raise ValueError(f"path {p!r} must be an object, got {type(d).__name__}")
            re, im = numbers(d, "re", f"path {p!r}: "), numbers(d, "im", f"path {p!r}: ")
            if not re.shape == im.shape == freqs.shape:
                raise ValueError(f"path {p!r}: re, im and freq_hz differ in length")
            values[p] = re + 1j * im
            if not np.isfinite(values[p]).all():
                raise ValueError(f"path {p!r} has a non-finite sample")
        return SpectrumTrace(
            freqs=freqs,
            values=values,
            noise_sigma=_num(doc, "noise_sigma", "trace", default=0.0, minimum=0),
            label=_str(doc, "label", "trace", default=""),
            drive_port=_int(doc, "drive_port", "trace", default=None, choices=DRIVE_PORTS),
            flux_phi0=_num(doc, "flux_phi0", "trace", default=None),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise TraceParseError(f"bad trace document: {err}") from None


def _json_floats(values: np.ndarray, depth: int) -> str:
    """A non-empty float array as json.dump(indent=1) lays it out at this depth."""
    fmt = float.__repr__ if np.isfinite(values).all() else json.dumps  # NaN, Infinity
    pad = "\n" + " " * depth
    return "[" + pad + " " + ("," + pad + " ").join(map(fmt, values.tolist())) + pad + "]"


def write_trace_json(path: str | Path, trace: SpectrumTrace) -> None:
    """JSON mirror of the CSV format, including synthesis metadata.

    The bytes are those of json.dump(doc, fh, indent=1); each float list is
    rendered by one float.__repr__ join, which the indenting encoder (pure
    Python) would do one float at a time.
    """
    head = {"label": trace.label, "noise_sigma": trace.noise_sigma,
            "drive_port": trace.drive_port, "flux_phi0": trace.flux_phi0}
    paths = [
        f'  "{p}": {{\n   "re": {_json_floats(trace.values[p].real, 3)},\n'
        f'   "im": {_json_floats(trace.values[p].imag, 3)}\n  }}'
        for p in PATHS if p in trace.values
    ]
    with open(path, "w") as fh:
        fh.write("{\n" + "".join(f" {json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items()))
        fh.write(f' "freq_hz": {_json_floats(trace.freqs, 1)},\n "paths": {{\n')
        fh.write(",\n".join(paths) + "\n }\n}")


def read_trace(path: str | Path) -> SpectrumTrace:
    """Load a trace from .csv or .json by extension."""
    p = Path(path)
    parse = trace_from_json if p.suffix.lower() == ".json" else trace_from_csv
    return parse(p.read_text())

