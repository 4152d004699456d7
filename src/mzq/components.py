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
from dataclasses import dataclass, fields, replace
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

# Frequencies per block of the large-N loops (sweep and the trace writers):
# their working memory is set by one block, not by the grid.
BLOCK_POINTS = 8192


class DegenerateScatterer(SingularSystem):
    """Raised when the two-level scatterer is fully reflecting (|t| ~ 0)."""


class TraceParseError(ValueError):
    """Raised on a malformed input file, naming the offending line where there is one."""


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
        for f in fields(self):
            vals = getattr(self, f.name)
            if len(vals) != 4:
                raise ValueError(f"{f.name} needs 4 entries, got {len(vals)}")
            object.__setattr__(self, f.name, tuple(_require_finite(v, f.name) for v in vals))
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
        for f in fields(self):
            _require_finite(getattr(self, f.name), f.name)
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


def _check_label(label: str) -> str:  # the label, refused where a trace file cannot hold it
    if "\r" in label:  # csv.writer leaves it unquoted: the CSV would not read back
        raise ValueError("label must not contain a carriage return")
    try:  # both trace files are UTF-8, which cannot hold a lone surrogate
        label.encode()
    except UnicodeEncodeError:
        raise ValueError("label must encode as UTF-8") from None
    return label


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
        if not np.all(f[1:] > f[:-1]):  # np.diff would overflow across a span over 1.8e308
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
        _check_label(self.label)
        if self.drive_port not in (None, *DRIVE_PORTS):
            raise ValueError("drive_port must be None, 2 or 4")

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
    """Line factors exp(-r_k + i*phase_rate_k*omega) of the four segments, shape (4,N)."""
    w = np.asarray(omegas, dtype=float).reshape(-1)
    return np.exp(-np.asarray(params.attenuation)[:, None]
                  + 1j * np.asarray(params.phase_rate)[:, None] * w)


def _branchline_coefficients(theta: np.ndarray):
    """Even/odd-mode reflection and transmission of a branch-line hybrid.

    Normalized impedances: series arms 1/sqrt(2), shunt arms 1, ports 1.
    theta is the electrical length of every arm (pi/2 at the design point).
    """
    za = 1 / math.sqrt(2)
    half = np.tan(theta / 2)
    cos, sin = np.cos(theta), np.sin(theta)
    b = 1j * za * sin
    results = []
    for stub_y in (1j * half, -1j / half):
        # shunt stub, quarter arm, shunt stub; the half circuit is symmetric
        a = cos + b * stub_y
        c = 1j * sin / za + 2 * cos * stub_y + b * stub_y**2
        den = 2 * a + b + c
        results.append(((b - c) / den, 2 / den))
    (gamma_e, t_e), (gamma_o, t_o) = results
    refl = (gamma_e + gamma_o) / 2
    iso = (gamma_e - gamma_o) / 2
    thru = (t_e + t_o) / 2
    cross = (t_e - t_o) / 2
    return refl, iso, thru, cross


def bs_stack(model: BeamSplitterModel, omegas: np.ndarray) -> np.ndarray:
    """Splitter transfer matrices for each frequency, shape (4,4,N).

    The ideal splitter comes back as a read-only broadcast view of one matrix.
    """
    w = np.asarray(omegas, dtype=float).reshape(-1)
    if np.any(w <= 0):
        raise ValueError("omega must be > 0")
    if model.kind == "ideal":
        return np.broadcast_to(_IDEAL_BS[..., None], (4, 4, w.size))

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
    return np.array([top, au, top[_ARM_SWAP], av])


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


def _qubit_r_and_grad(q: QubitScatterer, omegas: np.ndarray):
    """r (N,) and dr/d(omega01, gamma1, gamma_phi, r0) (N,4): the fitted fields, in field order."""
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


def _transmission(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """t = 1 - r per frequency, refused at the first |t| below T_DEGENERATE."""
    t = 1 - r
    small = np.abs(t) < T_DEGENERATE
    if np.any(small):
        idx = int(np.argmax(small))
        raise DegenerateScatterer(f"|t| = {abs(t[idx]):.3g} below {T_DEGENERATE:.0e}",
                                  frequency=w[idx] / (2 * math.pi))
    return t


def qubit_stack(r: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Blocks (1/t) [[t^2 - r^2, r], [-r, 1]] of a scatterer reflecting r, t = _transmission."""
    t = _transmission(r, np.asarray(omegas, dtype=float).reshape(-1))
    return np.array([[(t**2 - r**2) / t, r / t], [-r / t, 1 / t]])


def total_matrix_stack(spec: CircuitSpec, omegas: np.ndarray,
                       r: np.ndarray | None = None) -> np.ndarray:
    """Total transfer matrix splitter.line.scatterer.line.splitter per frequency.

    The scatterer block is qubit_stack of r, the scatterer's reflection per
    frequency, which is _lineshape(spec.qubit, w)[0] when r is not given; with
    neither the arm is empty.

    line.scatterer.line is block diagonal: d_k^2 on the empty arm and
    d_k * Q_kl * d_l on the scatterer arm, with d the line factors and Q the
    scatterer block. It is applied to the right splitter row by row, then the
    left splitter multiplies the result. Shape (4,4,N).
    """
    w = np.asarray(omegas, dtype=float).reshape(-1)
    bs = bs_stack(spec.splitter, w)
    d = tl_stack(spec.lines, w)
    inner_bs = (d * d)[:, None] * bs
    if r is None and spec.qubit is not None:
        r = _lineshape(spec.qubit, w)[0]
    if r is not None:
        arm = slice(0, 2) if spec.qubit_arm == "a" else slice(2, 4)
        # the unscaled block stays a temporary: a name on it would add N*64 bytes to the peak
        block = d[arm, None] * qubit_stack(r, w) * d[None, arm]
        inner_bs[arm] = np.einsum("kln,ljn->kjn", block, bs[arm])
    return np.einsum("ikn,kjn->ijn", bs, inner_bs)


# ---------------------------------------------------------------------------
# spectrum generation
# ---------------------------------------------------------------------------

def sweep(spec: CircuitSpec, freqs, drive_port: int = 2, label: str = "") -> SpectrumTrace:
    """Noiseless transmission spectrum of the circuit.

    Solves the port equations at every frequency for unit drives on both
    input ports, so the trace carries all four path amplitudes; drive_port
    records which port is the primary probe (it selects the default path for
    classification and fitting downstream).

    The output trace is built first, so SpectrumTrace refuses a bad grid,
    drive port or label before any solve. Its four path arrays are then
    filled in blocks of BLOCK_POINTS frequencies (build, solve, calibrate),
    so the working memory beyond the output is one block's; the values are
    those of one whole-grid pass, bit for bit. The gates run block by block:
    where gates fail in two blocks, the lower block's is raised. The lowest
    frequency sits in block 0, so bs_stack refuses a nonpositive grid there.

    Args:
        spec: circuit description.
        freqs: strictly increasing frequency grid in Hz.
        drive_port: 2 or 4.
        label: free-text tag stored on the trace.

    Raises:
        SingularSystem: degenerate model (DegenerateScatterer for a fully
            reflecting scatterer), with the offending frequency attached.
    """
    f = np.asarray(freqs, dtype=float).reshape(-1)
    trace = SpectrumTrace(freqs=f, values={p: np.empty(f.size, dtype=complex) for p in PATHS},
                          label=label, drive_port=drive_port)
    w = 2 * math.pi * f
    for start in range(0, f.size, BLOCK_POINTS):
        blk = slice(start, start + BLOCK_POINTS)
        x = netcore.solve_port_system_many(total_matrix_stack(spec, w[blk]), frequencies=f[blk])
        for p, v in _calibrated_paths(spec, w[blk], x, PATHS).items():
            trace.values[p][blk] = v
    return trace


# the port-solution entry of each path: (output row, drive column)
_PATH_ENTRY = {"s12": (0, 0), "s32": (1, 0), "s34": (1, 1), "s14": (0, 1)}


def _calibrated_paths(spec: CircuitSpec, w: np.ndarray, x: np.ndarray,
                      paths) -> dict[str, np.ndarray]:
    """The named paths of the port solutions x, times spec's calibration."""
    cal = spec.cal_scale * np.exp(-1j * w * spec.cal_delay)
    return {p: x[i, j] * cal for p in paths for i, j in [_PATH_ENTRY[p]]}


def _reflection_embedding(spec: CircuitSpec, freqs: np.ndarray, paths):
    """spec's calibrated paths as a function of its scatterer's reflection r.

    The scatterer block depends on r alone, and per frequency
    (1 - r) M(r) = A + r B, with M the total transfer matrix. A is the
    total at r = 0 and B follows from one more build at r = 1/2, both by
    total_matrix_stack. Returns solve_at(r): the paths of
    M(r) through both of sweep's gates, |1 - r| (_transmission) and the
    port solve's condition, which are sweep's values for a scatterer that
    reflects r, to rounding.
    """
    f = np.asarray(freqs, dtype=float).reshape(-1)
    w = 2 * math.pi * f
    a_tot = total_matrix_stack(spec, w, np.zeros(w.size))
    b_tot = total_matrix_stack(spec, w, np.full(w.size, 0.5)) - 2 * a_tot

    def solve_at(r: np.ndarray) -> dict[str, np.ndarray]:
        totals = (a_tot + r * b_tot) / _transmission(r, w)
        return _calibrated_paths(spec, w, netcore.solve_port_system_many(totals, frequencies=f),
                                 paths)

    return solve_at


def synthesize(spec: CircuitSpec, freqs, drive_port: int = 2, noise_sigma: float = 0.0,
               seed: int = 0, label: str = "") -> SpectrumTrace:
    """Sweep plus additive complex Gaussian noise, deterministic under seed.

    noise_sigma is the standard deviation applied independently to the real
    and imaginary part of every sample. A fresh generator is created per
    call, so identical arguments give bit-identical traces. The noisy trace
    is a replace of sweep's, so SpectrumTrace refuses a bad noise_sigma.
    """
    trace = sweep(spec, freqs, drive_port=drive_port, label=label)
    rng = np.random.default_rng(seed)
    n = trace.freqs.size
    noisy = {p: v + noise_sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
             for p, v in trace.values.items()}
    return replace(trace, values=noisy, noise_sigma=noise_sigma)


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


def write_csv_columns(fh, *columns) -> None:
    """Write equal-length columns as CSV rows.

    A column is a float array, written with 17 significant digits, enough to
    round-trip float64 exactly, spelled as format(float(x), ".17g") spells it
    (nan, inf, -0), or a str, repeated on every row. Any other column raises
    TypeError, and columns of unequal length raise ValueError, before
    anything is written.

    Every block is rendered from one row template: csv.writer quotes each str
    once, each float field is %.17g, and a single % fills the template
    repeated once per row, for at most BLOCK_POINTS rows at a time, so the
    memory it takes is set by that block and the bytes are those of one fill.
    """
    floats = [c for c in columns if not isinstance(c, str)]
    for c in floats:
        if not (isinstance(c, np.ndarray) and c.dtype.kind == "f"):
            raise TypeError(f"a CSV column is a float array or a str, not {c!r:.40}")
    lengths = {len(c) for c in floats}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    template = io.StringIO()
    csv.writer(template, lineterminator="\n").writerow(
        [c.replace("%", "%%") if isinstance(c, str) else "%.17g" for c in columns])
    for start in range(0, lengths.pop() if lengths else 0, BLOCK_POINTS):
        block = np.column_stack([c[start:start + BLOCK_POINTS] for c in floats])
        fh.write((template.getvalue() * len(block)) % tuple(block.ravel().tolist()))


def write_csv(path: str | Path, header, *blocks) -> None:
    """Write a CSV file: the header row, then each block, a tuple of write_csv_columns' columns."""
    with open(path, "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for columns in blocks:
            write_csv_columns(fh, *columns)


def write_json(path: str | Path, doc) -> None:
    """Write doc as strict JSON: indent 2, keys sorted, no NaN or infinity, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_utf8(path: str | Path) -> str:
    """A file's text decoded as UTF-8; otherwise refused at the line of its first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:  # one decode of the whole file: err.object is its bytes
        line = err.object.count(b"\n", 0, err.start) + 1
        raise TraceParseError(f"line {line}: not UTF-8 text") from None


def _unique_keys(pairs: list) -> dict:
    if len(doc := dict(pairs)) < len(pairs):
        keys = [k for k, _ in pairs]
        raise TraceParseError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def parse_json(text: str):
    """A JSON text's value; a syntax error names its line; deep nesting and repeated keys raise."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise TraceParseError(f"line {err.lineno}: {err.msg}") from None
    except RecursionError:
        raise TraceParseError("JSON nested too deeply") from None


def csv_table(text: str, header):
    """Yield (line, row) for each data row of a CSV table whose line 1 is header.

    A record starts one line after the last line of the one before (a quoted
    field may span lines). Header fields are compared after stripping spaces;
    empty lines are skipped, and at least one row of len(header) fields follows.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        if tuple(h.strip() for h in next(reader, ())) != tuple(header):
            raise TraceParseError(f"line 1: expected header {','.join(header)}")
        width, start, rows = len(header), reader.line_num + 1, 0
        for row in reader:
            if row:
                if len(row) != width:
                    raise TraceParseError(f"line {start}: expected {width} fields, got {len(row)}")
                rows += 1
                yield start, row
            start = reader.line_num + 1
    except csv.Error as err:  # e.g. a field over csv's size limit
        raise TraceParseError(f"line {reader.line_num}: {err}") from None
    if not rows:
        raise TraceParseError("line 2: no data rows")


def trace_from_csv(text: str) -> SpectrumTrace:
    """Parse CSV produced by write_trace_csv; errors carry the 1-based line number."""
    freqs: dict[str, list[float]] = {}
    vals: dict[str, list[complex]] = {}
    label = None
    for lineno, row in csv_table(text, CSV_HEADER):
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
    write_csv(path, CSV_HEADER, *((trace.freqs, trace.values[p].real, trace.values[p].imag, p,
                                   trace.label) for p in PATHS if p in trace.values))


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
    doc = parse_json(text)

    def numbers(obj: dict, key: str, where: str = "") -> np.ndarray:
        a = np.asarray(obj[key])
        # strings, bools and nulls are not samples; numpy reads a bool among numbers as 0 or 1
        if a.dtype.kind not in "iuf" or (a.ndim == 1 and bool in map(type, obj[key])):
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


def _write_floats(fh, values: np.ndarray, depth: int) -> None:
    """Write a non-empty float array as json.dump(indent=1) lays it out at this depth.

    Each block of BLOCK_POINTS values is one flat json.dumps (its C encoder)
    with the indent in the separator; the same separator joins the blocks.
    """
    pad = "\n" + " " * depth
    sep = "," + pad + " "
    fh.write("[" + pad + " ")
    for start in range(0, values.size, BLOCK_POINTS):
        flat = json.dumps(values[start:start + BLOCK_POINTS].tolist(), separators=(sep, ":"))
        fh.write((sep if start else "") + flat[1:-1])
    fh.write(pad + "]")


def write_trace_json(path: str | Path, trace: SpectrumTrace) -> None:
    """JSON mirror of the CSV format, including synthesis metadata.

    The bytes are those of json.dump(doc, fh, indent=1), where the indenting
    encoder (pure Python) goes one float at a time. The document is never
    built: each float list streams to the file a block at a time
    (_write_floats), so the memory it takes is set by the block, not the trace.
    """
    head = {"label": trace.label, "noise_sigma": trace.noise_sigma,
            "drive_port": trace.drive_port, "flux_phi0": trace.flux_phi0}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + "".join(f" {json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items()))
        fh.write(' "freq_hz": ')
        _write_floats(fh, trace.freqs, 1)
        fh.write(',\n "paths": {')
        for k, p in enumerate(p for p in PATHS if p in trace.values):
            fh.write(("," if k else "") + f'\n  "{p}": {{\n   "re": ')
            _write_floats(fh, trace.values[p].real, 3)
            fh.write(',\n   "im": ')
            _write_floats(fh, trace.values[p].imag, 3)
            fh.write("\n  }")
        fh.write("\n }\n}")


def read_trace(path: str | Path) -> SpectrumTrace:
    """Load a trace from .csv or .json by extension; bytes that are not UTF-8 name their line."""
    parse = trace_from_json if Path(path).suffix.lower() == ".json" else trace_from_csv
    return parse(read_utf8(path))

