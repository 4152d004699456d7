"""Slow reference implementations the test suite checks the library against.

Everything here is written for transparency, not speed: straight loops,
textbook elimination, and a stochastic simulation with exact one-step
updates. Production code must agree with these within stated tolerances.
"""
import cmath
import csv
import io
import json
import math
from decimal import Decimal, localcontext

import numpy as np

from mzq import netcore
from mzq.components import (CSV_HEADER, PATHS, _IDEAL_BS, _branchline_coefficients,
                            _lineshape, total_matrix_stack)
from mzq.estimate import RATES_CSV_HEADER
from mzq.leastsq import SQRT_EPS
from mzq.netcore import SingularSystem


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            acc = 0j
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def splitter_stack_oracle(model, omegas: np.ndarray) -> np.ndarray:
    """Splitter matrices, shape (N,4,4), with the branch-line rows filled column by column."""
    w = np.asarray(omegas, dtype=float).reshape(-1)
    if np.any(w <= 0):
        raise ValueError("omega must be > 0")
    if model.kind == "ideal":
        return np.broadcast_to(_IDEAL_BS, (w.size, 4, 4)).copy()

    theta = (math.pi / 2) * w / model.center_frequency
    refl, iso, thru, cross = _branchline_coefficients(theta)
    delta = thru**2 - cross**2
    if np.any(np.abs(delta) < 1e-12):
        idx = int(np.argmin(np.abs(delta)))
        raise SingularSystem(
            "branch-line splitter is not invertible into transfer form",
            frequency=w[idx] / (2 * math.pi),
        )
    au = np.empty((w.size, 4), dtype=complex)
    av = np.empty_like(au)
    au[:, 0] = (cross * iso - thru * refl) / delta
    au[:, 1] = thru / delta
    au[:, 2] = (cross * refl - thru * iso) / delta
    au[:, 3] = -cross / delta
    av[:, 0] = au[:, 2]
    av[:, 1] = au[:, 3]
    av[:, 2] = au[:, 0]
    av[:, 3] = au[:, 1]

    out = np.empty((w.size, 4, 4), dtype=complex)
    out[:, 1, :] = au
    out[:, 3, :] = av
    for col in range(4):
        out[:, 0, col] = refl * au[:, col] + iso * av[:, col]
        out[:, 2, col] = iso * au[:, col] + refl * av[:, col]
    out[:, 0, 0] += thru
    out[:, 0, 2] += cross
    out[:, 2, 0] += cross
    out[:, 2, 2] += thru
    return out


def transfer_chain_oracle(spec, omegas: np.ndarray) -> np.ndarray:
    """splitter.line.scatterer.line.splitter from five explicit 4x4 factors.

    Per frequency the line is a full diagonal matrix and the scatterer the
    identity with its 2x2 transfer block written into the occupied arm; the
    chain is multiplied left to right with matmul_oracle.
    """
    w = np.asarray(omegas, dtype=float).reshape(-1)
    out = np.empty((w.size, 4, 4), dtype=complex)
    for i, (omega, splitter) in enumerate(zip(w, splitter_stack_oracle(spec.splitter, w))):
        line = np.diag([cmath.exp(complex(-att, rate * omega))
                        for att, rate in zip(spec.lines.attenuation, spec.lines.phase_rate)])
        scatterer = np.eye(4, dtype=complex)
        if spec.qubit is not None:
            r = complex(_lineshape(spec.qubit, np.array([omega]))[0][0])
            t = 1 - r
            lo = 0 if spec.qubit_arm == "a" else 2
            scatterer[lo:lo + 2, lo:lo + 2] = [[(t * t - r * r) / t, r / t], [-r / t, 1 / t]]
        total = splitter
        for factor in (line, scatterer, line, splitter):
            total = matmul_oracle(total, factor)
        out[i] = total
    return out


def sweep_whole_grid_oracle(spec, freqs: np.ndarray) -> dict[str, np.ndarray]:
    """sweep's calibrated paths in one pass over the whole grid.

    One (4,4,N) stack of totals, one gated port solve of all N and the four
    path entries times the calibration: the gates see every frequency at
    once, in the order splitter, scatterer, port condition.
    """
    f = np.asarray(freqs, dtype=float).reshape(-1)
    w = 2 * math.pi * f
    x = netcore.solve_port_system_many(total_matrix_stack(spec, w), frequencies=f)
    # not cal_scale * exp(...): numpy computes that product in place on a temporary of 256 kB
    # or more, and its in-place complex-scalar loop rounds differently in the last bit
    cal = np.multiply(spec.cal_scale, np.exp(-1j * w * spec.cal_delay))
    entries = {"s12": (0, 0), "s32": (1, 0), "s34": (1, 1), "s14": (0, 1)}
    return {p: x[i, j] * cal for p, (i, j) in entries.items()}


def solve_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting for a square system."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def port_solution_oracle(total: np.ndarray, a4_in: complex, a2_in: complex) -> np.ndarray:
    """Solve the four outgoing amplitudes straight from the mode relation.

    The defining relation maps (a4_in, a4_out, a2_in, a2_out) to
    (a1_out, a1_in, a3_out, a3_in) with a1_in = a3_in = 0. The linear system
    in the unknowns u = (a1_out, a3_out, a4_out, a2_out) is built numerically
    by probing the relation on unit vectors, then eliminated.
    """
    total = np.asarray(total, dtype=complex)

    def gap(u):
        a1_out, a3_out, a4_out, a2_out = u
        right = np.array([a4_in, a4_out, a2_in, a2_out], dtype=complex)
        left = np.array([a1_out, 0.0, a3_out, 0.0], dtype=complex)
        return total @ right - left

    rhs = -gap(np.zeros(4, dtype=complex))
    cols = [gap(e) + rhs for e in np.eye(4, dtype=complex)]
    return solve_oracle(np.stack(cols, axis=1), rhs)


def ou_coherence_mc(v: float, kappa: float, taus: np.ndarray,
                    n_traj: int = 100000, seed: int = 1) -> np.ndarray:
    """Monte-Carlo dephasing curve mean(cos(phi)) over noise trajectories.

    The detuning follows an Ornstein-Uhlenbeck process with stationary
    standard deviation v and rate kappa; phi is its running time integral.
    Between requested times the pair (detuning, phase increment) is drawn
    from its exact joint Gaussian law, so the only error is sampling noise.
    """
    rng = np.random.default_rng(seed)
    taus = np.asarray(taus, dtype=float)
    if kappa == 0.0:
        y0 = v * rng.standard_normal(n_traj)
        return np.cos(np.outer(taus, y0)).mean(axis=1)
    out = np.empty(taus.size)
    y = v * rng.standard_normal(n_traj)
    phi = np.zeros(n_traj)
    t_prev = 0.0
    for k, t in enumerate(taus):
        h = t - t_prev
        if h > 0:
            rho = np.exp(-kappa * h)
            var_y = v * v * (1 - rho * rho)
            var_i = v * v / kappa**2 * (2 * kappa * h - 3 + 4 * rho - rho * rho)
            cov = v * v / kappa * (1 - rho) ** 2
            y_new = rho * y + np.sqrt(var_y) * rng.standard_normal(n_traj)
            mean_i = (1 - rho) / kappa * y + cov / var_y * (y_new - rho * y)
            resid_var = max(var_i - cov**2 / var_y, 0.0)
            phi = phi + mean_i + np.sqrt(resid_var) * rng.standard_normal(n_traj)
            y = y_new
            t_prev = t
        out[k] = float(np.cos(phi).mean())
    return out


def dephasing_rate_oracle(v: float, kappa: float) -> float:
    """Inverse 1/e time of the OU coherence envelope, by 50-digit bisection.

    With x = kappa/v and u = kappa*t the envelope reaches 1/e where
    u - 1 + exp(-u) = x^2, and the rate is kappa/u. The root lies in
    [sqrt(2)*x, x^2 + 1], because u^2/2 >= u - 1 + exp(-u) >= u - 1; the
    bracket is halved in log space until it is tight to 1e-30 relative.
    """
    if v == 0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        if kappa == 0:
            return float(Decimal(v) / Decimal(2).sqrt())
        x2 = (Decimal(kappa) / Decimal(v)) ** 2
        lo, hi = (2 * x2).sqrt(), x2 + 1
        while hi / lo - 1 > Decimal("1e-30"):
            mid = (lo * hi).sqrt()
            if mid - 1 + (-mid).exp() < x2:
                lo = mid
            else:
                hi = mid
        return float(Decimal(kappa) / ((lo + hi) / 2))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def richardson_jacobian(fn, x, steps) -> np.ndarray:
    """d fn / dx by central differences at steps h and h/2, Richardson-extrapolated.

    Column k steps x[k] by steps[k]; the extrapolation (4 D(h/2) - D(h))/3
    cancels the h^2 term, so the truncation error is O(h^4).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for k, h in enumerate(steps):
        e = np.eye(x.size)[k]
        wide, narrow = ((fn(x + s * e) - fn(x - s * e)) / (2 * s) for s in (h, h / 2))
        cols.append((4 * narrow - wide) / 3)
    return np.column_stack(cols)


def csv_columns_oracle(header, *columns) -> str:
    """write_csv text written row by row: the header row, then one writerow per sample.

    A float array's entries go through _fmt and a str repeats on every row.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    rows = max((len(c) for c in columns if not isinstance(c, str)), default=0)
    for i in range(rows):
        writer.writerow([c if isinstance(c, str) else _fmt(c[i]) for c in columns])
    return buf.getvalue()


def trace_csv_oracle(trace) -> str:
    """Trace CSV text written row by row: one writerow and three _fmt calls per sample."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for path in PATHS:
        if path not in trace.values:
            continue
        vals = trace.values[path]
        for f, v in zip(trace.freqs, vals):
            writer.writerow([_fmt(f), _fmt(v.real), _fmt(v.imag), path, trace.label])
    return buf.getvalue()


def trace_json_oracle(trace) -> str:
    """Trace JSON text from json.dump(doc, indent=1) of the document as Python lists."""
    doc = {
        "label": trace.label,
        "noise_sigma": trace.noise_sigma,
        "drive_port": trace.drive_port,
        "flux_phi0": trace.flux_phi0,
        "freq_hz": trace.freqs.tolist(),
        "paths": {p: {"re": trace.values[p].real.tolist(), "im": trace.values[p].imag.tolist()}
                  for p in PATHS if p in trace.values},
    }
    buf = io.StringIO()
    json.dump(doc, buf, indent=1)
    return buf.getvalue()


def rates_csv_oracle(rates) -> str:
    """Rate-table CSV text joined line by line with one _fmt call per field."""
    lines = [RATES_CSV_HEADER]
    for i in range(len(rates)):
        lines.append(",".join(_fmt(float(col[i])) for col in (
            rates.omega01, rates.gamma1, rates.gamma_phi, rates.flux,
            rates.rel_err_gamma_phi)))
    return "\n".join(lines) + "\n"


def power_law_oracle(slopes: np.ndarray, gamma_phi: np.ndarray, rel_err: np.ndarray):
    """Weighted log-log line fit by its 2x2 normal equations, with a delta-method covariance.

    log gamma_phi = log A + eta log slope, each row weighted by 1/rel_err^2
    (fit_gamma_phi_power sets aside a row whose rel_err is not > 0). The (log A, eta)
    covariance s^2 (X^T W X)^-1 is carried onto (A, eta) by the Jacobian
    diag(A, 1). Returns (params, ci95, covariance) like fit_gamma_phi_power.
    """
    from mzq.leastsq import t_quantile

    x, y = np.log(slopes), np.log(gamma_phi)
    wgt = 1.0 / rel_err**2
    sw, swx, swxx = wgt.sum(), wgt @ x, wgt @ (x * x)
    swy, swxy = wgt @ y, wgt @ (x * y)
    det = sw * swxx - swx**2
    eta = (sw * swxy - swx * swy) / det
    intercept = (swy - eta * swx) / sw
    resid = y - (intercept + eta * x)
    s2 = (wgt @ resid**2) / (x.size - 2)
    cov_log = s2 / det * np.array([[swxx, -swx], [-swx, sw]])
    amplitude = math.exp(intercept)
    carry = np.diag([amplitude, 1.0])
    cov = carry @ cov_log @ carry
    quantile = t_quantile(x.size - 2, 0.975)
    params = {"amplitude": amplitude, "eta": eta}
    ci95 = {"amplitude": quantile * math.sqrt(cov[0, 0]), "eta": quantile * math.sqrt(cov[1, 1])}
    return params, ci95, cov


def covariance_svd_oracle(jacobian: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """leastsq.covariance by one SVD of the whole column-normalised Jacobian.

    The same identifiability rule: a parameter weighing more than sqrt(eps)
    in a direction whose singular value is at most sqrt(eps) of the largest
    gets an inf variance and NaN covariances.
    """
    m, n = jacobian.shape
    s2 = float(residual @ residual) / max(m - n, 1)
    norms = np.linalg.norm(jacobian, axis=0)
    norms[norms == 0] = 1.0
    _, sv, vt = np.linalg.svd(jacobian / norms, full_matrices=False)
    null = sv <= SQRT_EPS * sv[0]
    seen = vt[~null] / sv[~null, None]
    cov = s2 * (seen.T @ seen) / np.outer(norms, norms)
    bad = np.any(np.abs(vt[null]) > SQRT_EPS, axis=0)
    cov[bad, :] = cov[:, bad] = np.nan
    cov[bad, bad] = np.inf
    return cov
