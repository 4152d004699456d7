"""Damped least-squares minimization.

Small Levenberg-Marquardt engine of the estimation layer: it minimizes the
sum of squares of a 1-d residual of a parameter vector, with the caller's
closed-form Jacobian (every fit in mzq passes one) or one-sided differences.
The Student-t quantile, the parameter intervals and the delta-method
prediction bands, which take the model's Jacobian, live here too. The
quantile needs no scipy: for integer dof it solves the finite series of the
t distribution function (Abramowitz & Stegun 26.7.3-26.7.4) by Newton's
method. The covariance's SVD runs on the stacked R factors of row blocks of
the Jacobian (TSQR, Demmel et al., SIAM J. Sci. Comput. 34, A206 (2012)).
The CLI runs one BLAS thread, but a library caller whose numpy loaded first
has OpenBLAS's workers, and one LAPACK call on a whole spectrum Jacobian
wakes them to spin; a block keeps it on one thread, at no cost on one thread.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FD_REL_STEP = 1e-6
DAMPING_INIT = 1e-3
DAMPING_MAX = 1e14
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
# OpenBLAS runs dger, the rank-1 update of Householder QR, on one thread up
# to rows x columns = 2048 * GEMM_MULTITHREAD_THRESHOLD = 8192 (interface/ger.c)
QR_BLOCK_ELEMENTS = 8192


class BadInitialization(ValueError):
    """Raised when the starting point gives unusable residuals."""


class NoConvergence(ArithmeticError):
    """Raised when a fit fails to converge, by its caller or by levenberg_marquardt."""


@dataclass
class LMResult:
    x: np.ndarray
    cost: float
    cost_history: list[float]
    residual: np.ndarray
    jacobian: np.ndarray
    iterations: int


@np.errstate(over="ignore", invalid="ignore")
def _sum_squares(r: np.ndarray) -> float:  # r . r, or inf for a NaN or inf entry or an overflow
    return min(math.inf, float(r @ r))  # min(inf, nan) is inf


def _jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              r0: np.ndarray) -> np.ndarray:
    """d fn / dx at x, with r0 = fn(x), by one-sided steps of FD_REL_STEP max(|x_i|, 1).

    Each step points away from 0, so none crosses the kink of a curve even in x_i.
    """
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = math.copysign(FD_REL_STEP * max(abs(x[i]), 1.0), x[i])
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (fn(xp) - r0) / h
    return jac


def levenberg_marquardt(fn: Callable[[np.ndarray], np.ndarray],
                        x0: Sequence[float],
                        x_scale: Sequence[float] | None = None,
                        max_iter: int = 200,
                        ftol: float = 1e-10,
                        xtol: float = 1e-8,
                        jac: Callable[[np.ndarray], np.ndarray] | None = None) -> LMResult:
    """Minimize sum(fn(x)**2) from x0.

    x_scale sets the characteristic size of each parameter. The search runs
    in units of x_scale so damping treats rad/s-sized and order-one
    parameters evenly, and finite-difference steps stay sensible when a
    parameter passes through zero. Convergence is declared when an accepted
    step improves the cost by less than ftol relative, when the accepted
    step is smaller than xtol in scaled units, or when no damping value
    yields an improvement (a numerical stationary point). A returned run
    converged: spending max_iter raises NoConvergence, as does a stationary
    point where fn finds a lower cost one scaled unit either way along an
    all-zero Jacobian column. A non-finite sum of
    squares refuses x0 and rejects a trial step; a non-finite Jacobian raises
    BadInitialization at x0, NoConvergence after an accepted step, where no
    step could be solved from it. The returned jacobian is in x units.

    jac, when given, returns d fn / dx at x as an (m, n) array in x units;
    it is called once at x0 and once per accepted step, and fn is then
    evaluated only at trial steps. Without it, each Jacobian costs n more
    fn evaluations by forward differences.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size == 0:
        raise BadInitialization("x0 must be a nonempty 1-d vector")
    scale = np.ones_like(x) if x_scale is None else np.asarray(x_scale, dtype=float)
    if scale.shape != x.shape or np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        raise BadInitialization("x_scale must be positive, finite, same length as x0")

    z = x / scale

    def fn_z(zv: np.ndarray) -> np.ndarray:
        return np.asarray(fn(zv * scale), dtype=float)

    def jac_z(zv: np.ndarray, rv: np.ndarray) -> np.ndarray:
        if jac is None:
            return _jacobian(fn_z, zv, rv)
        return np.asarray(jac(zv * scale), dtype=float) * scale

    r = fn_z(z)
    if r.ndim != 1 or r.size < z.size:
        raise BadInitialization("need at least as many residuals as parameters")
    cost = _sum_squares(r)
    if cost == math.inf:
        raise BadInitialization("sum of squares is not finite at the starting point")
    history = [cost]
    lam = DAMPING_INIT
    jmat = jac_z(z, r)
    if jmat.shape != (r.size, z.size):
        raise BadInitialization(f"jacobian has shape {jmat.shape}, expected {(r.size, z.size)}")
    if not np.all(np.isfinite(jmat)):
        raise BadInitialization("jacobian is not finite at the starting point")

    for iterations in range(1, max_iter + 1):
        jtj = jmat.T @ jmat
        grad = jmat.T @ r
        diag = np.maximum(jtj.diagonal(), 1e-12 * max(jtj.diagonal().max(), 1e-300))

        while lam <= DAMPING_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            z_new = z + step
            r_new = fn_z(z_new)
            cost_new = _sum_squares(r_new)
            if cost_new < cost:
                break
            lam *= 10
        else:
            # no downhill step at any damping: stationary, unless a zero column has a way down
            for i in np.flatnonzero(~jmat.any(axis=0)):
                for unit in (1.0, -1.0):
                    if (probe := _sum_squares(fn_z(z + unit * np.eye(z.size)[i]))) < cost:
                        raise NoConvergence(f"stationary on zero jacobian column {i} at cost "
                                            f"{cost:.3g}, but one unit along it costs {probe:.3g}")
            break

        done = (cost_new == 0.0 or cost - cost_new <= ftol * max(cost_new, 1e-300)
                or float(np.max(np.abs(step))) <= xtol * (1.0 + float(np.max(np.abs(z_new)))))
        z, r, cost = z_new, r_new, cost_new
        history.append(cost)
        lam = max(lam / 3, 1e-12)
        jmat = jac_z(z, r)
        if not np.all(np.isfinite(jmat)):
            raise NoConvergence(f"jacobian is not finite after iteration {iterations}")
        if done:
            break
    else:
        raise NoConvergence(f"stopped after {max_iter} iterations, cost {cost:.3g}")

    return LMResult(x=z * scale, cost=cost, cost_history=history, residual=r,
                    jacobian=jmat / scale, iterations=iterations)


def covariance(jacobian: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Parameter covariance s^2 (J^T J)^-1 of an (m, n) Jacobian, s^2 = r.r / max(m - n, 1).

    A parameter weighing more than sqrt(eps) in a direction whose singular
    value (column-normalised Jacobian) is at most sqrt(eps) of the largest
    is not identified: its variance is inf and its covariances NaN. The
    others keep the variance of the directions the data see.

    A Jacobian taller than one block of QR_BLOCK_ELEMENTS // n rows (at
    least 2n, so each pass shrinks it) reaches the SVD as the stacked R
    factors of its blocks, which keep its singular values and right
    singular vectors to rounding.
    """
    m, n = jacobian.shape
    s2 = float(residual @ residual) / max(m - n, 1)
    norms = np.linalg.norm(jacobian, axis=0)
    norms[norms == 0] = 1.0
    a = jacobian / norms
    rows = max(QR_BLOCK_ELEMENTS // n, 2 * n)
    while a.shape[0] > rows:
        a = np.concatenate([np.linalg.qr(a[i:i + rows], mode="r")
                            for i in range(0, a.shape[0], rows)])
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    null = sv <= SQRT_EPS * sv[0]
    seen = vt[~null] / sv[~null, None]
    cov = s2 * (seen.T @ seen) / np.outer(norms, norms)
    bad = np.any(np.abs(vt[null]) > SQRT_EPS, axis=0)
    cov[bad, :] = cov[:, bad] = np.nan
    cov[bad, bad] = np.inf
    return cov


def t_quantile(dof: int, p: float) -> float:
    """Student-t quantile at probability 1/2 <= p < 1 for integer dof; a dof below 1 counts as 1.

    A(t) = P(|T| <= t) is a finite series in theta = atan(t / sqrt(nu))
    (Abramowitz & Stegun 26.7.3-26.7.4), and Newton solves A(t) = 2p - 1 from
    t = 0. A is concave for t > 0, so every iterate stays below the root and
    the steps shrink quadratically; after a step below 1e-10 t what is left
    is far below rounding. At most 10 steps are taken for nu up to 1e5.
    cos(theta)^(2k) is exp(-k log1p(t^2 / nu)), not a product of rounded
    factors, which keeps the series at full precision for large nu.
    """
    if not 0.5 <= p < 1:
        raise ValueError(f"p must lie in [0.5, 1), got {p}")
    nu = max(operator.index(dof), 1)
    odd = nu % 2
    # nu // 2 series coefficients: 2*4*..*2k / (3*5*..*(2k+1)) for odd nu,
    # 1*3*..*(2k-1) / (2*4*..*2k) for even nu
    j = np.arange(1, nu // 2)
    coef = np.cumprod(np.concatenate(([1.0], (2 * j - 1 + odd) / (2 * j + odd))))[:nu // 2]
    k = np.arange(coef.size)
    slope0 = 2 * math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)) / math.sqrt(math.pi * nu)
    t = 0.0
    for _ in range(50):
        log_cos2 = -math.log1p(t * t / nu)
        sin = t / math.sqrt(nu + t * t)
        series = float(coef @ np.exp(k * log_cos2))
        if odd:
            theta = math.atan(t / math.sqrt(nu))
            a = 2 / math.pi * (theta + sin * math.exp(log_cos2 / 2) * series)
        else:
            a = sin * series
        # A'(t) = 2 * (t density) = A'(0) * cos(theta)^(nu + 1)
        step = (2 * p - 1 - a) / (slope0 * math.exp((nu + 1) / 2 * log_cos2))
        t += step
        if step <= 1e-10 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge at dof={nu}, p={p}")


def confidence_half_widths(cov: np.ndarray, dof: int) -> np.ndarray:
    """Student-t half-widths of the marginal 95% parameter confidence intervals."""
    return t_quantile(dof, 0.975) * np.sqrt(np.diag(cov))


def prediction_band(curve: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray], xs: np.ndarray,
                    pvec: np.ndarray, cov: np.ndarray, dof: int, points: int):
    """(grid, y, lo, hi): curve and delta-method 95% band on linspace(min(xs), max(xs), points).

    cov is that of every entry of pvec; jacobian(pvec, grid) is d curve / dpvec, per point.
    """
    grid = np.linspace(xs.min(), xs.max(), points)
    y, grad = curve(pvec, grid), jacobian(pvec, grid)
    var = np.einsum("ni,ij,nj->n", grad, cov, grad)
    half = t_quantile(dof, 0.975) * np.sqrt(np.maximum(var, 0.0))
    return grid, y, y - half, y + half
