"""Damped least-squares minimization with finite-difference Jacobians.

Small Levenberg-Marquardt engine used by the estimation layer. The residual
function maps a parameter vector to a 1-d residual array; the engine
minimizes the sum of squared residuals. The Student-t quantile, the
parameter intervals and the prediction bands built on a fit live here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import stdtrit

FD_REL_STEP = 1e-6
DAMPING_INIT = 1e-3
DAMPING_MAX = 1e14
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class BadInitialization(ValueError):
    """Raised when the starting point gives unusable residuals."""


class NoConvergence(ArithmeticError):
    """Raised by callers when a fit fails to converge."""


@dataclass
class LMResult:
    x: np.ndarray
    cost: float
    cost_history: list[float]
    residual: np.ndarray
    jacobian: np.ndarray
    iterations: int
    converged: bool


def _jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              r0: np.ndarray, x_scale: np.ndarray) -> np.ndarray:
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = FD_REL_STEP * max(abs(x[i]), x_scale[i])
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (fn(xp) - r0) / h
    return jac


def levenberg_marquardt(fn: Callable[[np.ndarray], np.ndarray],
                        x0: Sequence[float],
                        x_scale: Sequence[float] | None = None,
                        max_iter: int = 200,
                        ftol: float = 1e-10,
                        xtol: float = 1e-8) -> LMResult:
    """Minimize sum(fn(x)**2) from x0.

    x_scale sets the characteristic size of each parameter. The search runs
    in units of x_scale so damping treats rad/s-sized and order-one
    parameters evenly, and finite-difference steps stay sensible when a
    parameter passes through zero. Convergence is declared when an accepted
    step improves the cost by less than ftol relative, when the accepted
    step is smaller than xtol in scaled units, or when no damping value
    yields an improvement (a numerical stationary point). Hitting max_iter
    leaves converged False. The returned jacobian is in x units.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size == 0:
        raise BadInitialization("x0 must be a nonempty 1-d vector")
    scale = np.ones_like(x) if x_scale is None else np.asarray(x_scale, dtype=float)
    if scale.shape != x.shape or np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        raise BadInitialization("x_scale must be positive, finite, same length as x0")

    z = x / scale
    unit = np.ones_like(z)

    def fn_z(zv: np.ndarray) -> np.ndarray:
        return np.asarray(fn(zv * scale), dtype=float)

    r = fn_z(z)
    if r.ndim != 1 or r.size < z.size:
        raise BadInitialization("need at least as many residuals as parameters")
    if not np.all(np.isfinite(r)):
        raise BadInitialization("residuals are not finite at the starting point")

    cost = float(r @ r)
    history = [cost]
    lam = DAMPING_INIT
    jac = _jacobian(fn_z, z, r, unit)
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag = np.maximum(diag, 1e-12 * max(diag.max(), 1e-300))

        accepted = False
        while lam <= DAMPING_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            z_new = z + step
            r_new = fn_z(z_new)
            cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
            if cost_new < cost:
                accepted = True
                break
            lam *= 10

        if not accepted:
            # no damping admits a downhill step: stationary to working precision
            converged = True
            break

        improvement = cost - cost_new
        step_size = float(np.max(np.abs(step)))
        z, r, cost = z_new, r_new, cost_new
        history.append(cost)
        lam = max(lam / 3, 1e-12)
        jac = _jacobian(fn_z, z, r, unit)
        if (cost == 0.0 or improvement <= ftol * max(cost, 1e-300)
                or step_size <= xtol * (1.0 + float(np.max(np.abs(z))))):
            converged = True
            break

    return LMResult(x=z * scale, cost=cost, cost_history=history, residual=r,
                    jacobian=jac / scale, iterations=iterations, converged=converged)


def covariance(result: LMResult) -> np.ndarray:
    """Parameter covariance s^2 (J^T J)^-1 with s^2 the residual variance.

    A parameter weighing more than sqrt(eps) in a direction whose singular
    value (column-normalised Jacobian) is at most sqrt(eps) of the largest
    is not identified: its variance is inf and its covariances NaN, as is
    any variance that comes out negative. The others keep the variance of
    the directions the data see.
    """
    m, n = result.jacobian.shape
    s2 = result.cost / max(m - n, 1)
    jac = result.jacobian
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0] = 1.0
    _, sv, vt = np.linalg.svd(jac / norms, full_matrices=False)
    null = sv <= SQRT_EPS * sv[0]
    if not null.any():
        cov = s2 * np.linalg.inv(jac.T @ jac)
    else:
        seen = vt[~null] / sv[~null, None]
        cov = s2 * (seen.T @ seen) / np.outer(norms, norms)
    bad = np.any(np.abs(vt[null]) > SQRT_EPS, axis=0) | (np.diag(cov) < 0)
    cov[bad, :] = cov[:, bad] = np.nan
    cov[bad, bad] = np.inf
    return cov


def t_quantile(dof: int, p: float) -> float:
    """Student-t quantile at probability p; a dof below 1 counts as 1."""
    return stdtrit(max(dof, 1), p)


def confidence_half_widths(cov: np.ndarray, dof: int, level: float = 0.95) -> np.ndarray:
    """Student-t half-widths of the marginal parameter confidence intervals."""
    return t_quantile(dof, 0.5 + level / 2) * np.sqrt(np.diag(cov))


def prediction_band(curve: Callable[[np.ndarray, np.ndarray], np.ndarray], pvec: np.ndarray,
                    cov: np.ndarray, xs: np.ndarray, dof: int):
    """Curve over xs with its linearized 95% band, varying the first cov.shape[0] of pvec."""
    p = pvec[:cov.shape[0]]
    y = curve(p, xs)
    grad = _jacobian(lambda q: curve(q, xs), p, y, np.full(p.size, 1e-12))
    var = np.einsum("ni,ij,nj->n", grad, cov, grad)
    half = t_quantile(dof, 0.975) * np.sqrt(np.maximum(var, 0.0))
    return y, y - half, y + half
