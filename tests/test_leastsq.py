"""Damped least-squares engine against closed forms and scipy."""
import math

import numpy as np
import pytest
from scipy import optimize, stats

from mzq.leastsq import (
    BadInitialization,
    LMResult,
    confidence_half_widths,
    covariance,
    levenberg_marquardt,
    t_quantile,
)


def _exp_problem(seed=7):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 5.0, 60)
    y = 2.7 * np.exp(-1.3 * t) + 0.4 + 0.02 * rng.standard_normal(t.size)

    def fn(p):
        return p[0] * np.exp(-p[1] * t) + p[2] - y

    return fn, t, y


def test_rosenbrock_valley():
    def fn(p):
        return np.array([10 * (p[1] - p[0] ** 2), 1 - p[0]])

    res = levenberg_marquardt(fn, [-1.2, 1.0])
    assert res.converged
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-6)
    assert res.cost <= 1e-12


def test_matches_scipy_on_a_curve_fit():
    fn, _, _ = _exp_problem()
    mine = levenberg_marquardt(fn, [1.0, 1.0, 0.0])
    ref = optimize.least_squares(fn, [1.0, 1.0, 0.0], xtol=1e-14, ftol=1e-14)
    assert mine.converged
    assert mine.x == pytest.approx(ref.x, rel=1e-6)
    assert mine.cost == pytest.approx(2 * ref.cost, rel=1e-9)  # scipy halves it


def test_result_is_self_consistent():
    fn, t, _ = _exp_problem()
    res = levenberg_marquardt(fn, [1.0, 1.0, 0.0])
    assert res.cost == float(res.residual @ res.residual)
    assert np.allclose(res.residual, fn(res.x), rtol=0, atol=1e-15)
    # the reported jacobian belongs to the final point, not the start
    a, b = res.x[0], res.x[1]
    analytic = np.column_stack([np.exp(-b * t), -a * t * np.exp(-b * t), np.ones_like(t)])
    assert np.allclose(res.jacobian, analytic, rtol=1e-4, atol=1e-8)


def test_cost_history_is_strictly_decreasing():
    fn, _, _ = _exp_problem()
    x0 = [1.0, 1.0, 0.0]
    res = levenberg_marquardt(fn, x0)
    r0 = fn(np.asarray(x0))
    assert res.cost_history[0] == pytest.approx(float(r0 @ r0), rel=1e-15)
    assert res.cost_history[-1] == res.cost
    assert all(b < a for a, b in zip(res.cost_history, res.cost_history[1:]))


def test_linear_regression_closed_form():
    rng = np.random.default_rng(3)
    t = np.linspace(-1, 1, 41)
    design = np.column_stack([np.ones_like(t), t, t**2])
    beta = np.array([0.7, -1.1, 2.3])
    y = design @ beta + 0.05 * rng.standard_normal(t.size)

    def fn(b):
        return design @ b - y

    res = levenberg_marquardt(fn, [0.0, 0.0, 0.0])
    exact = np.linalg.lstsq(design, y, rcond=None)[0]
    assert res.converged
    assert res.x == pytest.approx(exact, abs=1e-9)
    assert np.allclose(res.jacobian, design, rtol=1e-6, atol=1e-8)

    # covariance and intervals against the textbook formulas
    dof = t.size - 3
    s2 = res.cost / dof
    cov_exact = s2 * np.linalg.inv(design.T @ design)
    assert np.allclose(covariance(res), cov_exact, rtol=1e-5)
    hw_exact = stats.t.ppf(0.975, dof) * np.sqrt(np.diag(cov_exact))
    assert np.allclose(confidence_half_widths(covariance(res), dof), hw_exact, rtol=1e-5)
    assert np.all(np.abs(res.x - beta) < 2 * hw_exact)


def test_exact_data_drives_cost_to_zero():
    t = np.linspace(0, 1, 9)
    y = 0.5 + 0.25 * t

    def fn(b):
        return b[0] + b[1] * t - y

    res = levenberg_marquardt(fn, [0.0, 0.0])
    assert res.converged
    assert res.cost <= 1e-18
    assert res.x == pytest.approx([0.5, 0.25], abs=1e-9)


def test_scaling_handles_mixed_magnitudes():
    t = np.linspace(0.0, 6e-9, 40)
    truth = np.array([3e9, 2e-9])
    y = truth[0] * np.exp(-t / truth[1])

    def fn(p):
        return p[0] * np.exp(-t / p[1]) - y

    res = levenberg_marquardt(fn, [1e9, 5e-9], x_scale=[1e9, 1e-9])
    assert res.converged
    assert res.x == pytest.approx(truth, rel=1e-6)


def test_iteration_budget_is_respected():
    def fn(p):
        return np.array([10 * (p[1] - p[0] ** 2), 1 - p[0]])

    res = levenberg_marquardt(fn, [-1.2, 1.0], max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert len(res.cost_history) <= 3


def test_stationary_point_counts_as_converged():
    # a flat residual cannot be improved; the first sweep exhausts damping
    def fn(p):
        return np.array([1.0, -2.0, 0.5])

    res = levenberg_marquardt(fn, [0.3])
    assert res.converged
    assert res.cost == pytest.approx(1 + 4 + 0.25)


def test_bad_starts_are_rejected():
    ok = lambda p: np.asarray([p[0], p[0] - 1.0])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(ok, [])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(ok, np.ones((2, 2)))
    with pytest.raises(BadInitialization):
        levenberg_marquardt(ok, [1.0], x_scale=[1.0, 2.0])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(ok, [1.0], x_scale=[-1.0])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(ok, [1.0], x_scale=[math.inf])
    with pytest.raises(BadInitialization):
        # fewer residuals than parameters
        levenberg_marquardt(lambda p: np.asarray([p[0] + p[1]]), [1.0, 2.0])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(lambda p: np.asarray([math.nan, 1.0]), [1.0])


def test_covariance_survives_a_singular_jacobian():
    # duplicated parameter: only p0 + p1 is seen, so neither has an interval
    t = np.linspace(0, 1, 12)
    y = 2.0 * t

    def fn(p):
        return (p[0] + p[1]) * t - y

    res = levenberg_marquardt(fn, [0.9, 0.9])
    assert np.all(np.diag(covariance(res)) == np.inf)
    assert np.all(confidence_half_widths(covariance(res), t.size - 2) == np.inf)
    # an exactly zero residual must not turn 0 * inf into NaN, and the
    # identifiable third parameter keeps its zero-noise interval of 0
    jac = np.stack([t, t, t**2], axis=1)
    exact = LMResult(x=np.ones(3), cost=0.0, cost_history=[0.0], residual=np.zeros(12),
                     jacobian=jac, iterations=1, converged=True)
    assert list(confidence_half_widths(covariance(exact), t.size - 3)) == [np.inf, np.inf, 0.0]


def test_t_quantile_counts_a_dof_below_one_as_one():
    for dof in (1, 7, 2400):
        assert t_quantile(dof, 0.975) == pytest.approx(stats.t.ppf(0.975, dof), rel=1e-12)
    assert t_quantile(0, 0.95) == t_quantile(-3, 0.95) == t_quantile(1, 0.95)
