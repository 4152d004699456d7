"""Damped least-squares engine against closed forms and scipy."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from mzq.leastsq import (
    FD_REL_STEP,
    QR_BLOCK_ELEMENTS,
    BadInitialization,
    NoConvergence,
    _jacobian,
    confidence_half_widths,
    covariance,
    levenberg_marquardt,
    t_quantile,
)
from oracles import covariance_svd_oracle


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


def test_rosenbrock_valley_with_an_exact_jacobian():
    def fn(p):
        return np.array([10 * (p[1] - p[0] ** 2), 1 - p[0]])

    def jac(p):
        return np.array([[-20 * p[0], 10.0], [-1.0, 0.0]])

    exact = levenberg_marquardt(fn, [-1.2, 1.0], jac=jac)
    assert exact.converged
    assert exact.x == pytest.approx(levenberg_marquardt(fn, [-1.2, 1.0]).x, abs=1e-6)
    assert exact.x == pytest.approx([1.0, 1.0], abs=1e-6)
    assert exact.cost <= 1e-12


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
    assert np.allclose(covariance(res.jacobian, res.residual), cov_exact, rtol=1e-5)
    hw_exact = stats.t.ppf(0.975, dof) * np.sqrt(np.diag(cov_exact))
    assert np.allclose(confidence_half_widths(covariance(res.jacobian, res.residual), dof),
                       hw_exact, rtol=1e-5)
    assert np.all(np.abs(res.x - beta) < 2 * hw_exact)


def test_linear_regression_with_an_exact_jacobian():
    rng = np.random.default_rng(3)
    t = np.linspace(-1, 1, 41)
    design = np.column_stack([np.ones_like(t), t, t**2])
    y = design @ np.array([0.7, -1.1, 2.3]) + 0.05 * rng.standard_normal(t.size)

    def fn(b):
        return design @ b - y

    res = levenberg_marquardt(fn, [0.0, 0.0, 0.0], jac=lambda b: design)
    fd = levenberg_marquardt(fn, [0.0, 0.0, 0.0])
    assert res.converged
    assert res.x == pytest.approx(np.linalg.lstsq(design, y, rcond=None)[0], abs=1e-9)
    assert res.x == pytest.approx(fd.x, abs=1e-9)
    assert np.array_equal(res.jacobian, design)
    assert np.allclose(covariance(res.jacobian, res.residual),
                       covariance(fd.jacobian, fd.residual), rtol=1e-5)


def _exp_jacobian(t):
    def jac(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([e, -p[0] * t * e, np.ones_like(t)])
    return jac


def test_an_exact_jacobian_spends_no_residual_evaluations_on_columns(monkeypatch):
    # every step solve is one trial step, and each trial costs one residual
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    fn, t, _ = _exp_problem()
    for jac in (None, _exp_jacobian(t)):
        evals, jac_calls = [], []

        def counted_fn(p):
            evals.append(1)
            return fn(p)

        def counted_jac(p):
            jac_calls.append(1)
            return jac(p)

        solves.clear()
        res = levenberg_marquardt(counted_fn, [1.0, 1.0, 0.0],
                                  jac=None if jac is None else counted_jac)
        assert res.converged
        jacobians = len(res.cost_history)  # one at x0 and one per accepted step
        columns = 3 * jacobians if jac is None else 0
        assert len(evals) == 1 + len(solves) + columns
        assert len(jac_calls) == (0 if jac is None else jacobians)


def test_difference_steps_never_cross_zero():
    # a residual even in each entry, as the rate curves are: within one step
    # of 0 the column at -a must be minus the column at a, bit for bit
    t = np.linspace(0.0, 5.0, 30)

    def fn(p):
        return abs(p[0]) * np.exp(-abs(p[1]) * t) - 1.0

    for a in (0.3 * FD_REL_STEP, 0.9 * FD_REL_STEP):
        plus, minus = np.array([2.0, a]), np.array([2.0, -a])
        jp = _jacobian(fn, plus, fn(plus))
        jm = _jacobian(fn, minus, fn(minus))
        assert np.array_equal(jm[:, 1], -jp[:, 1])
        assert np.array_equal(jm[:, 0], jp[:, 0])
        assert np.all(jp[1:, 1] < 0)


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


def test_the_run_stops_at_the_first_step_that_improves_the_cost_by_ftol_or_less():
    # relative to the new cost, as the rule reads; xtol=0 leaves ftol the only stop
    fn, t, _ = _exp_problem()

    def jac(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([e, -p[0] * t * e, np.ones_like(t)])

    stops = []
    for ftol in (1e-3, 1e-6):
        res = levenberg_marquardt(fn, [0.5, 0.1, 0.0], jac=jac, ftol=ftol, xtol=0)
        h = res.cost_history
        small = [h[i - 1] - h[i] <= ftol * h[i] for i in range(1, len(h))]
        # every iteration accepted a step, so none ended on the stationary exit
        assert res.converged and res.iterations == len(small)
        assert small[-1] and not any(small[:-1]), ftol
        stops.append(res.iterations)
    assert stops[0] < stops[1]


def test_stationary_point_counts_as_converged():
    # a flat residual cannot be improved; the first sweep exhausts damping
    def fn(p):
        return np.array([1.0, -2.0, 0.5])

    res = levenberg_marquardt(fn, [0.3])
    assert res.converged
    assert res.cost == pytest.approx(1 + 4 + 0.25)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the stationary exit reports a start "
                   "that never moved as converged")
def test_a_start_on_a_cost_maximum_is_not_reported_as_converged():
    # 1 - x^2 is flat only at x0 = 0, where the cost 1 is a maximum; cost 0 lies at x = +-1
    res = levenberg_marquardt(lambda x: 1 - x**2, [0.0], jac=lambda x: np.array([[-2 * x[0]]]))
    assert res.cost < 1 or not res.converged


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
    with pytest.raises(BadInitialization, match="x_scale must be positive"):
        levenberg_marquardt(ok, [1.0], x_scale=[0.0])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(ok, [1.0], x_scale=[math.inf])
    with pytest.raises(BadInitialization):
        # fewer residuals than parameters
        levenberg_marquardt(lambda p: np.asarray([p[0] + p[1]]), [1.0, 2.0])
    with pytest.raises(BadInitialization):
        levenberg_marquardt(lambda p: np.asarray([math.nan, 1.0]), [1.0])
    with pytest.raises(BadInitialization, match="jacobian has shape"):
        levenberg_marquardt(ok, [1.0], jac=lambda p: np.ones(2))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_starting_jacobian_is_refused(value):
    # no step can be solved from it, so "converged at x0" would mean "never moved"
    with pytest.raises(BadInitialization, match="jacobian is not finite"):
        levenberg_marquardt(lambda x: x - [1.0, 2.0], [0.0, 0.0],
                            jac=lambda x: np.full((2, 2), value))
    # a difference Jacobian whose step lands where the residual is not finite
    with pytest.raises(BadInitialization, match="jacobian is not finite"):
        levenberg_marquardt(lambda x: np.array([x[0], value if x[0] > 0 else 1.0]), [0.0])


def test_a_non_finite_jacobian_after_an_accepted_step_is_refused():
    # the first step is accepted, then no step can be solved from a NaN Jacobian;
    # "converged" there would report a NaN Jacobian as a fit's result
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(NoConvergence, match="not finite after iteration 1"):
        levenberg_marquardt(lambda x: x[0] * t - 2 * t, [5.0],
                            jac=lambda x: t[:, None] if x[0] == 5 else np.full((20, 1), np.nan))


def test_covariance_survives_a_singular_jacobian():
    # duplicated parameter: only p0 + p1 is seen, so neither has an interval
    t = np.linspace(0, 1, 12)
    y = 2.0 * t

    def fn(p):
        return (p[0] + p[1]) * t - y

    res = levenberg_marquardt(fn, [0.9, 0.9])
    assert np.all(np.diag(covariance(res.jacobian, res.residual)) == np.inf)
    assert np.all(confidence_half_widths(covariance(res.jacobian, res.residual),
                                         t.size - 2) == np.inf)
    # an exactly zero residual must not turn 0 * inf into NaN, and the
    # identifiable third parameter keeps its zero-noise interval of 0
    jac = np.stack([t, t, t**2], axis=1)
    assert list(confidence_half_widths(covariance(jac, np.zeros(12)), t.size - 3)) == [
        np.inf, np.inf, 0.0]


def _unit_residual(m: int) -> np.ndarray:
    """A residual of m rows whose sum of squares is 1.0."""
    r = np.zeros(m)
    r[0] = 1.0
    return r


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_blocked_covariance_matches_one_svd(data):
    n = data.draw(st.integers(2, 7), label="n")
    block = QR_BLOCK_ELEMENTS // n
    m = data.draw(st.sampled_from([8, block - 1, block, block + 1, 3 * block + 5]), label="m")
    kind = data.draw(st.sampled_from(["random", "zero column", "duplicate columns"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    jac = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-9, 9, n)
    i, j = rng.choice(n, 2, replace=False)
    if kind == "zero column":
        jac[:, i] = 0.0
    elif kind == "duplicate columns":
        jac[:, j] = jac[:, i]
    got, want = covariance(jac, _unit_residual(m)), covariance_svd_oracle(jac, _unit_residual(m))
    if m <= block:
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    # each entry relative to its scale sqrt(|c_ii c_jj|), so a covariance
    # near 0 is not held to more digits than the variances carry
    finite = np.isfinite(want)
    scale = np.sqrt(np.abs(np.outer(np.diag(want), np.diag(want))))
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale[finite])


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("m", [8, QR_BLOCK_ELEMENTS // 7 + 1, 3 * (QR_BLOCK_ELEMENTS // 7) + 5])
def test_a_non_finite_jacobian_raises_on_both_routes(m, value):
    jac = np.random.default_rng(m).standard_normal((m, 7))
    jac[-1, 3] = value  # in the last block once there are blocks
    raised = []
    for route in (covariance, covariance_svd_oracle):
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError) as err:
            route(jac, _unit_residual(m))
        raised.append(str(err.value))
    assert raised[0] == raised[1]


def test_no_lapack_call_in_covariance_sees_more_than_one_block(monkeypatch):
    # a flux-sweep spectrum Jacobian: 601 points x 4 paths, 7 parameters
    shapes = []
    for name in ("qr", "svd"):
        def record(a, *args, _call=getattr(np.linalg, name), **kwargs):
            shapes.append(a.shape)
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    covariance(np.random.default_rng(1).standard_normal((2404, 7)), _unit_residual(2404))
    assert len(shapes) > 1
    assert all(rows * cols <= QR_BLOCK_ELEMENTS for rows, cols in shapes), shapes


def test_t_quantile_counts_a_dof_below_one_as_one():
    for dof in (1, 7, 2400):
        assert t_quantile(dof, 0.975) == pytest.approx(stats.t.ppf(0.975, dof), rel=1e-12)
    assert t_quantile(0, 0.95) == t_quantile(-3, 0.95) == t_quantile(1, 0.95)


T_ORACLE_DOFS = [*range(1, 401), 500, 1000, 2397, 5000, 10**4, 3 * 10**4, 99_999, 10**5]


@pytest.mark.parametrize("p", [0.95, 0.975])
def test_t_quantile_matches_stdtrit(p):
    mine = np.array([t_quantile(dof, p) for dof in T_ORACLE_DOFS])
    ref = special.stdtrit(np.array(T_ORACLE_DOFS, dtype=float), p)
    assert np.max(np.abs(mine / ref - 1)) <= 1e-13


@pytest.mark.parametrize("p", [0.95, 0.975])
def test_t_quantile_closed_forms_at_one_and_two_dof(p):
    assert t_quantile(1, p) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-14)
    assert t_quantile(2, p) == pytest.approx((2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-14)


@pytest.mark.parametrize("p", [0.95, 0.975])
def test_t_quantile_strictly_decreases_in_dof(p):
    qs = [t_quantile(dof, p) for dof in T_ORACLE_DOFS]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_t_quantile_rejects_a_p_outside_its_range():
    assert t_quantile(5, 0.5) == 0.0
    for p in (0.4, 1.0, math.nan):
        with pytest.raises(ValueError):
            t_quantile(5, p)
