"""Port-equation solver and condition-gate checks."""
import math

import numpy as np
import pytest

from mzq.components import QubitScatterer, make_interferometer, sweep, total_matrix_stack
from mzq.netcore import (
    COND_LIMIT,
    NonFinite,
    SingularSystem,
    _det_and_cond1,
    solve_port_system_many,
)

from oracles import port_solution_oracle


def _random_matrices(rng, count):
    return rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))


def test_port_solution_satisfies_mode_relation():
    # plug the solved outputs back into the defining linear relation
    rng = np.random.default_rng(21)
    for _ in range(100):
        (m,) = _random_matrices(rng, 1)
        try:
            x = solve_port_system_many(m[..., None])[..., 0]
        except SingularSystem:
            continue
        for col, (a4_in, a2_in) in enumerate([(0.0, 1.0), (1.0, 0.0)]):
            a1_out, a3_out, a4_out, a2_out = x[:, col]
            right = np.array([a4_in, a4_out, a2_in, a2_out])
            left = np.array([a1_out, 0.0, a3_out, 0.0])
            gap = np.max(np.abs(m @ right - left))
            assert gap <= 1e-10 * max(np.abs(x).max(), 1.0)


def test_stack_solver_matches_elimination_oracle():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 1000:
        batch = _random_matrices(rng, 64)
        try:
            solved = solve_port_system_many(np.moveaxis(batch, 0, -1))
        except SingularSystem:
            continue
        for m, x in zip(batch, np.moveaxis(solved, -1, 0)):
            for col, (a4_in, a2_in) in enumerate([(0.0, 1.0), (1.0, 0.0)]):
                ref = port_solution_oracle(m, a4_in, a2_in)
                assert np.allclose(x[:, col], ref, rtol=1e-10, atol=1e-10)
            checked += 1
            if checked >= 1000:
                break


def test_joint_drive_is_superposition_of_columns():
    # the columns are the unit port-2 and port-4 responses; any joint drive is
    # their superposition, and an undriven port adds nothing
    rng = np.random.default_rng(23)
    for _ in range(50):
        (m,) = _random_matrices(rng, 1)
        x = solve_port_system_many(m[..., None])[..., 0]
        for a2_in, a4_in in ((2.5 - 1.25j, 0.0), (0.0, 0.5j), (1.0 + 1j, -2.0)):
            a1_out, a3_out, a4_out, a2_out = x @ np.array([a2_in, a4_in])
            right = np.array([a4_in, a4_out, a2_in, a2_out])
            left = np.array([a1_out, 0.0, a3_out, 0.0])
            gap = np.max(np.abs(m @ right - left))
            assert gap <= 1e-10 * max(np.abs(x).max(), 1.0)


def test_solve_outputs_matches_stack_columns():
    # the outputs solved from the mode relation for any drive are the matching
    # combination of the two stacked unit-drive columns
    rng = np.random.default_rng(24)
    for _ in range(50):
        (m,) = _random_matrices(rng, 1)
        x = solve_port_system_many(m[..., None])[..., 0]
        for a2_in, a4_in in ((1.0, 0.0), (0.0, 1.0), (2.5 - 1.25j, 0.75j)):
            ref = port_solution_oracle(m, a4_in, a2_in)
            assert np.allclose(x @ np.array([a2_in, a4_in]), ref, rtol=1e-10, atol=1e-10)


def test_solve_ports_leaves_undriven_paths_zero():
    # a drive on one port alone is answered by that port's column alone: the
    # paths out of the undriven port (its column) contribute nothing
    rng = np.random.default_rng(25)
    for _ in range(50):
        (m,) = _random_matrices(rng, 1)
        x = solve_port_system_many(m[..., None])[..., 0]
        for col, (a2_in, a4_in) in enumerate([(2.0 - 1j, 0.0), (0.0, -0.5j)]):
            lam = a2_in if col == 0 else a4_in
            ref = port_solution_oracle(m, a4_in, a2_in)
            assert np.allclose(ref, lam * x[:, col], rtol=1e-10, atol=1e-10)
            assert x[0, col] != 0 or x[1, col] != 0


def test_identity_network_routes_straight_through():
    x = solve_port_system_many(np.eye(4, dtype=complex)[..., None])[..., 0]
    # port-2 drive: s12 = a1_out, s32 = a3_out; port-4 drive: s14, s34
    assert x[0, 0] == 0 and x[1, 0] == 1
    assert x[1, 1] == 0 and x[0, 1] == 1
    assert x[2, 0] == 0 and x[3, 0] == 0 and x[2, 1] == 0 and x[3, 1] == 0


def test_balanced_network_conserves_power():
    # two 50/50 splitters around equal pure-phase arms: all the power must
    # come out of the far-side ports, none reflected
    bs = np.array(
        [
            [-1j, 0, -1, 0],
            [0, 1j, 0, -1],
            [-1, 0, -1j, 0],
            [0, -1, 0, 1j],
        ],
        dtype=complex,
    ) / math.sqrt(2)
    for phase in np.linspace(0, 2 * math.pi, 17):
        arm = np.diag(np.exp(1j * phase * np.ones(4)))
        total = bs @ arm @ bs
        x = solve_port_system_many(total[..., None])[..., 0]
        for col in range(2):
            assert abs(np.sum(np.abs(x[:, col]) ** 2) - 1.0) <= 1e-9


def test_singular_system_reports_frequency():
    m = np.eye(4, dtype=complex)
    m[1, 1] = 0.0  # kills the a1_in constraint row
    with pytest.raises(SingularSystem) as err:
        solve_port_system_many(m[..., None], frequencies=np.array([3e9]))
    assert err.value.frequency == 3e9
    assert "(at 3e+09 Hz)" in str(err.value)
    with pytest.raises(SingularSystem) as err2:
        solve_port_system_many(m[..., None])
    assert err2.value.frequency is None


def test_singular_point_in_stack_names_its_own_frequency():
    stack = np.stack([np.eye(4, dtype=complex)] * 5, axis=-1)
    stack[1, 1, 3] = 0.0  # only the fourth point is exactly singular
    freqs = np.array([1e9, 2e9, 3e9, 4e9, 5e9])
    with pytest.raises(SingularSystem) as err:
        solve_port_system_many(stack, frequencies=freqs)
    assert err.value.frequency == 4e9


def test_nonfinite_total_is_rejected():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.inf
    with pytest.raises(NonFinite):
        solve_port_system_many(m[..., None])


def test_condition_limit_is_way_above_working_range():
    rng = np.random.default_rng(26)
    (m,) = _random_matrices(rng, 1)
    assert COND_LIMIT >= 1e10
    solve_port_system_many(m[..., None])  # typical random systems pass the gate


def _explicit_port_matrix(m):
    """4x4 port system in the unknowns (a1_out, a3_out, a4_out, a2_out)."""
    a = np.zeros_like(m)
    a[..., 0, 0] = 1.0
    a[..., 2, 1] = 1.0
    a[..., 0, 2:] = -m[..., 0, [1, 3]]
    a[..., 1, 2:] = m[..., 1, [1, 3]]
    a[..., 2, 2:] = -m[..., 2, [1, 3]]
    a[..., 3, 2:] = m[..., 3, [1, 3]]
    return a


def _near_singular(rng, count, k):
    # B = [[1, u], [i, i*u + 2^-k]] has det exactly 2^-k in binary floating
    # point, so both sides of the comparison see the same system
    m = _random_matrices(rng, count)
    u = rng.integers(-4, 5, count) + 1j * rng.integers(-4, 5, count)
    m[:, 1, 1] = 1.0
    m[:, 1, 3] = u
    m[:, 3, 1] = 1j
    m[:, 3, 3] = 1j * u + 2.0 ** -k
    return m


def test_gate_condition_matches_explicit_port_matrix():
    rng = np.random.default_rng(27)
    stacks = [_random_matrices(rng, 500)]
    stacks += [_near_singular(rng, 200, k) for k in (10, 20, 30, 34, 38, 42)]
    for m in stacks:
        _, cond = _det_and_cond1(np.moveaxis(m, 0, -1))
        ref = np.linalg.cond(_explicit_port_matrix(m), 1)
        assert np.all(np.abs(cond - ref) <= 1e-12 * ref)


def test_gate_trips_where_the_explicit_condition_exceeds_the_limit():
    rng = np.random.default_rng(28)
    for k in range(30, 44):
        m = _near_singular(rng, 20, k)
        over = np.linalg.cond(_explicit_port_matrix(m), 1) > COND_LIMIT
        for total, expect_error in zip(m, over):
            if expect_error:
                with pytest.raises(SingularSystem):
                    solve_port_system_many(total[..., None])
            else:
                solve_port_system_many(total[..., None])


@pytest.mark.parametrize("kind", ["ideal", "branchline"])
def test_sweep_totals_match_the_oracle(kind):
    qubit = QubitScatterer(omega01=2 * math.pi * 5.2e9, gamma1=2 * math.pi * 20e6,
                           gamma_phi=2 * math.pi * 5e6, r0=0.9)
    spec = make_interferometer(center_hz=5.746e9, qubit=qubit, splitter_kind=kind)
    freqs = np.linspace(5.1e9, 5.3e9, 41)
    totals = total_matrix_stack(spec, 2 * math.pi * freqs)
    trace = sweep(spec, freqs)
    for i, m in enumerate(np.moveaxis(totals, -1, 0)):
        a1_2, a3_2, _, _ = port_solution_oracle(m, 0.0, 1.0)
        a1_4, a3_4, _, _ = port_solution_oracle(m, 1.0, 0.0)
        want = {"s12": a1_2, "s32": a3_2, "s34": a3_4, "s14": a1_4}
        for path, value in want.items():
            assert abs(trace.values[path][i] - value) <= 1e-12 * max(abs(value), 1.0)
