"""Component factories, the swept forward model, and trace serialization."""
import io
import math
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzq import components, netcore
from mzq.components import (
    CROSS_PATHS,
    PATHS,
    BeamSplitterModel,
    CircuitSpec,
    DegenerateScatterer,
    LineParams,
    QubitScatterer,
    SpectrumTrace,
    TraceParseError,
    bs_stack,
    make_interferometer,
    qubit_stack,
    read_trace,
    sweep,
    synthesize,
    tl_stack,
    total_matrix_stack,
    trace_from_csv,
    trace_from_json,
    write_csv,
    write_csv_columns,
    write_trace_csv,
    write_trace_json,
)
from mzq.components import _lineshape, _reflection_embedding, _transmission
from mzq.netcore import SingularSystem, solve_port_system_many

from oracles import (csv_columns_oracle, splitter_stack_oracle, sweep_whole_grid_oracle,
                     trace_csv_oracle, trace_json_oracle, transfer_chain_oracle)

CENTER_HZ = 5.746e9
W_CENTER = 2 * math.pi * CENTER_HZ

IDEAL_BS = np.array(
    [
        [-1j, 0, -1, 0],
        [0, 1j, 0, -1],
        [-1, 0, -1j, 0],
        [0, -1, 0, 1j],
    ],
    dtype=complex,
) / math.sqrt(2)


# ---------------------------------------------------------------------------
# transmission-line sections
# ---------------------------------------------------------------------------

def test_line_with_zero_parameters_is_identity():
    d = tl_stack(LineParams(), np.array([W_CENTER, 2 * W_CENTER]))
    assert d.shape == (4, 2)
    assert np.array_equal(d, np.ones((4, 2), dtype=complex))


def test_line_half_wave_flips_sign():
    d = 1.0 / (2 * CENTER_HZ)
    factors = tl_stack(LineParams(phase_rate=(d, d, d, d)), np.array([W_CENTER]))[:, 0]
    assert np.allclose(factors, -1, rtol=0, atol=1e-12)


def test_line_attenuation_damps_one_segment():
    d = tl_stack(LineParams(attenuation=(0.1, 0.0, 0.0, 0.0)), np.array([W_CENTER]))[:, 0]
    assert abs(d[0] - math.exp(-0.1)) <= 1e-15
    assert d[1] == 1 and d[2] == 1 and d[3] == 1


def test_line_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LineParams(attenuation=(-0.1, 0, 0, 0))
    with pytest.raises(ValueError):
        LineParams(phase_rate=(math.nan, 0, 0, 0))
    with pytest.raises(ValueError):
        LineParams(phase_rate=(1e-10, 0, 0))


# ---------------------------------------------------------------------------
# splitters
# ---------------------------------------------------------------------------

def test_ideal_splitter_matrix():
    m = bs_stack(BeamSplitterModel(kind="ideal"), np.array([W_CENTER]))[..., 0]
    assert np.allclose(m, IDEAL_BS, rtol=0, atol=1e-15)
    assert abs(m[0, 0] - (-1j / math.sqrt(2))) <= 1e-15
    assert abs(m[0, 2] - (-1 / math.sqrt(2))) <= 1e-15


def test_branchline_matches_ideal_at_center_only():
    bl = BeamSplitterModel(kind="branchline", center_frequency=W_CENTER)
    at_center = bs_stack(bl, np.array([W_CENTER]))[..., 0]
    assert np.max(np.abs(at_center - IDEAL_BS)) <= 1e-9
    off = bs_stack(bl, np.array([1.2 * W_CENTER]))[..., 0]
    assert np.max(np.abs(off - IDEAL_BS)) > 0.1


def test_branchline_is_singular_at_twice_center():
    bl = BeamSplitterModel(kind="branchline", center_frequency=W_CENTER)
    with pytest.raises(SingularSystem) as err:
        bs_stack(bl, np.array([2 * W_CENTER]))
    assert err.value.frequency == pytest.approx(2 * CENTER_HZ, rel=1e-12)


def test_branchline_rows_match_the_column_loop_oracle():
    bl = BeamSplitterModel(kind="branchline", center_frequency=W_CENTER)
    w = W_CENTER * np.linspace(0.3, 1.7, 57)
    assert np.array_equal(np.moveaxis(bs_stack(bl, w), -1, 0), splitter_stack_oracle(bl, w))


def test_ideal_splitter_stack_is_a_read_only_view():
    ideal = BeamSplitterModel(kind="ideal")
    w = W_CENTER * np.linspace(0.5, 1.5, 5)
    m = bs_stack(ideal, w)
    assert m.shape == (4, 4, 5) and not m.flags.writeable
    assert np.array_equal(np.moveaxis(m, -1, 0), splitter_stack_oracle(ideal, w))


def test_splitter_model_validation():
    with pytest.raises(ValueError):
        BeamSplitterModel(kind="magic")
    with pytest.raises(ValueError):
        BeamSplitterModel(kind="branchline")  # needs a center frequency
    BeamSplitterModel(kind="ideal")  # no center required


# ---------------------------------------------------------------------------
# the two-level scatterer
# ---------------------------------------------------------------------------

def test_reflection_peaks_on_resonance():
    q = QubitScatterer(omega01=W_CENTER, gamma1=2e6, gamma_phi=1e6, r0=0.7)
    w = np.array([W_CENTER])
    r = _lineshape(q, w)[0]
    t = _transmission(r, w)
    assert r[0] == pytest.approx(0.7, abs=1e-15)
    assert t[0] == pytest.approx(0.3, abs=1e-15)


def test_reflection_at_one_linewidth_detuning():
    # gamma2 = gamma1/2 + gamma_phi = 2e6; probe exactly one gamma2 above
    q = QubitScatterer(omega01=W_CENTER, gamma1=2e6, gamma_phi=1e6, r0=1.0)
    r = _lineshape(q, np.array([W_CENTER + 2e6]))[0]
    assert r[0] == pytest.approx((1 - 1j) / 2, abs=1e-12)


def test_reflection_vanishes_far_from_resonance():
    q = QubitScatterer(omega01=W_CENTER, gamma1=2e6, gamma_phi=1e6, r0=0.9)
    r = _lineshape(q, np.array([W_CENTER + 2e6 * 1e6]))[0]
    assert abs(r[0]) < 1e-5


def test_reflection_plus_transmission_is_exactly_one():
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = QubitScatterer(
            omega01=W_CENTER * rng.uniform(0.5, 1.5),
            gamma1=10 ** rng.uniform(5, 7),
            gamma_phi=10 ** rng.uniform(4, 7),
            r0=rng.uniform(0.05, 1.0),
            rabi=10 ** rng.uniform(4, 7),
        )
        w = q.omega01 + np.linspace(-5, 5, 11) * 1e7
        r = _lineshape(q, w)[0]
        t = _transmission(r, w)
        assert np.max(np.abs(r + t - 1.0)) <= 1e-15


def test_drive_saturation_suppresses_reflection():
    gamma1, gamma_phi = 2e6, 1e6
    rabi = 3e6
    sat = rabi**2 / (gamma1 * (gamma1 / 2 + gamma_phi))
    q = QubitScatterer(omega01=W_CENTER, gamma1=gamma1, gamma_phi=gamma_phi,
                       r0=0.8, rabi=rabi)
    r = _lineshape(q, np.array([W_CENTER]))[0]
    assert r[0] == pytest.approx(0.8 / (1 + sat), rel=1e-12)


def test_scatterer_block_at_half_reflection():
    # r = t = 1/2 on resonance gives the transfer block [[0, 1], [-1, 2]]
    q = QubitScatterer(omega01=W_CENTER, gamma1=2e6, gamma_phi=1e6, r0=0.5)
    blocks = qubit_stack(_lineshape(q, np.array([W_CENTER]))[0], np.array([W_CENTER]))
    assert blocks.shape == (2, 2, 1)
    assert np.allclose(blocks[..., 0], [[0, 1], [-1, 2]], rtol=0, atol=1e-14)


def test_scatterer_block_inverts_back_to_r_and_t():
    rng = np.random.default_rng(32)
    for _ in range(25):
        q = QubitScatterer(
            omega01=W_CENTER,
            gamma1=10 ** rng.uniform(5, 7),
            gamma_phi=10 ** rng.uniform(4, 7),
            r0=rng.uniform(0.1, 0.95),
        )
        w = np.array([W_CENTER + rng.uniform(-3e6, 3e6)])
        r = _lineshape(q, w)[0]
        t = _transmission(r, w)
        block = qubit_stack(r, w)[..., 0]
        t_back = 1 / block[1, 1]
        r_back = block[0, 1] * t_back
        assert abs(t_back - t[0]) <= 1e-12
        assert abs(r_back - r[0]) <= 1e-12
        assert abs(block[0, 0] - (t[0] ** 2 - r[0] ** 2) / t[0]) <= 1e-12
        assert abs(block[1, 0] + r[0] / t[0]) <= 1e-12


def test_full_reflection_on_resonance_is_degenerate():
    q = QubitScatterer(omega01=W_CENTER, gamma1=2e6, gamma_phi=1e6, r0=1.0)
    with pytest.raises(DegenerateScatterer) as err:
        qubit_stack(_lineshape(q, np.array([W_CENTER]))[0], np.array([W_CENTER]))
    assert isinstance(err.value, SingularSystem)  # one handler covers every degeneracy
    assert err.value.frequency == pytest.approx(CENTER_HZ, rel=1e-12)
    assert f"{CENTER_HZ:.9g}" in str(err.value)


@pytest.mark.parametrize("build", [
    lambda spec, f, r: total_matrix_stack(spec, 2 * math.pi * f, r),
    lambda spec, f, r: _reflection_embedding(spec, f, CROSS_PATHS)(r),
], ids=["chain", "embedding"])
def test_a_given_reflection_of_one_passes_the_same_gate(build):
    # sweep, the chain's r path and the embedding share one |1 - r| gate: full
    # reflection at one interior frequency is refused there, not divided by
    f = np.linspace(5.7e9, 5.8e9, 5)
    r = np.full(f.size, 0.5 + 0.1j)
    r[2] = 1.0
    with pytest.raises(DegenerateScatterer) as err:
        build(make_interferometer(), f, r)
    assert err.value.frequency == pytest.approx(f[2], rel=1e-12)
    assert f"{f[2]:.9g} Hz" in str(err.value)


def test_scatterer_parameter_validation():
    with pytest.raises(ValueError):
        QubitScatterer(omega01=-1.0, gamma1=1e6, gamma_phi=1e5, r0=0.9)
    with pytest.raises(ValueError):
        QubitScatterer(omega01=W_CENTER, gamma1=1e6, gamma_phi=1e5, r0=1.5)
    with pytest.raises(ValueError):
        QubitScatterer(omega01=W_CENTER, gamma1=1e6, gamma_phi=1e5, r0=0.0)
    with pytest.raises(ValueError):
        QubitScatterer(omega01=W_CENTER, gamma1=0.0, gamma_phi=0.0, r0=0.9)
    # the field rule (tests/test_physics.py) takes a negative omega01; zero is this rule's
    with pytest.raises(ValueError, match="^omega01 must be > 0$"):
        QubitScatterer(omega01=0.0, gamma1=1e6, gamma_phi=1e5, r0=0.9)
    for gamma1, gamma_phi in ((-1e6, 1e6), (1e6, -1e5)):
        with pytest.raises(ValueError):
            QubitScatterer(omega01=W_CENTER, gamma1=gamma1, gamma_phi=gamma_phi, r0=0.9)
    with pytest.raises(ValueError):
        QubitScatterer(omega01=W_CENTER, gamma1=1e6, gamma_phi=1e5, r0=0.9, rabi=-1e6)
    with pytest.raises(ValueError):
        # a drive needs a relaxation channel to saturate against
        QubitScatterer(omega01=W_CENTER, gamma1=0.0, gamma_phi=1e6, r0=0.9, rabi=1e6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(QubitScatterer)])
def test_scatterer_refuses_a_non_finite_field_by_name(name, bad):
    good = dict(omega01=W_CENTER, gamma1=1e6, gamma_phi=1e5, r0=0.9, rabi=1e6)
    with pytest.raises(ValueError) as err:
        QubitScatterer(**{**good, name: bad})
    assert str(err.value) == f"{name} must be finite and >= 0"


def test_far_detuned_scatterer_leaves_circuit_unchanged():
    q = QubitScatterer(omega01=2 * math.pi * 5.0e9, gamma1=2 * math.pi * 1e6,
                       gamma_phi=2 * math.pi * 0.4e6, r0=0.9)
    grid = np.linspace(7.0e9, 7.1e9, 101)
    with_q = sweep(make_interferometer(qubit=q), grid)
    without = sweep(make_interferometer(), grid)
    for path in PATHS:
        assert np.max(np.abs(with_q.values[path] - without.values[path])) < 1e-3


# ---------------------------------------------------------------------------
# swept spectra
# ---------------------------------------------------------------------------

def test_sweep_returns_all_paths_on_common_grid():
    spec = make_interferometer()
    grid = np.linspace(5.6e9, 5.9e9, 51)
    trace = sweep(spec, grid)
    assert set(trace.values) == set(PATHS)
    assert trace.drive_port == 2
    for path in PATHS:
        assert trace.values[path].shape == (51,)
        assert np.all(np.isfinite(trace.values[path]))


def test_sweep_is_pointwise_in_frequency():
    spec = make_interferometer(qubit=QubitScatterer(
        omega01=W_CENTER, gamma1=2 * math.pi * 1e6, gamma_phi=2 * math.pi * 4e5, r0=0.9))
    grid = np.linspace(5.696e9, 5.796e9, 201)
    full = sweep(spec, grid)
    sub = sweep(spec, grid[::10])
    for path in PATHS:
        assert np.allclose(full.values[path][::10], sub.values[path], rtol=1e-12, atol=1e-14)


def test_default_circuit_crosses_over_at_center():
    trace = sweep(make_interferometer(), np.array([CENTER_HZ]))
    assert abs(trace.values["s12"][0]) > 0.7
    assert abs(trace.values["s32"][0]) < 0.3


@pytest.mark.parametrize("kind", ["ideal", "branchline"])
def test_a_scatterer_in_arm_b_mirrors_arm_a(kind):
    # the cross paths stay and the through paths swap; with ideal splitters no
    # path's magnitude moves at all
    q = QubitScatterer(omega01=W_CENTER, gamma1=2 * math.pi * 1e6, gamma_phi=2 * math.pi * 0.4e6,
                       r0=0.9, rabi=2 * math.pi * 1.5e6)
    grid = np.linspace(CENTER_HZ - 250e6, CENTER_HZ + 250e6, 201)
    a, b = (sweep(make_interferometer(qubit=q, qubit_arm=arm, splitter_kind=kind), grid).values
            for arm in "ab")
    for p, mirror in (("s12", "s12"), ("s34", "s34"), ("s32", "s14"), ("s14", "s32")):
        assert np.abs(b[p] - a[mirror]).max() <= 1e-12, p
        if kind == "ideal":
            assert np.abs(np.abs(b[p]) - np.abs(a[p])).max() <= 1e-12, p


def test_symmetric_lossless_circuit_routes_all_power_across():
    d = 1.0 / (2 * CENTER_HZ)
    spec = CircuitSpec(
        splitter=BeamSplitterModel(kind="ideal"),
        lines=LineParams(phase_rate=(d, d, d, d)),
    )
    grid = np.linspace(4e9, 8e9, 21)
    trace = sweep(spec, grid)
    assert np.max(np.abs(np.abs(trace.values["s12"]) - 1.0)) <= 1e-9
    assert np.max(np.abs(trace.values["s32"])) <= 1e-9


def test_lossless_circuit_conserves_power():
    d = 1.0 / (2 * CENTER_HZ)
    spec = CircuitSpec(
        splitter=BeamSplitterModel(kind="ideal"),
        lines=LineParams(phase_rate=(0.0, 0.0, d, d)),
    )
    grid = np.linspace(4e9, 8e9, 101)
    trace = sweep(spec, grid)
    power = np.abs(trace.values["s12"]) ** 2 + np.abs(trace.values["s32"]) ** 2
    assert np.max(np.abs(power - 1.0)) <= 1e-9


def test_calibration_factor_scales_the_sweep():
    spec = make_interferometer()
    grid = np.linspace(5.7e9, 5.8e9, 41)
    base = sweep(spec, grid)
    scale = 0.8 * np.exp(1j * math.pi / 3)
    delay = 2e-10
    cal_spec = replace(spec, cal_scale=scale, cal_delay=delay)
    trace = sweep(cal_spec, grid)
    factor = scale * np.exp(-2j * math.pi * grid * delay)
    for path in PATHS:
        assert np.allclose(trace.values[path], base.values[path] * factor,
                           rtol=1e-12, atol=1e-15)


def test_circuit_spec_validation():
    spec = make_interferometer()
    with pytest.raises(ValueError):
        replace(spec, qubit_arm="c")
    with pytest.raises(ValueError):
        replace(spec, cal_scale=0)
    with pytest.raises(ValueError):
        replace(spec, cal_delay=math.inf)


@pytest.mark.parametrize("kind", ["ideal", "branchline"])
@pytest.mark.parametrize("arm", ["a", "b"])
@pytest.mark.parametrize("with_qubit", [True, False])
def test_total_matrix_stack_matches_the_transfer_chain_oracle(kind, arm, with_qubit):
    rng = np.random.default_rng(41)
    w = W_CENTER * np.linspace(0.6, 1.4, 33)
    for _ in range(5):
        qubit = QubitScatterer(omega01=W_CENTER * rng.uniform(0.9, 1.1),
                               gamma1=2 * math.pi * rng.uniform(1e6, 3e7),
                               gamma_phi=2 * math.pi * rng.uniform(1e5, 1e7),
                               r0=rng.uniform(0.1, 0.95), rabi=2 * math.pi * rng.uniform(0, 2e6))
        spec = CircuitSpec(
            splitter=BeamSplitterModel(kind=kind, center_frequency=W_CENTER),
            lines=LineParams(phase_rate=tuple(rng.uniform(0, 1e-9, 4)),
                             attenuation=tuple(rng.uniform(0, 0.5, 4))),
            qubit=qubit if with_qubit else None,
            qubit_arm=arm,
        )
        want = transfer_chain_oracle(spec, w)
        got = np.moveaxis(total_matrix_stack(spec, w), -1, 0)
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["ideal", "branchline"]),
       delays=st.lists(st.floats(0.0, 1e-9), min_size=4, max_size=4),
       ratios=st.lists(st.floats(0.5, 1.5), min_size=1, max_size=8))
def test_lossless_circuit_conserves_power_in_both_drive_columns(kind, delays, ratios):
    spec = CircuitSpec(splitter=BeamSplitterModel(kind=kind, center_frequency=W_CENTER),
                       lines=LineParams(phase_rate=tuple(delays)))
    out = solve_port_system_many(total_matrix_stack(spec, W_CENTER * np.array(ratios)))
    power = np.sum(np.abs(out) ** 2, axis=0)  # (a1_out, a3_out, a4_out, a2_out) per drive
    assert np.max(np.abs(power - 1.0)) <= 1e-13


def test_total_matrix_stack_shapes():
    spec = make_interferometer()
    w = 2 * math.pi * np.linspace(5.6e9, 5.9e9, 7)
    totals = total_matrix_stack(spec, w)
    assert totals.shape == (4, 4, 7)


# ---------------------------------------------------------------------------
# sweep in blocks of BLOCK_POINTS frequencies
# ---------------------------------------------------------------------------

B = components.BLOCK_POINTS


def _block_spec(kind: str, arm: str, with_qubit: bool) -> CircuitSpec:
    qubit = QubitScatterer(omega01=2 * math.pi * 5.9e9, gamma1=2 * math.pi * 2e6,
                           gamma_phi=2 * math.pi * 1e6, r0=0.9, rabi=2 * math.pi * 1e6)
    return CircuitSpec(splitter=BeamSplitterModel(kind=kind, center_frequency=W_CENTER),
                       lines=LineParams(phase_rate=(1e-10, 2e-10, 3e-11, 4e-10),
                                        attenuation=(0.1, 0.0, 0.2, 0.05)),
                       qubit=qubit if with_qubit else None, qubit_arm=arm,
                       cal_scale=0.8 - 0.3j, cal_delay=1e-10)


@pytest.mark.parametrize("kind", ["ideal", "branchline"])
@pytest.mark.parametrize("arm", ["a", "b"])
@pytest.mark.parametrize("with_qubit", [True, False])
def test_sweep_matches_the_whole_grid_oracle_bit_for_bit(kind, arm, with_qubit):
    spec = _block_spec(kind, arm, with_qubit)
    for n in (1, B - 1, B, B + 1, 2 * B + 3):
        grid = np.linspace(4e9, 8e9, n)
        got, want = sweep(spec, grid), sweep_whole_grid_oracle(spec, grid)
        for p in PATHS:
            assert np.array_equal(got.values[p].view(np.int64), want[p].view(np.int64)), (n, p)


def _gate_case(gate: str, n: int):
    """(spec, grid) whose only failing frequency, for one gate, is the grid's last."""
    f0 = 5.0e9
    q = QubitScatterer(omega01=2 * math.pi * f0, gamma1=2 * math.pi * 1e6, gamma_phi=0.0,
                       r0=1.0 if gate == "scatterer" else 1 - 1e-6)
    if gate == "splitter":
        return make_interferometer(splitter_kind="branchline"), np.linspace(8e9, 2 * CENTER_HZ, n)
    return make_interferometer(qubit=q), np.linspace(4e9, f0, n)


@pytest.mark.parametrize("gate", ["splitter", "scatterer", "port-condition"])
@pytest.mark.parametrize("block", [4, B])
def test_a_gate_in_the_last_block_raises_as_the_whole_grid_does(monkeypatch, gate, block):
    monkeypatch.setattr(components, "BLOCK_POINTS", block)
    if gate == "port-condition":  # |t| = 1e-6 on resonance sets the condition near 2e6, 17 elsewhere
        monkeypatch.setattr(netcore, "COND_LIMIT", 1e3)
    spec, grid = _gate_case(gate, 2 * block + 3)
    with pytest.raises(SingularSystem) as want:
        sweep_whole_grid_oracle(spec, grid)
    with pytest.raises(SingularSystem) as got:
        sweep(spec, grid)
    assert type(got.value) is type(want.value)
    assert (type(got.value) is DegenerateScatterer) == (gate == "scatterer")
    assert got.value.frequency == want.value.frequency == grid[-1]
    assert str(got.value) == str(want.value)


def test_of_two_gates_in_different_blocks_the_lower_block_is_reported(monkeypatch):
    monkeypatch.setattr(components, "BLOCK_POINTS", 4)
    q = QubitScatterer(omega01=2 * math.pi * 5e9, gamma1=2 * math.pi * 1e6, gamma_phi=0.0, r0=1.0)
    spec = make_interferometer(qubit=q, splitter_kind="branchline")
    grid = np.linspace(5e9, 2 * CENTER_HZ, 11)  # scatterer fails first, splitter last
    with pytest.raises(SingularSystem) as whole:
        sweep_whole_grid_oracle(spec, grid)
    assert type(whole.value) is SingularSystem and whole.value.frequency == grid[-1]
    with pytest.raises(DegenerateScatterer) as blocked:
        sweep(spec, grid)
    assert blocked.value.frequency == grid[0]


@pytest.mark.parametrize("grid, drive_port, message", [
    ([], 2, "freqs must be a non-empty 1-D array"),
    ([5.8e9, 5.7e9], 2, "freqs must be strictly increasing"),
    ([5.7e9, 5.7e9], 2, "freqs must be strictly increasing"),
    ([5.7e9, math.nan], 2, "freqs must be finite"),
    ([5.7e9, math.inf], 2, "freqs must be finite"),
    ([0.0, 5.7e9], 2, "omega must be > 0"),
    ([-1e9, 5.7e9], 2, "omega must be > 0"),
    ([5.7e9, 5.8e9], 3, "drive_port must be None, 2 or 4"),
])
def test_sweep_refuses_what_its_trace_or_splitter_refuses(grid, drive_port, message):
    spec = make_interferometer()
    with pytest.raises(ValueError, match=message):
        sweep(spec, grid, drive_port=drive_port)
    with pytest.raises(ValueError, match=message):
        synthesize(spec, grid, drive_port=drive_port, noise_sigma=0.01)


def test_a_grid_wider_than_the_float_range_is_ordered_without_overflow():
    # np.diff of this grid overflows to inf, with a RuntimeWarning
    edge = 1.7976931348623157e308
    trace = SpectrumTrace(freqs=[-edge, edge], values={"s12": np.ones(2, complex)})
    assert list(trace.freqs) == [-edge, edge]
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectrumTrace(freqs=[edge, -edge], values={"s12": np.ones(2, complex)})


def _peak_above_base(fn, *args):
    """(result, peak bytes traced during fn(*args) beyond those it keeps, bytes it keeps)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - kept, kept - base


def test_sweep_and_the_trace_writers_work_in_block_sized_memory(monkeypatch, tmp_path):
    block = 256
    monkeypatch.setattr(components, "BLOCK_POINTS", block)
    # 16 (B,4,4) complex stacks; on these 64 blocks the whole-grid route takes
    # about 14 MB in sweep and over 3 MB in each writer
    bound = 16 * block * 16 * 16
    spec = _block_spec("branchline", "a", True)
    trace, extra, kept = _peak_above_base(sweep, spec, np.linspace(4e9, 8e9, 64 * block))
    assert kept >= 4 * 64 * block * 16  # the four path arrays
    assert extra < bound
    # one path: the writers go path by path, and tracemalloc's time grows with the rows
    one = SpectrumTrace(freqs=trace.freqs, values={"s12": trace.values["s12"]}, label="m")
    for write, name in [(write_trace_csv, "t.csv"), (write_trace_json, "t.json")]:
        _, extra, _ = _peak_above_base(write, tmp_path / name, one)
        assert extra < bound, name


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesize_is_deterministic_per_seed():
    spec = make_interferometer()
    grid = np.linspace(5.7e9, 5.8e9, 101)
    a = synthesize(spec, grid, noise_sigma=0.02, seed=5)
    b = synthesize(spec, grid, noise_sigma=0.02, seed=5)
    c = synthesize(spec, grid, noise_sigma=0.02, seed=6)
    for path in PATHS:
        assert np.array_equal(a.values[path], b.values[path])
    assert not np.array_equal(a.values["s12"], c.values["s12"])
    assert a.noise_sigma == 0.02


def test_synthesize_zero_noise_equals_sweep():
    spec = make_interferometer()
    grid = np.linspace(5.7e9, 5.8e9, 101)
    clean = sweep(spec, grid)
    synth = synthesize(spec, grid, noise_sigma=0.0, seed=9)
    for path in PATHS:
        assert np.array_equal(clean.values[path], synth.values[path])


def test_synthesize_noise_level_matches_request():
    spec = make_interferometer()
    grid = np.linspace(5.0e9, 6.5e9, 20000)
    sigma = 0.05
    noisy = synthesize(spec, grid, noise_sigma=sigma, seed=17)
    clean = sweep(spec, grid)
    resid = noisy.values["s12"] - clean.values["s12"]
    assert np.std(resid.real) == pytest.approx(sigma, rel=0.05)
    assert np.std(resid.imag) == pytest.approx(sigma, rel=0.05)


def test_synthesize_rejects_bad_noise():
    spec = make_interferometer()
    grid = np.linspace(5.7e9, 5.8e9, 11)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            synthesize(spec, grid, noise_sigma=sigma)


# ---------------------------------------------------------------------------
# trace containers and serialization
# ---------------------------------------------------------------------------

def test_trace_requires_increasing_grid_and_known_paths():
    grid = np.array([1e9, 2e9, 3e9])
    vals = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        SpectrumTrace(freqs=grid[::-1], values={"s12": vals[::-1]})
    with pytest.raises(ValueError):
        SpectrumTrace(freqs=grid, values={"sXY": vals})
    with pytest.raises(ValueError):
        SpectrumTrace(freqs=grid, values={})
    with pytest.raises(ValueError):
        SpectrumTrace(freqs=grid, values={"s12": vals[:2]})


def test_cross_path_follows_drive_port():
    grid = np.array([1e9, 2e9])
    vals = np.ones(2, dtype=complex)
    both = {"s12": vals, "s34": vals}
    assert SpectrumTrace(freqs=grid, values=both, drive_port=2).cross_path() == "s12"
    assert SpectrumTrace(freqs=grid, values=both, drive_port=4).cross_path() == "s34"
    only34 = SpectrumTrace(freqs=grid, values={"s34": vals}, drive_port=2)
    assert only34.cross_path() == "s34"
    with pytest.raises(ValueError):
        SpectrumTrace(freqs=grid, values={"s32": vals}).cross_path()
    with pytest.raises(ValueError, match="drive_port must be None, 2 or 4"):
        SpectrumTrace(freqs=grid, values=both, drive_port=3)


def _example_trace():
    spec = make_interferometer(qubit=QubitScatterer(
        omega01=W_CENTER, gamma1=2 * math.pi * 1.1e6,
        gamma_phi=2 * math.pi * 0.33e6, r0=0.87))
    grid = np.linspace(5.696e9, 5.796e9, 97)
    trace = synthesize(spec, grid, noise_sigma=0.013, seed=23, label="bench run 4")
    trace.flux_phi0 = 0.2125
    return trace


def test_csv_round_trip_is_bit_exact(tmp_path):
    trace = _example_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace(path)
    assert np.array_equal(back.freqs, trace.freqs)
    for p in PATHS:
        assert np.array_equal(back.values[p], trace.values[p])
    assert back.label == trace.label
    # a second write of the re-read trace reproduces the bytes
    again = tmp_path / "again.csv"
    write_trace_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_json_round_trip_keeps_metadata(tmp_path):
    trace = _example_trace()
    path = tmp_path / "trace.json"
    write_trace_json(path, trace)
    back = read_trace(path)
    assert np.array_equal(back.freqs, trace.freqs)
    for p in PATHS:
        assert np.array_equal(back.values[p], trace.values[p])
    assert back.label == trace.label
    assert back.noise_sigma == trace.noise_sigma
    assert back.drive_port == trace.drive_port
    assert back.flux_phi0 == trace.flux_phi0
    again = tmp_path / "again.json"
    write_trace_json(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_trace_json_layout(tmp_path):
    trace = SpectrumTrace(freqs=np.array([5.0e9, 5.5e9]), label="two",
                          values={"s12": np.array([0.25 - 0.5j, -1.0 + 0.0j])},
                          noise_sigma=0.01, drive_port=2, flux_phi0=0.125)
    path = tmp_path / "trace.json"
    write_trace_json(path, trace)
    assert path.read_text() == """{
 "label": "two",
 "noise_sigma": 0.01,
 "drive_port": 2,
 "flux_phi0": 0.125,
 "freq_hz": [
  5000000000.0,
  5500000000.0
 ],
 "paths": {
  "s12": {
   "re": [
    0.25,
    -1.0
   ],
   "im": [
    -0.5,
    0.0
   ]
  }
 }
}"""


_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                               -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308])


@st.composite
def _odd_traces(draw):
    freqs = sorted(draw(st.lists(st.floats(-1e300, 1e300) | _ODD_FLOATS.filter(math.isfinite),
                                 min_size=1, max_size=12, unique=True)))
    samples = st.lists(st.floats() | _ODD_FLOATS, min_size=2 * len(freqs),
                       max_size=2 * len(freqs))
    paths = draw(st.lists(st.sampled_from(PATHS), min_size=1, unique=True))
    label = draw(st.text(st.sampled_from(list('ab 7,"\n;%\'')), max_size=8))
    return SpectrumTrace(freqs=np.array(freqs), label=label,
                         values={p: np.array(draw(samples)).view(complex) for p in paths})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trace=_odd_traces())
def test_csv_writer_matches_the_row_by_row_oracle(trace):
    _check_csv_writer(trace)


def _check_csv_writer(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(path, trace)
        text = path.read_bytes().decode()
    assert text == trace_csv_oracle(trace)
    if all(np.isfinite(v).all() for v in trace.values.values()):
        back = trace_from_csv(text)
        assert back.label == trace.label
        # bit patterns, so that -0.0 and subnormals must survive too
        assert np.array_equal(back.freqs.view(np.int64), trace.freqs.view(np.int64))
        assert back.values.keys() == trace.values.keys()
        for p, v in trace.values.items():
            assert np.array_equal(back.values[p].view(np.int64), v.view(np.int64))


_CSV_TEXT = st.text(st.sampled_from(list('a%",\n\' ')), max_size=6)


@st.composite
def _csv_blocks(draw):
    """(header, columns) for write_csv: float arrays and strs, the two column kinds."""
    n = draw(st.integers(0, 8))
    column = st.one_of(
        st.lists(st.floats() | _ODD_FLOATS, min_size=n, max_size=n).map(np.array),
        _CSV_TEXT)
    columns = draw(st.lists(column, max_size=6))
    header = draw(st.lists(_CSV_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block=_csv_blocks())
def test_csv_columns_match_the_row_by_row_oracle(block):
    _check_csv_columns(block)


def _check_csv_columns(block):
    header, columns = block
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "block.csv"
        write_csv(path, header, columns)
        assert path.read_bytes().decode() == csv_columns_oracle(header, *columns)


@pytest.mark.parametrize("columns", [(np.ones(3), np.ones(2)),
                                     (np.ones(3), "p", np.ones(2))],
                         ids=["template", "with-a-str"])
def test_unequal_columns_raise_before_anything_is_written(columns):
    buf = io.StringIO()
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv_columns(buf, *columns)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("column", [np.arange(3), np.ones(3, dtype=complex), ["a", "b", "c"],
                                    [1.0, 2.0, 3.0], np.float64(1.0), None],
                         ids=["int-array", "complex-array", "list-of-str", "list-of-float",
                              "float-scalar", "none"])
def test_a_column_that_is_no_float_array_or_str_raises_before_anything_is_written(column):
    buf = io.StringIO()
    with pytest.raises(TypeError, match="a CSV column is a float array or a str, not "):
        write_csv_columns(buf, np.ones(3), "p", column)
    assert buf.getvalue() == ""


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trace=_odd_traces(), drive=st.sampled_from([None, 2, 4]),
       flux=st.sampled_from([None, 0.0, -0.0, 0.1875, 5e-324]))
def test_json_writer_matches_json_dump(trace, drive, flux):
    trace.drive_port, trace.flux_phi0 = drive, flux
    _check_json_writer(trace)


def _check_json_writer(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        write_trace_json(path, trace)
        assert path.read_bytes().decode() == trace_json_oracle(trace)


# the drawn traces hold at most 12 rows: blocks of 1 and 2 put every row on a block boundary
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(points=st.sampled_from([1, 2]), trace=_odd_traces(), block=_csv_blocks())
def test_writers_match_their_oracles_across_blocks(points, trace, block):
    with mock.patch.object(components, "BLOCK_POINTS", points):
        _check_csv_writer(trace)
        _check_csv_columns(block)
        _check_json_writer(trace)


def test_json_writer_keeps_json_dump_bytes_on_four_paths(tmp_path):
    edges = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308,
             1.7976931348623157e308, 1e-5, 1e16, 0.1]
    trace = _example_trace()
    for p in PATHS:
        trace.values[p][:len(edges)] = np.array(edges) - 1j * np.array(edges[::-1])
    trace.freqs[0] = -0.0
    write_trace_json(tmp_path / "trace.json", trace)
    assert (tmp_path / "trace.json").read_bytes() == trace_json_oracle(trace).encode()


def test_csv_parse_errors_carry_line_numbers():
    trace = _example_trace()
    lines = trace_csv_oracle(trace).splitlines()
    lines[2] = lines[2].replace(",", ";", 1)  # wrong field count on line 3
    with pytest.raises(TraceParseError, match="line 3"):
        trace_from_csv("\n".join(lines))

    lines = trace_csv_oracle(trace).splitlines()
    first = lines[1].split(",")
    first[1] = "not-a-number"
    lines[1] = ",".join(first)
    with pytest.raises(TraceParseError, match="line 2"):
        trace_from_csv("\n".join(lines))

    with pytest.raises(TraceParseError, match="line 1"):
        trace_from_csv("freq,re,im\n")
    # an empty file is a missing header, as in a rate table
    with pytest.raises(TraceParseError, match="^line 1: expected header freq_hz,re,im,path"):
        trace_from_csv("")
    lines = trace_csv_oracle(trace).splitlines()
    with pytest.raises(TraceParseError, match="^line 3: expected 5 fields, got 1$"):
        trace_from_csv("\n".join([*lines[:2], " ", *lines[2:]]))


def test_json_parse_errors():
    with pytest.raises(TraceParseError, match="line 1"):
        trace_from_json("{not json")
    with pytest.raises(TraceParseError):
        trace_from_json("{\"freq_hz\": [1.0, 2.0]}")


def test_csv_drops_synthesis_metadata_json_keeps_it(tmp_path):
    trace = _example_trace()
    write_trace_csv(tmp_path / "trace.csv", trace)
    from_csv = trace_from_csv((tmp_path / "trace.csv").read_text())
    assert from_csv.noise_sigma == 0.0 and from_csv.flux_phi0 is None
    write_trace_json(tmp_path / "trace.json", trace)
    from_json = trace_from_json((tmp_path / "trace.json").read_text())
    assert from_json.noise_sigma == trace.noise_sigma
