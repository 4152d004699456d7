"""Port solve and condition gate for a four-mode, two-sided microwave network.

The total 4x4 transfer matrix of the chain (components.total_matrix_stack)
relates the signals on the right-hand ports (1 and 3) to the signals on the
left-hand ports (4 and 2):

    (a1_out, a1_in, a3_out, a3_in)^T = M . (a4_in, a4_out, a2_in, a2_out)^T

Drives enter on the left side (ports 2 and 4); ports 1 and 3 only emit,
so the port solution imposes a1_in = a3_in = 0 and solves for the four
unknown outgoing amplitudes.
"""
from __future__ import annotations

import numpy as np

# Condition-number ceiling above which the port system is treated as singular.
COND_LIMIT = 1e12


class NonFinite(ValueError):
    """Raised when a matrix contains NaN or infinite entries."""


class SingularSystem(ArithmeticError):
    """Raised when the forward model is singular or numerically unusable, naming the frequency."""

    def __init__(self, message: str, frequency: float | None = None):
        if frequency is not None:
            message = f"{message} (at {frequency:.9g} Hz)"
        super().__init__(message)
        self.frequency = frequency


def _det_and_cond1(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(B) and the exact 1-norm condition of the port system, per total.

    m is a (4,4,...) stack: m[i, j] holds M[i, j] of every total.
    B = M[(1,3),(1,3)] and P = M[(0,2),(1,3)]. Ordered as rows (0, 2, 1, 3)
    the 4x4 port system is [[I, -P], [0, B]], whose inverse is
    [[I, P B^-1], [0, B^-1]] with B^-1 = adj(B) / det(B). A singular B
    gives an infinite condition.
    """
    det = m[1, 1] * m[3, 3] - m[1, 3] * m[3, 1]
    col1, col3 = np.abs(m[:, 1]), np.abs(m[:, 3])
    norm = np.maximum(col1.sum(axis=0), col3.sum(axis=0))
    # column sums of [P; I] adj(B), adj(B) = [[M33, -M13], [-M31, M11]]
    inv0 = (col3[3] + col1[3] + np.abs(m[0, 1] * m[3, 3] - m[0, 3] * m[3, 1])
            + np.abs(m[2, 1] * m[3, 3] - m[2, 3] * m[3, 1]))
    inv1 = (col3[1] + col1[1] + np.abs(m[0, 3] * m[1, 1] - m[0, 1] * m[1, 3])
            + np.abs(m[2, 3] * m[1, 1] - m[2, 1] * m[1, 3]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = np.maximum(norm, 1.0) * np.maximum(np.maximum(inv0, inv1) / np.abs(det), 1.0)
    return det, np.where(np.isnan(cond), np.inf, cond)  # B = 0 gives 0/0


def solve_port_system_many(
    totals: np.ndarray, frequencies: np.ndarray | None = None
) -> np.ndarray:
    """Solve both unit-drive port problems for a stack of total matrices.

    totals has shape (4,4,...), frequency-last as total_matrix_stack builds
    it. Returns an array of shape (4,2,...): column 0 holds (a1_out, a3_out,
    a4_out, a2_out) for a unit port-2 drive, column 1 the same for a unit
    port-4 drive.

    With a1_in = a3_in = 0, rows 1 and 3 of the mode relation involve only
    (a4_out, a2_out); that 2x2 block B = M[(1,3),(1,3)] is solved by its
    determinant, and a1_out, a3_out follow from rows 0 and 2. The exact
    1-norm condition of the 4x4 system gates against near-singular totals.
    """
    m = np.asarray(totals, dtype=complex)
    if not np.isfinite(m).all():
        raise NonFinite("total transfer matrix contains non-finite entries")
    det, cond = _det_and_cond1(m)
    bad = cond > COND_LIMIT
    if np.any(bad):
        idx = int(np.argmax(bad))
        freq = None if frequencies is None else float(np.asarray(frequencies).ravel()[idx])
        raise SingularSystem(
            f"port system condition {cond.ravel()[idx]:.3g} exceeds {COND_LIMIT:.0e}",
            frequency=freq,
        )

    out = np.empty((4, 2) + m.shape[2:], dtype=complex)
    for k, drive in enumerate((2, 0)):  # M's input column of a port-2, port-4 drive
        a4_out = out[2, k] = (m[1, 3] * m[3, drive] - m[3, 3] * m[1, drive]) / det
        a2_out = out[3, k] = (m[3, 1] * m[1, drive] - m[1, 1] * m[3, drive]) / det
        out[0, k] = m[0, drive] + m[0, 1] * a4_out + m[0, 3] * a2_out
        out[1, k] = m[2, drive] + m[2, 1] * a4_out + m[2, 3] * a2_out
    return out
