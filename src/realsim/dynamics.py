"""Continuous-time evolution carried out entirely with real matrices.

The complex evolution exp(i H t) is mirrored by exp(J H' t), where H' is
the real encoding of H and J rotates the ancilla by XZ.  J commutes with
H' and J^2 = -I, so the real orthogonal propagator is

    exp(s t J H') = cos(t H') + s J sin(t H'),    s = +1 or -1,

and one real eigendecomposition of H' gives it at every time.  The
complex side uses its own eigendecomposition of H, so the two sides are
computed independently and compared at every time of a grid.  Both sides
simulate `Hamiltonian.hermitian`, the one Hermitian matrix that eigh
reads of H.  J is never built: encoding's `apply_xz` acts on one ancilla
axis.  J sits on ancilla qubit 0, so with k ancilla qubits H' becomes
H' (x) I and the propagator U(t) (x) I: the other k - 1 qubits are
spectators, and every eigh, exponential and check here is 2n x 2n.
`trajectory` decomposes both matrices once per call and keeps nothing
on the Hamiltonian.  The functions return what they measure and raise
only on malformed arguments; the caller (the CLI's assertions) judges
the measurements.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .encoding import PureState, _check_factors, apply_xz, encode_amplitudes, encode_operator
from .linalg import DEFAULT_MAX_DIM, admit, as_float, as_int, is_hermitian, matexp


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


class Hamiltonian:
    """Hermitian generator of time evolution, hbar = 1.

    `matrix` is kept exactly as given; admission lets it differ from a
    Hermitian matrix by up to INPUT_TOL.  `hermitian`, read-only, is the
    matrix eigh(H) reads: the lower triangle of H, its conjugate above and
    Re diag H, selected rather than summed, so signed zeros keep their
    bits.  Both sides simulate it.
    """

    __slots__ = ("matrix", "hermitian")

    def __init__(self, matrix: np.ndarray):
        m = self.matrix = admit(matrix, "Hamiltonian", square=True)
        if not is_hermitian(m):
            raise ValueError("Hamiltonian is not Hermitian")
        h = np.where(np.tri(self.dim, dtype=bool), m, m.conj().T)
        d = m.diagonal()
        np.fill_diagonal(h, np.where(d.imag == 0.0, d, d.real))
        self.hermitian = _read_only(h)[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class EvolutionResult(NamedTuple):
    """Matched complex and encoded trajectories with propagator diagnostics.

    times is the read-only float64 grid, complex_states a complex (T, n)
    array and encoded_states a real (T, n 2^k) array, one read-only row per
    time.  The rows are computed, not admitted as states: orthogonality_error
    is what judges their norms.
    orthogonality_error is the largest norm change the encoded propagator
    makes to the state and the largest entry of |U^T U - I| of the
    spectral U(t_max).  max_deviation is the largest distance between an
    encoded state and the encoding of the complex one.  expm_error is the
    largest entry of |U - expm(s t_max J H')|.  The maxima keep NaN, which
    fails a `<= tol` gate.
    """

    times: np.ndarray
    complex_states: np.ndarray
    encoded_states: np.ndarray
    orthogonality_error: float
    max_deviation: float
    expm_error: float


def evolve(t: float, complex_side: tuple, encoded_side: tuple, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """One grid point of `trajectory`: (complex state, encoded state) at time t.

    complex_side is (w, W, W^dagger psi) with H = W diag(w) W^dagger, and
    encoded_side is (lambda, V, J V, d) with H' = V diag(lambda) V^T and
    d = V^T psi', psi' read as a (2n, 2^(k-1)) matrix; `trajectory` forms
    both once.  The complex state is W (e^{i s w t} * W^dagger psi), the
    encoded one V (cos(lambda t) * d) + s (J V) (sin(lambda t) * d), in
    real arithmetic only.  Only the phases depend on t; `trajectory` has
    checked that they are finite, and it measures the states once the
    grid is done.
    """
    w, vecs, c = complex_side
    lam, v, jv, d = encoded_side
    phase = (t * lam)[:, None]
    return (vecs @ (np.exp((1j * sign) * (t * w)) * c),
            (v @ (np.cos(phase) * d) + sign * (jv @ (np.sin(phase) * d))).ravel())


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the real matrix x, bit for bit np.linalg.norm of that row.

    norm takes sqrt(x . x) by BLAS ddot; a 1 x m by m x 1 product runs the same ddot, row by row.
    """
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])).ravel()


def _eigh_each(mats: list[np.ndarray], out: list) -> None:
    """Worker body: out receives numpy's eigh of each matrix, or the exception that stopped it.

    It calls numpy only, so no realsim function runs off the main thread.
    """
    try:
        out.extend(map(np.linalg.eigh, mats))
    except Exception as exc:  # raised again by the caller, on the main thread
        out.append(exc)


def trajectory(h: Hamiltonian, psi: PureState, t_max: float, steps: int = 64, k: int = 1,
               sign: int = 1) -> EvolutionResult:
    """Evolve on a uniform time grid and check the propagator once.

    The grid is linspace(0, t_max, steps), so a single time t is the last
    row of trajectory(h, psi, t, steps=2).  sign +1 evolves with exp(+iHt),
    sign -1 with exp(-iHt).  H' is encoded once.  The eigendecompositions
    H = W diag(w) W^dagger and H' = V diag(lambda) V^T run on one worker
    thread, in numpy only, while this thread builds the generator J H' and
    forms its dense exponential; numpy releases the GIL in LAPACK and BLAS,
    so the two overlap.  Both decompositions stay in locals.  psi is then
    projected onto W and, encoded with k ancilla qubits, onto V once, and
    `evolve` turns the phases at each grid point.  The grid's rows are then
    measured together: all complex rows are encoded in one call, and each
    row's norm change and deviation is the norm of one row, as
    np.linalg.norm takes it.  U(t_max) = cos(t_max H')
    + sign J sin(t_max H') is built from the spectrum of H', checked for
    orthogonality, and compared with the dense exponential, at k = 1
    whatever k the states use.  Errors come in this order: arguments (k and
    the state's factors first, then steps, at most DEFAULT_MAX_DIM^2 encoded
    amplitudes on the grid), an exception of the worker, phases on the
    grid, and only then a dense exponential that is not finite.
    """
    _check_factors(psi.factor_dims, k)
    steps = as_int(steps, "steps")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    # The grid keeps steps encoded states of n 2^k entries: bounded as optimize_bell bounds its restarts' states.
    most = DEFAULT_MAX_DIM ** 2 // (psi.dim * 2 ** k)
    if steps > most:
        raise ValueError(f"steps must be at most {most} for {psi.dim} amplitudes at k={k}, got {steps}")
    sign = as_int(sign, "sign")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if h.dim != psi.dim:
        raise ValueError(f"Hamiltonian dimension {h.dim} does not match state dimension {psi.dim}")
    t_max = as_float(t_max, "t_max")
    times = np.linspace(0.0, t_max, steps)
    h_enc = encode_operator(h.hermitian)
    out = []
    worker = threading.Thread(target=_eigh_each, args=([h.hermitian, h_enc], out))
    worker.start()
    try:
        # An overflowing sign t G has a non-finite 1-norm, which matexp rejects, so numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            a = (sign * t_max) * apply_xz(h_enc, 1)
        try:
            dense = matexp(a)
        except ValueError:
            dense = None
    finally:
        worker.join()
    if isinstance(out[-1], Exception):  # the worker stops at its first exception
        raise out[-1]
    (w, vecs), (lam, v) = out
    # Near the largest double eigh can return inf, or t w overflow.  |t| max|w| grows along the grid, so t_max
    # decides.  Python floats overflow to inf, and 0 * inf is NaN, without a warning; np.maximum keeps NaN.
    top = float(np.maximum(np.abs(w).max(), np.abs(lam).max()))
    if not math.isfinite(abs(t_max) * top):
        t = next(t for t in times.tolist() if not math.isfinite(abs(t) * top))
        raise ValueError(f"dynamics: phases t*w of the spectrum are not finite at t={t}")
    jv = apply_xz(v, 1)
    enc0 = encode_amplitudes(psi.amplitudes, psi.factor_dims, k)
    complex_side = w, vecs, vecs.conj().T @ psi.amplitudes
    encoded_side = lam, v, jv, v.T @ enc0.reshape(2 * h.dim, -1)

    complex_states, encoded_states = np.empty((steps, psi.dim), complex), np.empty((steps, enc0.size))
    for i, t in enumerate(times.tolist()):
        complex_states[i], encoded_states[i] = evolve(t, complex_side, encoded_side, sign)
    # Measured against the input's own norm, which PureState lets differ from 1 by up to INPUT_TOL.
    drifts = np.abs(_row_norms(encoded_states) - float(np.linalg.norm(enc0)))
    # The encoding of the complex rows is a fresh array that nothing else holds: it takes the differences in place.
    expected = encode_amplitudes(complex_states, psi.factor_dims, k)
    expected.setflags(write=True)
    deviations = _row_norms(np.subtract(encoded_states, expected, out=expected))
    phase = t_max * lam
    u = (v * np.cos(phase)) @ v.T + sign * (jv * np.sin(phase)) @ v.T
    if dense is None:
        raise ValueError(f"dynamics: dense exponential of the generator is not finite at t={t_max}")
    orthogonality = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    return EvolutionResult(*_read_only(times, complex_states, encoded_states),
                           float(np.max(np.append(drifts, orthogonality))), float(np.max(deviations)),
                           float(np.max(np.abs(u - dense))))
