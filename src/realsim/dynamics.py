"""Continuous-time evolution carried out entirely with real matrices.

The complex evolution exp(i H t) is mirrored by exp(J H' t), where H' is
the real encoding of H and J rotates the ancilla by XZ.  J commutes with
H' and J^2 = -I, so the real orthogonal propagator is

    exp(s t J H') = cos(t H') + s J sin(t H'),    s = +1 or -1,

and one real eigendecomposition of H' gives it at every time.  The
complex side uses its own eigendecomposition of H, so the two sides are
computed independently and compared at every time of a grid.
J is never built: XZ acts along one ancilla axis.  The functions return
what they measure and raise only on malformed arguments; the caller (the
CLI's assertions) judges the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encoding import SINGLE_ANCILLA, XZ, EncodedState, Layout, PureState, encode_operator, encode_state
from .linalg import EXACT_TOL, apply_on_axis, is_hermitian, matexp


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of time evolution, hbar = 1.

    The matrix is read-only, so its eigendecomposition and that of its
    real encoding are computed once and kept on the instance.
    """

    matrix: np.ndarray
    _encoded_spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("Hamiltonian entries must be finite")
        if not is_hermitian(mat):
            raise ValueError("Hamiltonian is not Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w and unitary eigenvectors W of H, H = W diag(w) W^dagger."""
        return _read_only(*np.linalg.eigh(self.matrix))

    def encoded_spectrum(self, layout: Layout = SINGLE_ANCILLA) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues lambda, real orthogonal eigenvectors V and J V for H' = encode_operator(H, layout)."""
        if layout not in self._encoded_spectra:
            lam, v = np.linalg.eigh(encode_operator(self.matrix, layout).matrix)
            self._encoded_spectra[layout] = _read_only(lam, v, _apply_j(v, layout))
        return self._encoded_spectra[layout]


@dataclass(frozen=True)
class EvolutionResult:
    """Matched complex and encoded trajectories with propagator diagnostics.

    orthogonality_error is the largest norm change the encoded propagator
    makes to the state and, for a trajectory, also the largest entry of
    |U^T U - I| of the spectral U(t_max).  max_deviation is the largest
    distance between an encoded state and the encoding of the complex one.
    expm_error is the largest entry of |U - expm(s t_max J H')|, None for a
    single `evolve` step.  The maxima keep NaN, which fails a `<= tol` gate.
    """

    times: tuple[float, ...]
    complex_states: tuple[PureState, ...]
    encoded_states: tuple[EncodedState, ...]
    orthogonality_error: float
    max_deviation: float
    expm_error: float | None = None


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return int(sign)


def _apply_j(x: np.ndarray, layout: Layout, qubit: int = 0) -> np.ndarray:
    """J applied to each column of the matrix x.

    J is the identity on the system times XZ on ancilla qubit `qubit`
    (qubit 0 the most significant); it acts on that qubit's axis of x
    reshaped to (rest, 2, 2^(k-1-qubit), columns) and is never built.
    """
    t = x.reshape(-1, 2, layout.ancilla_dim >> (qubit + 1), x.shape[1])
    return apply_on_axis(XZ, t, 1).reshape(x.shape)


def generator(h: Hamiltonian, layout: Layout = SINGLE_ANCILLA, xz_qubit: int = 0) -> np.ndarray:
    """Real antisymmetric generator J H' of the encoded evolution."""
    return _apply_j(encode_operator(h.matrix, layout, xz_qubit).matrix, layout, xz_qubit)


def commutation_check(h: Hamiltonian, layout: Layout = SINGLE_ANCILLA, xz_qubit: int = 0) -> bool:
    """Whether the ancilla rotation commutes with the encoded Hamiltonian; H'J = -(J H'^T)^T as J^T = -J."""
    h_enc = encode_operator(h.matrix, layout, xz_qubit).matrix
    jh = _apply_j(h_enc, layout, xz_qubit)
    hj = -_apply_j(h_enc.T, layout, xz_qubit).T
    return bool(np.max(np.abs(jh - hj)) <= EXACT_TOL)


def propagator(h: Hamiltonian, t: float, layout: Layout = SINGLE_ANCILLA, sign: int = 1) -> np.ndarray:
    """Dense real U(t) = exp(sign t J H') = cos(t H') + sign J sin(t H') from the spectrum of H'."""
    sign = _check_sign(sign)
    lam, v, jv = h.encoded_spectrum(layout)
    phase = lam * float(t)
    return (v * np.cos(phase)) @ v.T + sign * (jv * np.sin(phase)) @ v.T


def propagator_errors(h: Hamiltonian, t: float, layout: Layout = SINGLE_ANCILLA, sign: int = 1) -> tuple[float, float]:
    """Largest entries of |U^T U - I| and of |U - expm(sign t J H')| for the spectral U(t).

    The second compares against an independent algorithm: a dense
    scaling-and-squaring exponential of the generator.
    """
    u = propagator(h, t, layout, sign)
    orthogonality = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    dense = float(np.max(np.abs(u - matexp((sign * float(t)) * generator(h, layout)))))
    return orthogonality, dense


def evolve(h: Hamiltonian, t: float, psi: PureState, layout: Layout = SINGLE_ANCILLA,
           sign: int = 1) -> EvolutionResult:
    """Evolve one time step on both sides and compare.

    sign +1 evolves with exp(+iHt), sign -1 with exp(-iHt).  The complex
    side is W (e^{i s w t} * W^dagger psi) from the spectrum of H; the
    encoded side is V (cos(lambda t) * d) + s (J V) (sin(lambda t) * d)
    with d = V^T psi' from the spectrum of H', in real arithmetic only.
    """
    sign = _check_sign(sign)
    if h.dim != psi.dim:
        raise ValueError(f"Hamiltonian dimension {h.dim} does not match state dimension {psi.dim}")
    t = float(t)
    w, vecs = h.spectrum
    evolved = PureState(vecs @ (np.exp((1j * sign * t) * w) * (vecs.conj().T @ psi.amplitudes)), psi.factor_dims)

    enc0 = encode_state(psi, layout)
    lam, v, jv = h.encoded_spectrum(layout)
    d = v.T @ enc0.amplitudes
    out = v @ (np.cos(lam * t) * d) + sign * (jv @ (np.sin(lam * t) * d))
    # Measured against the input's own norm, which PureState lets differ from 1 by up to INPUT_TOL.
    drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(enc0.amplitudes)))
    deviation = float(np.linalg.norm(out - encode_state(evolved, layout).amplitudes))
    enc = EncodedState(out, enc0.source_dim, enc0.layout)
    return EvolutionResult((t,), (evolved,), (enc,), drift, deviation)


def trajectory(h: Hamiltonian, psi: PureState, t_max: float, steps: int = 64,
               layout: Layout = SINGLE_ANCILLA, sign: int = 1) -> EvolutionResult:
    """Evolve on a uniform time grid, one `evolve` per point, and check the propagator once.

    The grid is linspace(0, t_max, steps).  U(t_max) is built from the
    spectrum of H', checked for orthogonality, and compared with the
    dense exponential of the generator.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    times = tuple(float(t) for t in np.linspace(0.0, float(t_max), int(steps)))
    results = [evolve(h, t, psi, layout, sign) for t in times]
    orthogonality, dense = propagator_errors(h, t_max, layout, sign)
    return EvolutionResult(times, tuple(r.complex_states[0] for r in results), tuple(r.encoded_states[0] for r in results),
                           float(np.max([orthogonality] + [r.orthogonality_error for r in results])),
                           float(np.max([r.max_deviation for r in results])), dense)
