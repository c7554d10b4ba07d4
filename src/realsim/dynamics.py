"""Continuous-time evolution carried out entirely with real matrices.

The complex evolution exp(i H t) is mirrored by exp(J H' t), where H' is
the real encoding of H and J rotates the ancilla by XZ.  J commutes with
H' and J^2 = -I, so the real orthogonal propagator is

    exp(s t J H') = cos(t H') + s J sin(t H'),    s = +1 or -1,

and one real eigendecomposition of H' gives it at every time.  The
complex side uses its own eigendecomposition of H, so the two sides are
computed independently and compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encoding import SINGLE_ANCILLA, XZ, EncodedState, Layout, PureState, encode_operator, encode_state, local_xz
from .linalg import AGREEMENT_TOL, EXACT_TOL, ORTHOGONALITY_TOL, apply_on_axis, is_hermitian, kron, matexp


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

    orthogonality_error is how much the encoded propagator changes the
    norm of the state it is applied to and, for a trajectory, also the
    largest entry of |U^T U - I| of the spectral propagator at t_max.  max_deviation compares the encoded states with
    the encodings of the complex ones.  expm_error is the largest entry of
    |U - expm(s t_max J H')| with the exponential by scaling-and-squaring;
    a single `evolve` step makes no dense cross-check and leaves it None.
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


def _apply_j(x: np.ndarray, layout: Layout) -> np.ndarray:
    """J applied to each column of the matrix x.

    J is the identity on the system times XZ on ancilla qubit 0; it acts
    on that qubit's axis of x reshaped to (n, 2, 2^(k-1), columns) and is
    never built.
    """
    t = x.reshape(-1, 2, layout.ancilla_dim // 2, x.shape[1])
    return apply_on_axis(XZ, t, 1).reshape(x.shape)


def _parts(h: Hamiltonian, layout: Layout, xz_qubit: int):
    h_enc = encode_operator(h.matrix, layout, xz_qubit).matrix
    j = kron(np.eye(h.dim), local_xz(layout.k, xz_qubit))
    return j, h_enc


def generator(h: Hamiltonian, layout: Layout = SINGLE_ANCILLA, xz_qubit: int = 0) -> np.ndarray:
    """Real antisymmetric generator J H' of the encoded evolution."""
    j, h_enc = _parts(h, layout, xz_qubit)
    return j @ h_enc


def commutation_check(h: Hamiltonian, layout: Layout = SINGLE_ANCILLA, xz_qubit: int = 0) -> bool:
    """Whether the ancilla rotation commutes with the encoded Hamiltonian."""
    j, h_enc = _parts(h, layout, xz_qubit)
    return bool(np.max(np.abs(j @ h_enc - h_enc @ j)) <= EXACT_TOL)


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
           sign: int = 1, strict: bool = True) -> EvolutionResult:
    """Evolve one time step on both sides and compare.

    sign +1 evolves with exp(+iHt), sign -1 with exp(-iHt).  The complex
    side is W (e^{i s w t} * W^dagger psi) from the spectrum of H; the
    encoded side is V (cos(lambda t) * d) + s (J V) (sin(lambda t) * d)
    with d = V^T psi' from the spectrum of H', in real arithmetic only.  With
    strict=True any tolerance violation raises instead of being folded
    into the result.
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

    if strict and not drift <= ORTHOGONALITY_TOL:
        raise ValueError(f"encoded propagator is not orthogonal: it changes the norm by {drift}")
    if strict and not deviation <= AGREEMENT_TOL:
        raise ValueError(f"encoded evolution deviates from the complex side by {deviation}")

    enc = EncodedState(out, enc0.source_dim, enc0.layout)
    return EvolutionResult((t,), (evolved,), (enc,), drift, deviation)


def trajectory(h: Hamiltonian, psi: PureState, t_max: float, steps: int = 64,
               layout: Layout = SINGLE_ANCILLA, sign: int = 1, strict: bool = True) -> EvolutionResult:
    """Evolve on a uniform time grid and check the propagator once.

    The grid is linspace(0, t_max, steps).  U(t_max) is built from the
    spectrum of H', checked for orthogonality, and compared with the
    dense exponential of the generator.
    """
    sign = _check_sign(sign)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    times = np.linspace(0.0, float(t_max), int(steps))
    results = [evolve(h, float(t), psi, layout, sign, strict) for t in times]

    orthogonality, dense = propagator_errors(h, t_max, layout, sign)
    orthogonality = float(np.max([orthogonality] + [r.orthogonality_error for r in results]))
    if strict and not orthogonality <= ORTHOGONALITY_TOL:
        raise ValueError(f"encoded propagator is not orthogonal: off by {orthogonality}")
    if strict and not dense <= AGREEMENT_TOL:
        raise ValueError(f"spectral propagator deviates from the dense exponential by {dense}")

    return EvolutionResult(
        tuple(float(t) for t in times),
        tuple(r.complex_states[0] for r in results),
        tuple(r.encoded_states[0] for r in results),
        orthogonality,
        float(np.max([r.max_deviation for r in results])),
        dense,
    )
