"""Continuous-time evolution carried out entirely with real matrices.

The complex evolution exp(i H t) is mirrored by exp(J H' t), where H' is
the real encoding of H and J rotates the ancilla by XZ.  J commutes with
H', J is antisymmetric and H' symmetric, so J H' is a real antisymmetric
generator and its exponential is a real orthogonal propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import SINGLE_ANCILLA, EncodedState, Layout, PureState, encode_operator, encode_state, local_xz
from .linalg import dagger, kron, matexp

REALNESS_TOL = 1e-11
AGREEMENT_TOL = 1e-10
COMMUTE_TOL = 1e-12


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of time evolution, hbar = 1."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got shape {mat.shape}")
        if np.max(np.abs(mat - dagger(mat))) > 1e-10:
            raise ValueError("Hamiltonian is not Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EvolutionResult:
    """Matched complex and encoded trajectories with realness diagnostics.

    max_imag is measured on the encoded amplitudes as computed, never
    assumed zero; max_deviation compares against encoding the complex
    result directly.
    """

    times: tuple[float, ...]
    complex_states: tuple[PureState, ...]
    encoded_states: tuple[EncodedState, ...]
    max_imag: float
    max_deviation: float
    group_law_error: float = 0.0


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return int(sign)


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
    return bool(np.max(np.abs(j @ h_enc - h_enc @ j)) <= COMMUTE_TOL)


def evolve(h: Hamiltonian, t: float, psi: PureState, layout: Layout = SINGLE_ANCILLA,
           sign: int = 1, strict: bool = True) -> EvolutionResult:
    """Evolve one time step on both sides and compare.

    sign +1 evolves with exp(+iHt), sign -1 with exp(-iHt).  The encoded
    propagator is exponentiated in complex arithmetic so a realness
    failure would actually show up; with strict=True any tolerance
    violation raises instead of being folded into the result.
    """
    sign = _check_sign(sign)
    if h.dim != psi.dim:
        raise ValueError(f"Hamiltonian dimension {h.dim} does not match state dimension {psi.dim}")
    u = matexp(1j * sign * float(t) * h.matrix)
    evolved = PureState(u @ psi.amplitudes, psi.factor_dims)

    g = generator(h, layout)
    u_real = matexp((sign * float(t)) * g.astype(complex))
    propagator_imag = float(np.max(np.abs(u_real.imag)))

    enc0 = encode_state(psi, layout)
    v = u_real @ enc0.amplitudes.astype(complex)
    max_imag = float(np.max(np.abs(v.imag)))
    target = encode_state(evolved, layout)
    deviation = float(np.linalg.norm(v - target.amplitudes))

    if strict and propagator_imag > REALNESS_TOL:
        raise ValueError(f"encoded propagator has imaginary entries up to {propagator_imag}")
    if strict and deviation > AGREEMENT_TOL:
        raise ValueError(f"encoded evolution deviates from the complex side by {deviation}")

    enc = EncodedState(v.real, enc0.source_dim, enc0.layout)
    return EvolutionResult((float(t),), (evolved,), (enc,), max(max_imag, propagator_imag), deviation)


def trajectory(h: Hamiltonian, psi: PureState, t_max: float, steps: int = 64,
               layout: Layout = SINGLE_ANCILLA, sign: int = 1, strict: bool = True) -> EvolutionResult:
    """Evolve on a uniform time grid and check the one-parameter group law.

    The grid is linspace(0, t_max, steps); three random time pairs probe
    U'(t1) U'(t2) == U'(t1 + t2) with a fixed internal seed.
    """
    sign = _check_sign(sign)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    times = np.linspace(0.0, float(t_max), int(steps))
    results = [evolve(h, float(t), psi, layout, sign, strict) for t in times]

    g = generator(h, layout)
    rng = np.random.default_rng(7)
    hi = abs(float(t_max)) if t_max else 1.0
    group_err = 0.0
    for _ in range(3):
        t1, t2 = rng.uniform(0.0, hi, size=2)
        u1 = matexp(sign * t1 * g)
        u2 = matexp(sign * t2 * g)
        u12 = matexp(sign * (t1 + t2) * g)
        group_err = max(group_err, float(np.max(np.abs(u1 @ u2 - u12))))
    if strict and group_err > AGREEMENT_TOL:
        raise ValueError(f"group law violated by {group_err}")

    return EvolutionResult(
        tuple(float(t) for t in times),
        tuple(r.complex_states[0] for r in results),
        tuple(r.encoded_states[0] for r in results),
        max(r.max_imag for r in results),
        max(r.max_deviation for r in results),
        group_err,
    )
