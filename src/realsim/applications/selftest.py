"""A real simulation that defeats naive self-testing claims.

An entangled qubit pair is pushed through a single-qubit gate on side A
and the compensating conjugate gate on side B.  The same protocol is run
on the real encoded side with one ancilla qubit per party, using only
operators local to each party.  Every joint outcome of an
informationally complete probe measurement matches, so no statistics
distinguish the two realizations, yet the encoded states are not the
logical ones in disguise: encoded inner products only recover real
parts, which the witness pair exposes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..encoding import apply_lift, encode_amplitudes
from ..linalg import apply_on_axis, is_unitary

_S2 = np.sqrt(0.5)
_PROBE_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_S2, _S2], dtype=complex),
    np.array([_S2, -_S2], dtype=complex),
    np.array([_S2, 1j * _S2]),
    np.array([_S2, -1j * _S2]),
)


class SelfTestTranscript(NamedTuple):
    """The witness pair whose encoded inner product loses the phase, and probe statistics of both sides per stage.

    The fields are in the order of the `selftest` report's keys.
    """

    max_stat_gap: float
    witness_state_a: np.ndarray
    witness_state_b: np.ndarray
    witness_real_part: float
    witness_modulus: float
    product_state_gap: float
    statistics_logical: np.ndarray
    statistics_simulated: np.ndarray


def probe_povm() -> list[np.ndarray]:
    """Informationally complete six-element POVM from the axis eigenstates."""
    return [np.outer(p, p.conj()) / 3.0 for p in _PROBE_STATES]


def _product_gap(v: np.ndarray) -> float:
    """Distance from the best product state across the system/ancilla cut.

    Computed from the Schmidt tail directly; 1 - s0^2 would square away
    the precision right where factorization holds.
    """
    s = np.linalg.svd(v.reshape(4, 4), compute_uv=False)
    return float(np.sqrt(np.sum(s[1:] ** 2)))


def selftest_counterexample(t_gate: np.ndarray | None = None) -> SelfTestTranscript:
    """Run the protocol with gate T and its local real simulation.

    Stages: the entangled pair, the pair after T on side A, and the pair
    after the conjugate gate on side B (which returns it).  All 36 joint
    outcomes of the six-element probe POVM are compared per stage.  The
    witness pair is ((|0>+|1>)/sqrt2, T (|0>+|1>)/sqrt2); for a T with
    complex entries its encoded inner product falls short of the modulus.
    """
    t = np.array([[1.0, 0.0], [0.0, 1.0j]] if t_gate is None else t_gate, dtype=complex)
    if t.shape != (2, 2):
        raise ValueError(f"t_gate must be 2x2, got shape {t.shape}")
    if not is_unitary(t):
        raise ValueError("t_gate must be unitary")

    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[0] = phi_plus[3] = _S2
    after_a = apply_on_axis(t, phi_plus.reshape(2, 2), 0)
    logical = (phi_plus, after_a.reshape(-1), apply_on_axis(t.conj(), after_a, 1).reshape(-1))

    enc0 = encode_amplitudes(phi_plus, (2, 2), 2)
    enc_a = apply_lift(t, enc0, (2, 2), 0)
    simulated = (enc0, enc_a, apply_lift(t.conj(), enc_a, (2, 2), 1))

    # The probe elements are Hermitian, so their lifts are symmetric, and the two
    # parties' elements commute: <z| A_a B_b |z> = (A_a z)^dagger (B_b z), from one
    # stacked application per party.
    povm = np.array(probe_povm())
    stats_logical = np.zeros((3, 6, 6))
    stats_simulated = np.zeros((3, 6, 6))
    for stage, (zl, zs) in enumerate(zip(logical, simulated)):
        za = apply_on_axis(povm, zl.reshape(2, 2), 0).reshape(6, 4)
        zb = apply_on_axis(povm, zl.reshape(2, 2), 1).reshape(6, 4)
        stats_logical[stage] = (za.conj() @ zb.T).real
        stats_simulated[stage] = apply_lift(povm, zs, (2, 2), 0) @ apply_lift(povm, zs, (2, 2), 1).T
    gap = float(np.max(np.abs(stats_logical - stats_simulated)))

    # The witness pair is computed here, not taken in, so it is encoded directly rather than admitted as states.
    plus = np.array([_S2, _S2], dtype=complex)
    t_plus = t @ plus
    real_part = float(np.dot(encode_amplitudes(plus, (2,)), encode_amplitudes(t_plus, (2,))))
    return SelfTestTranscript(gap, plus, t_plus, real_part, float(abs(np.vdot(plus, t_plus))),
                              max(_product_gap(v) for v in simulated), stats_logical, stats_simulated)
