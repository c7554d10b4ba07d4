"""Logical ancilla spread over k qubits and local lifting of party operators.

Storing the encoding ancilla in a k-qubit stabilizer subspace lets each
party act on its own qubit: XZ applied to any single ancilla qubit
performs the logical XZ on the shared two-dimensional codespace, so a
per-party complex operator lifts to a real operator touching only that
party's system factor and that party's ancilla qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodedOperator, Layout, encode_operator, local_xz, logical_states
from .linalg import EXACT_TOL, RANK_TOL, kron


@dataclass(frozen=True)
class PartitionedSystem:
    """Tensor factorization of the system across parties."""

    party_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.party_dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError("party_dims must be nonempty with every dimension >= 2")
        object.__setattr__(self, "party_dims", dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.party_dims))

    @property
    def parties(self) -> int:
        return len(self.party_dims)


@dataclass(frozen=True)
class StabilizerReport:
    k: int
    generator_error: float
    fixed_subspace_dim: int
    passed: bool


def lift_local_operator(m, system: PartitionedSystem, party: int) -> EncodedOperator:
    """Lift a per-party complex operator to the encoded space.

    This is the logical encoding of the operator embedded in the whole
    system, with the party's own ancilla qubit carrying the imaginary
    part.  Lifts of different parties therefore act on disjoint factors
    and commute.
    """
    if not 0 <= party < system.parties:
        raise ValueError(f"party index {party} out of range for {system.parties} parties")
    m = np.asarray(m, dtype=complex)
    d = system.party_dims[party]
    if m.shape != (d, d):
        raise ValueError(f"operator shape {m.shape} does not match party dimension {d}")
    before = int(np.prod(system.party_dims[:party]))
    after = int(np.prod(system.party_dims[party + 1:]))
    embedded = kron(np.eye(before), kron(m, np.eye(after)))
    return encode_operator(embedded, Layout(system.parties), party)


def stabilizer_check(k: int) -> StabilizerReport:
    """Verify the codespace is the joint +1 eigenspace of -(XZ)_j (XZ)_l.

    Checks the generator action on both basis states for every pair
    j < l, then brute-forces the joint fixed subspace of the k - 1
    independent generators by a null-space rank computation; its
    dimension must be exactly 2.
    """
    if not 2 <= k <= 6:
        raise ValueError(f"k={k} out of range [2, 6]")
    logical = logical_states(k)
    worst = 0.0
    for j in range(k):
        for l in range(j + 1, k):
            g = -(local_xz(k, j) @ local_xz(k, l))
            for v in (logical.zero_state, logical.one_state):
                worst = max(worst, float(np.max(np.abs(g @ v - v))))
    generators = [-(local_xz(k, 0) @ local_xz(k, j)) for j in range(1, k)]
    stacked = np.vstack([g - np.eye(2 ** k) for g in generators])
    rank = int(np.linalg.matrix_rank(stacked, tol=RANK_TOL))
    dim = 2 ** k - rank
    return StabilizerReport(k, worst, dim, worst <= EXACT_TOL and dim == 2)
