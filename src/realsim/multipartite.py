"""Logical ancilla spread over k qubits, one per party, and its stabilizer check.

Storing the encoding ancilla in a k-qubit stabilizer subspace lets each
party act on its own qubit: XZ applied to any single ancilla qubit
performs the logical XZ on the shared two-dimensional codespace, so a
per-party complex operator lifts to a real operator touching only that
party's system factor and that party's ancilla qubit
(`encoding.apply_lift`).  `stabilizer_check` pins that codespace down.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .encoding import apply_xz, local_xz, logical_states
from .linalg import RANK_TOL, as_int


class StabilizerReport(NamedTuple):
    """What `stabilizer_check` measures; the caller judges it (the codespace should have dimension 2)."""

    generator_error: float
    fixed_subspace_dim: int


def stabilizer_check(k: int) -> StabilizerReport:
    """Measure how far the codespace is from the joint +1 eigenspace of -(XZ)_j (XZ)_l.

    Measures the generator action on both basis states for every pair
    j < l (the largest 2-norm |g v - v|, through J's kernel `apply_xz`),
    then brute-forces the fixed subspace of the k - 1 independent
    generators by a null-space rank.
    """
    k = as_int(k, "ancilla count k")
    if not 2 <= k <= 6:
        raise ValueError(f"ancilla count k={k} out of range [2, 6]")
    basis = logical_states(k).T
    worst = 0.0
    for j in range(k):
        for l in range(j + 1, k):
            g_basis = -apply_xz(apply_xz(basis, k, l), k, j)
            worst = max(worst, float(np.max(np.linalg.norm(g_basis - basis, axis=0))))
    generators = [-(local_xz(k, 0) @ local_xz(k, j)) for j in range(1, k)]
    stacked = np.vstack([g - np.eye(2 ** k) for g in generators])
    rank = int(np.linalg.matrix_rank(stacked, tol=RANK_TOL))
    return StabilizerReport(worst, 2 ** k - rank)
