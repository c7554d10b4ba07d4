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
    """Measure how far the codespace is from the joint +1 eigenspace of -(XZ)_0 (XZ)_j, j = 1 .. k - 1.

    These k - 1 generators give every pair -(XZ)_j (XZ)_l.  Measures each one's action on both basis
    states (the largest 2-norm |g v - v|, through J's kernel `apply_xz`), then brute-forces their fixed
    subspace by a null-space rank of `local_xz` products, independently of `apply_xz`.
    """
    k = as_int(k, "ancilla count k")
    if not 2 <= k <= 6:
        raise ValueError(f"ancilla count k={k} out of range [2, 6]")
    basis = logical_states(k).T
    actions = [-apply_xz(apply_xz(basis, k, j), k, 0) - basis for j in range(1, k)]
    worst = max(float(np.max(np.linalg.norm(a, axis=0))) for a in actions)
    generators = [-(local_xz(k, 0) @ local_xz(k, j)) for j in range(1, k)]
    stacked = np.vstack([g - np.eye(2 ** k) for g in generators])
    rank = int(np.linalg.matrix_rank(stacked, tol=RANK_TOL))
    return StabilizerReport(worst, 2 ** k - rank)
