"""Dense linear algebra kernel: tensor products, operators applied along
one tensor axis, matrix exponentials, structural predicates, and seeded
random sampling.

Everything downstream treats matrices and vectors as plain numpy arrays,
complex128 on the complex side and float64 on the encoded side.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_DIM = 4096

# Every tolerance in the package.  The encoding is an exact algebra homomorphism, so each of these
# bounds says how much rounding counts as equal.  Gates read `x <= tol`, so NaN fails them.
EXACT_TOL = 1e-12  # identities a few operations deep: round trips, probabilities, inner products, stabilizers
ORTHOGONALITY_TOL = 1e-11  # norm change and |U^T U - I| of the encoded propagator
AGREEMENT_TOL = 1e-10  # one result by two algorithms: evolution against the complex side and dense expm, Bell modes
INPUT_TOL = 1e-10  # input admission: norms, traces, Hermiticity, unitarity, completeness; inputs are never repaired
RANK_TOL = 1e-10  # singular values counted as zero; the stabilizer matrices have integer entries
PSD_TOL = 1e-8  # eigenvalue floor of density matrices and POVM elements, and POVM Hermiticity: 8-digit inputs
OBSERVABLE_TOL = 1e-8  # Hermiticity and +-1 spectrum of Bell observables, also 8-digit inputs
SEESAW_STOP_TOL = 1e-13  # a see-saw restart stops when its value moves by less than this
REACH_TOL = 1e-6  # how far below its quantum target a see-saw optimum may stop


def _require_square(a: np.ndarray, who: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{who} requires a square matrix, got shape {a.shape}")


def kron(a, b, max_dim: int = DEFAULT_MAX_DIM):
    """Kronecker product of two vectors or two matrices, with a size guard."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(f"kron needs two vectors or two matrices, got shapes {a.shape} and {b.shape}")
    out_shape = tuple(da * db for da, db in zip(a.shape, b.shape))
    if max(out_shape) > max_dim:
        raise ValueError(f"kron output shape {out_shape} exceeds the size cap {max_dim}")
    return np.kron(a, b)


def apply_on_axis(op, t: np.ndarray, axis: int) -> np.ndarray:
    """Apply a (d, d) operator, or a stack (S, d, d) of them, along one axis of the tensor t.

    One operator returns an array shaped like t; a stack returns shape
    (S, *t.shape), entry s holding op[s] applied.
    """
    op = np.asarray(op)
    lead = op.ndim - 2
    return np.moveaxis(np.tensordot(op, t, axes=([-1], [axis])), lead, lead + axis)


def matexp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring (Pade degree 13)."""
    # scipy is imported here, not at module level: only the dense expm cross-check needs it.
    from scipy.linalg import expm

    a = np.asarray(a)
    _require_square(a, "matexp")
    if np.iscomplexobj(a):
        a = a.astype(np.complex128, copy=False)
    else:
        a = a.astype(np.float64, copy=False)
    return expm(a)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_identity(a, tol: float = INPUT_TOL) -> bool:
    a = np.asarray(a)
    _require_square(a, "is_identity")
    return bool(np.max(np.abs(a - np.eye(a.shape[0]))) <= tol)


def is_unitary(a, tol: float = INPUT_TOL) -> bool:
    a = np.asarray(a)
    _require_square(a, "is_unitary")
    # A unitary's entries have modulus at most 1; testing that first keeps a^dagger a from overflowing.
    return bool(np.max(np.abs(a)) <= 1.0 + tol) and is_identity(dagger(a) @ a, tol)


def is_hermitian(a, tol: float = INPUT_TOL) -> bool:
    a = np.asarray(a)
    _require_square(a, "is_hermitian")
    return bool(np.max(np.abs(a - dagger(a))) <= tol)


def is_psd(a, tol: float = PSD_TOL) -> bool:
    """Positive semi-definiteness: Hermitian with eigenvalue floor >= -tol."""
    a = np.asarray(a)
    _require_square(a, "is_psd")
    if not is_hermitian(a, tol):
        return False
    floor = float(np.linalg.eigvalsh((a + dagger(a)) / 2.0).min())
    return floor >= -tol


def random_state(dim: int, seed) -> np.ndarray:
    """Unit-norm complex vector with Gaussian entries, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a Ginibre matrix.

    The R diagonal is rephased to unit modulus so the distribution is
    actually Haar and the factorization is unique.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, seed) -> np.ndarray:
    """Hermitian matrix with Gaussian entries, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0
