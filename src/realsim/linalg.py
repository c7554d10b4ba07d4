"""Dense linear algebra kernel: input admission, operators applied along
one tensor axis, matrix exponentials and structural predicates.

Everything downstream treats matrices and vectors as plain numpy arrays,
complex128 on the complex side and float64 on the encoded side.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

DEFAULT_MAX_DIM = 4096

# Every tolerance in the package.  The encoding is an exact algebra homomorphism, so each of these
# bounds says how much rounding counts as equal.  Gates read `x <= tol`, so NaN fails them.
EXACT_TOL = 1e-12  # identities a few operations deep: round trips, probabilities, inner products, stabilizers
ORTHOGONALITY_TOL = 1e-11  # norm change and |U^T U - I| of the encoded propagator
AGREEMENT_TOL = 1e-10  # one result by two algorithms: evolution against the complex side and dense expm, Bell modes
INPUT_TOL = 1e-10  # input admission: norms, traces, Hermiticity, unitarity, completeness; inputs are never repaired
RANK_TOL = 1e-10  # singular values counted as zero; the stabilizer matrices have integer entries
SPECTRUM_TOL = 1e-8  # Hermiticity and spectrum of density matrices, POVM elements and Bell observables: 8-digit inputs
SEESAW_STOP_TOL = 1e-13  # a see-saw restart stops when its value moves by less than this
REACH_TOL = 1e-6  # how far below its quantum target a see-saw optimum may stop


# The two readers of scalar numbers, for library arguments, file fields and flags alike.  Errors name `what`.
def as_int(value, what: str) -> int:
    """value as an int: a bool, a float, a string or any other non-integer is rejected, not truncated."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def as_float(value, what: str) -> float:
    """value as a finite float: a bool, a string, NaN, an infinity or an integer beyond the double range is rejected."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite: an integer beyond the double range") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _require_square(a: np.ndarray, what: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")


def admit(a, what: str, dtype=complex, square: bool = False) -> np.ndarray:
    """Read-only copy of an input array as `dtype`: the one way a container takes in an array.

    A real dtype takes a complex array only if its imaginary part is
    exactly zero; `square` asks for a square matrix; every entry must be
    finite.  Each error names `what`.
    """
    if not np.issubdtype(dtype, np.complexfloating) and np.iscomplexobj(a):
        a = np.asarray(a)
        if np.any(a.imag != 0.0):
            raise ValueError(f"{what} must have imaginary part exactly zero")
        a = a.real
    a = np.array(a, dtype=dtype)
    if square:
        _require_square(a, what)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    a.setflags(write=False)
    return a


def admit_family(ops, what: str) -> np.ndarray:
    """Read-only complex (m, d, d) stack of a nonempty family of square operators of one dimension.

    The one way a family is taken in: the members are copied once, into the stack.  Errors name `what`.
    """
    ops = [np.asarray(o) for o in ops]
    if not ops:
        raise ValueError(f"need at least one {what}")
    for o in ops:
        _require_square(o, what)
        if o.shape != ops[0].shape:
            raise ValueError(f"{what}s must share one dimension, got {ops[0].shape[0]} and {o.shape[0]}")
    return admit(ops, what)


def apply_on_axis(op, t: np.ndarray, axis: int) -> np.ndarray:
    """Apply a (d, d) operator, or a stack (S, d, d) of them, along one axis of the tensor t.

    One operator returns an array shaped like t; a stack returns shape
    (S, *t.shape), entry s holding op[s] applied.
    """
    op = np.asarray(op)
    lead = op.ndim - 2
    return np.moveaxis(np.tensordot(op, t, axes=([-1], [axis])), lead, lead + axis)


# Degree-13 Pade coefficients b_0..b_13, and the largest 1-norm at which that approximant
# is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
           10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def matexp(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring the degree-13 Pade approximant; a non-finite 1-norm or result raises."""
    a = np.asarray(a)
    _require_square(a, "matexp input")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    b = _PADE13
    # Overflow shows as inf or NaN and is rejected below, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max())
        if not math.isfinite(norm):
            raise ValueError(f"matexp input 1-norm {norm} is not finite")
        s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
        a = a / 2.0 ** s
        eye = np.eye(a.shape[0], dtype=a.dtype)
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        r = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            r = r @ r
    if not np.isfinite(r).all():
        raise ValueError("matexp result is not finite")
    return r


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_identity(a) -> bool:
    a = np.asarray(a)
    _require_square(a, "is_identity input")
    return bool(np.max(np.abs(a - np.eye(a.shape[0]))) <= INPUT_TOL)


def is_unitary(a) -> bool:
    a = np.asarray(a)
    _require_square(a, "is_unitary input")
    # A unitary's entries have modulus at most 1; testing that first keeps a^dagger a from overflowing.
    return bool(np.max(np.abs(a)) <= 1.0 + INPUT_TOL) and is_identity(dagger(a) @ a)


def is_hermitian(a, tol: float = INPUT_TOL) -> bool:
    a, tol = np.asarray(a), as_float(tol, "tol")
    _require_square(a, "is_hermitian input")
    # Halving is exact and keeps a - a^dagger from overflowing near the largest double.
    return bool(np.max(np.abs(a / 2.0 - dagger(a) / 2.0)) <= tol / 2.0)


def is_psd(a) -> bool:
    """Positive semi-definiteness: Hermitian within SPECTRUM_TOL, with every eigenvalue above -SPECTRUM_TOL.

    The floor is tested by factorization, not by an eigenvalue solve: the Hermitian part plus SPECTRUM_TOL I
    has a Cholesky factor exactly when the Hermitian part's smallest eigenvalue exceeds -SPECTRUM_TOL, up to
    rounding at that boundary.
    """
    a = np.asarray(a)
    _require_square(a, "is_psd input")
    if not is_hermitian(a, SPECTRUM_TOL):
        return False
    shifted = a / 2.0 + dagger(a) / 2.0
    shifted[np.diag_indices_from(shifted)] += SPECTRUM_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True
