"""Real-amplitude encoding of complex states and operators.

A complex amplitude a + i b is split across an extra qubit: a rides with
ancilla |0> and b with ancilla |1>.  The ancilla is the least significant
tensor factor, so a complex vector of length n becomes the real vector
[a_0, b_0, a_1, b_1, ...] of length 2n, and each complex matrix entry
a + i b becomes the 2x2 block a*I + b*XZ at the matching position.  Here
XZ = [[0, -1], [1, 0]] is the quarter-turn rotation standing in for
multiplication by i; the map is an algebra homomorphism, and encoded
inner products recover the real part of the complex ones.

The one encoding parameter is the ancilla count k, 1 to 12: k qubits,
one per party, carry the ancilla.  a rides with the logical |0_L> and b
with |1_L> of a two-dimensional codespace, and XZ on any one of the k
qubits acts as the logical i.  k = 1 is the single ancilla described
above.  `apply_lift` applies one party's operator to an encoded vector
without building its encoding.

The containers (`PureState`, `DensityOperator`, `Povm`) admit input that
arrives from outside the library, once.  Everything computed from them,
encoded states and operators included, is a plain float64 array that no
container admits again; a function that reads an encoded state takes
its k as an argument.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import (DEFAULT_MAX_DIM, INPUT_TOL, PSD_TOL, admit, admit_family, apply_on_axis, as_int, dagger,
                     is_hermitian, is_identity, is_psd, is_unitary, kron)

XZ = np.array([[0.0, -1.0], [1.0, 0.0]])
XZ.setflags(write=False)

_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_Z.setflags(write=False)


def _ancilla_dim(k: int, qubit: int = 0) -> int:
    """2^k, the dimension of k ancilla qubits; rejects a non-integer, a k outside [1, 12], a qubit outside [0, k)."""
    k, qubit = as_int(k, "ancilla count k"), as_int(qubit, "qubit index")
    if not 1 <= k <= 12:
        raise ValueError(f"ancilla count k={k} out of range [1, 12]")
    if not 0 <= qubit < k:
        raise ValueError(f"qubit index {qubit} out of range for k={k}")
    return 2 ** k


def _check_factors(factor_dims: tuple[int, ...], k: int) -> None:
    """Reject a k outside [1, 12], then a state without one tensor factor per party when k > 1."""
    _ancilla_dim(k)
    if k > 1 and len(factor_dims) != k:
        raise ValueError(f"state has {len(factor_dims)} factors, expected one per party with k={k}")


@functools.cache  # the basis of each k never changes, and the array is read-only
def logical_states(k: int) -> np.ndarray:
    """Codespace basis on k qubits as a (2, 2^k) array: row 0 is |0_L>, row 1 is |1_L>.

    Indexed by Hamming weight h: |0_L> is supported on even-weight
    bitstrings with amplitude (-1)^(h/2) / sqrt(2^(k-1)), |1_L> on
    odd-weight bitstrings with amplitude (-1)^((h-1)/2) / sqrt(2^(k-1)).
    For k = 1 the rows are |0> and |1>, the single-ancilla encoding.
    """
    dim = _ancilla_dim(k)
    amp = 1.0 / np.sqrt(2.0 ** (k - 1))
    basis = np.zeros((2, dim))
    for y in range(dim):
        h = y.bit_count()
        basis[h % 2, y] = amp * (-1.0) ** (h // 2)
    basis.setflags(write=False)
    return basis


def local_xz(k: int, qubit: int) -> np.ndarray:
    """XZ on one ancilla qubit, identity on the other k - 1.

    Every such operator acts as the logical quarter turn on the codespace.
    Qubit 0 is the most significant.  XZ maps |0> to |1> and |1> to -|0>,
    so the matrix is the identity with that qubit's bit flipped in the row
    index and a minus sign on the columns where the bit is set.
    """
    dim = _ancilla_dim(k, qubit)
    y = np.arange(dim)
    bit = dim >> (qubit + 1)
    return np.eye(dim)[y ^ bit] * np.where(y & bit, -1.0, 1.0)


class PureState:
    """Unit-norm complex state vector with its tensor-factor dimensions."""

    __slots__ = ("amplitudes", "factor_dims")

    def __init__(self, amplitudes: np.ndarray, factor_dims: tuple[int, ...] | None = None):
        amps = admit(amplitudes, "amplitudes")
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must form a nonempty 1-d vector")
        dims = (amps.size,) if factor_dims is None else tuple(as_int(d, "factor_dims entry") for d in factor_dims)
        if math.prod(dims) != amps.size:
            raise ValueError(f"factor_dims {dims} do not multiply to dimension {amps.size}")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor_dims {dims} must all be at least 1")
        with np.errstate(over="ignore"):  # amplitudes beyond ~1e154 give norm inf, which the test below rejects
            norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= INPUT_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {INPUT_TOL}; inputs are never renormalized")
        self.amplitudes, self.factor_dims = amps, dims

    @property
    def dim(self) -> int:
        return self.amplitudes.size


class DensityOperator:
    """Hermitian, unit-trace, positive semi-definite complex matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = admit(matrix, "density matrix", square=True)
        if not is_hermitian(self.matrix):
            raise ValueError("density matrix is not Hermitian")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge diagonal sums to inf or NaN, which fails the test
            tr = complex(np.trace(self.matrix))
        if not abs(tr - 1.0) <= INPUT_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if not is_psd(self.matrix):
            raise ValueError(f"density matrix has an eigenvalue below the PSD floor -{PSD_TOL}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class Povm:
    """Finite POVM: positive elements summing to the identity, kept as one (m, d, d) stack."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = admit_family(elements, "POVM element")
        if not all(map(is_psd, self.elements)):
            raise ValueError(f"POVM element is not Hermitian with eigenvalues above -{PSD_TOL}")
        with np.errstate(over="ignore", invalid="ignore"):  # huge elements sum to inf or NaN, which is_identity rejects
            if not is_identity(self.elements.sum(axis=0)):
                raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def encode_amplitudes(amplitudes: np.ndarray, factor_dims: tuple[int, ...], k: int = 1):
    """Map sum (a_x + i b_x)|x> to sum a_x |x>|0_L> + b_x |x>|1_L>, as a read-only real array.

    With k > 1 ancilla qubits the state must expose one tensor factor per
    party; the single ancilla serves any factorization.
    """
    _check_factors(factor_dims, k)
    zero, one = logical_states(k)
    enc = (amplitudes.real[:, None] * zero + amplitudes.imag[:, None] * one).ravel()
    enc.setflags(write=False)
    return enc


def encode_state(psi: PureState, k: int = 1) -> np.ndarray:
    """`encode_amplitudes` of a pure state: n 2^k real amplitudes."""
    return encode_amplitudes(psi.amplitudes, psi.factor_dims, k)


def decode_state(enc: np.ndarray, k: int) -> np.ndarray:
    """Read the complex amplitudes back out of a state encoded with k ancilla qubits."""
    dim = _ancilla_dim(k)
    enc = np.asarray(enc)
    if enc.ndim != 1 or enc.size == 0 or enc.size % dim:
        raise ValueError(f"encoded state shape {enc.shape} does not fit k={k}")
    pairs = enc.reshape(-1, dim)
    zero, one = logical_states(k)
    return pairs @ zero + 1j * (pairs @ one)


def encode_operator(m, k: int = 1, xz_qubit: int = 0) -> np.ndarray:
    """Per-entry substitution a + i b -> a*I + b*(XZ on ancilla qubit xz_qubit).

    Returns the real (n 2^k, n 2^k) matrix.  It is an algebra homomorphism
    image on the codespace: sums, products and daggers commute with the
    encoding.  Any single ancilla qubit realizes the logical XZ, so one
    designated qubit carries the whole imaginary part.
    """
    m = admit(m, "encode_operator input", square=True)
    return kron(m.real, np.eye(_ancilla_dim(k))) + kron(m.imag, local_xz(k, xz_qubit))


def apply_xz(x: np.ndarray, k: int, qubit: int = 0) -> np.ndarray:
    """J applied to each column of the matrix x.

    J is the identity on the system times XZ on ancilla qubit `qubit` of
    the k (qubit 0 the most significant); it acts on that qubit's axis of x
    reshaped to (rest, 2, 2^(k-1-qubit), columns) and is never built.
    """
    dim = _ancilla_dim(k, qubit)
    if x.ndim != 2 or x.shape[0] % dim:
        raise ValueError(f"apply_xz needs a matrix with a multiple of 2^k rows, got shape {x.shape} with k={k}")
    t = x.reshape(-1, 2, dim >> (qubit + 1), x.shape[1])
    return apply_on_axis(XZ, t, 1).reshape(x.shape)


def apply_lift(m, x: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    """Apply the lift Re m (x) I + Im m (x) XZ_party of one party's operator.

    x holds states encoded with k = len(dims) along its leading axis:
    one vector, or the columns of a matrix.  It is read as its
    (d_0, ..., d_{n-1}, 2, ..., 2) tensor; m acts on the party's system
    axis and XZ on the party's ancilla qubit, so the lift touches nothing
    else and its matrix is never built.  m is one (d, d) operator or a
    stack (S, d, d); a stack returns shape (S, *x.shape).
    """
    dims, party = tuple(as_int(d, "dims entry") for d in dims), as_int(party, "party index")
    n = len(dims)
    if not 0 <= party < n:
        raise ValueError(f"party index {party} out of range for {n} parties")
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dims[party], dims[party]):
        raise ValueError(f"operator shape {m.shape} does not match party dimension {dims[party]}")
    x = np.asarray(x)
    if x.shape[:1] != (math.prod(dims) << n,):
        raise ValueError(f"state shape {x.shape} does not fit dims {dims} with k={n} ancilla qubits")
    t = x.reshape(*dims, *(2,) * n, *x.shape[1:])
    out = apply_on_axis(m.real, t, party) + apply_on_axis(m.imag, apply_on_axis(XZ, t, n + party), party)
    return out.reshape(*m.shape[:-2], *x.shape)


def encode_density(rho: DensityOperator) -> np.ndarray:
    """Encoded density operator: half the operator encoding of rho.

    The factor 2 restores unit trace; ranks double, so a pure state maps
    to the rank-2 average over its phase orbit.
    """
    return encode_operator(rho.matrix) / 2.0


def gauge_orbit(psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal pair (phi1, phi2) of encodings spanning the global-phase orbit.

    phi1 encodes psi itself, phi2 encodes i*psi; the encoding of any
    e^{i alpha} psi is cos(alpha) phi1 + sin(alpha) phi2.
    """
    return encode_state(psi), encode_amplitudes(1j * psi.amplitudes, psi.factor_dims)


def real_inner_product(psi: PureState, phi: PureState) -> float:
    """Inner product of the encodings, measured on the encoded side only; the caller compares it with Re<psi|phi>."""
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return float(np.dot(encode_state(psi), encode_state(phi)))


def povm_probabilities(state, povm: Povm) -> np.ndarray:
    """Outcome distribution of a POVM on a pure or mixed state."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise ValueError(f"expected PureState or DensityOperator, got {type(state).__name__}")
    if state.dim != povm.dim:
        raise ValueError(f"state dimension {state.dim} does not match POVM dimension {povm.dim}")
    if isinstance(state, PureState):
        v = state.amplitudes
        return np.array([float(np.vdot(v, e @ v).real) for e in povm.elements])
    return np.array([float(np.trace(e @ state.matrix).real) for e in povm.elements])


def encoded_povm_probabilities(encoded, povm: Povm, k: int = 1) -> np.ndarray:
    """Outcome distribution computed entirely on the encoded side.

    encoded is a real state vector encoded with k ancilla qubits, or a
    real encoded density matrix as produced by encode_density, which has
    k = 1.  Each element E acts through apply_lift, so its encoding E' is
    never built: v.(E'v) for a state, Tr(E' rho') over the columns of
    rho' for a density matrix.
    """
    d, dim = povm.dim, _ancilla_dim(k)
    enc = admit(encoded, "encoded state", float)
    if enc.ndim == 1:
        if enc.shape != (d * dim,):
            raise ValueError(f"encoded state shape {enc.shape} does not match POVM dimension {d} with k={k}")
        # Ancilla qubits past the first carry no imaginary part: the lift is the identity on them.
        lifted = apply_lift(povm.elements, enc.reshape(2 * d, -1), (d,), 0)
        return lifted.reshape(len(povm.elements), -1) @ enc
    if k != 1:
        raise ValueError(f"an encoded density matrix has a single ancilla qubit, got k={k}")
    if enc.shape != (2 * d, 2 * d):
        raise ValueError(f"encoded density shape {enc.shape} does not match POVM dimension {d}")
    return np.trace(apply_lift(povm.elements, enc, (d,), 0), axis1=1, axis2=2)


def _channel_matrices(channel, dim: int | None = None) -> np.ndarray:
    ks = admit_family(channel, "Kraus operator")
    if dim is not None and ks.shape[1] != dim:
        raise ValueError(f"Kraus operator shape {ks.shape[1:]} does not match dimension {dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or NaN, which is_identity rejects
        if not is_identity((np.swapaxes(ks.conj(), 1, 2) @ ks).sum(axis=0)):
            raise ValueError("Kraus operators do not compose a trace-preserving channel")
    return ks


def apply_kraus(channel, rho: DensityOperator) -> np.ndarray:
    """Apply a trace-preserving Kraus channel to a density operator; returns the output matrix."""
    return sum(k @ rho.matrix @ dagger(k) for k in _channel_matrices(channel, rho.dim))


def encode_kraus(channel) -> list[np.ndarray]:
    """Encode every Kraus operator; the real channel acts by conjugation."""
    return [encode_operator(k) for k in _channel_matrices(channel)]


def conjugation_operator(dim: int) -> np.ndarray:
    """Entry-wise complex conjugation: Z on the ancilla qubit."""
    dim = as_int(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if 2 * dim > DEFAULT_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the size cap {DEFAULT_MAX_DIM // 2}")
    return kron(np.eye(dim), _Z)


def encode_antiunitary(u) -> np.ndarray:
    """Encoding of psi -> u conj(psi) for a unitary u."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("encode_antiunitary requires a unitary matrix")
    return encode_operator(u) @ conjugation_operator(u.shape[0])
