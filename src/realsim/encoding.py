"""Real-amplitude encoding of complex states and operators.

A complex amplitude a + i b is split across an extra qubit: a rides with
ancilla |0> and b with ancilla |1>.  The ancilla is the least significant
tensor factor, so a complex vector of length n becomes the real vector
[a_0, b_0, a_1, b_1, ...] of length 2n, and each complex matrix entry
a + i b becomes the 2x2 block a*I + b*XZ at the matching position.  Here
XZ = [[0, -1], [1, 0]] is the quarter-turn rotation standing in for
multiplication by i; the map is an algebra homomorphism, and encoded
inner products recover the real part of the complex ones.

`Layout(k)` spreads the ancilla over k qubits, one per party: a rides
with the logical |0_L> and b with |1_L> of a two-dimensional codespace,
and XZ on any one of the k qubits acts as the logical i.  k = 1 is the
single ancilla described above.  `apply_lift` applies one party's
operator to an encoded vector without building its encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EXACT_TOL, INPUT_TOL, PSD_TOL, apply_on_axis, dagger, is_hermitian, is_identity, is_psd, is_unitary, kron

XZ = np.array([[0.0, -1.0], [1.0, 0.0]])
XZ.setflags(write=False)

_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_Z.setflags(write=False)


def xz() -> np.ndarray:
    """The 2x2 block that plays the role of multiplication by i."""
    return XZ.copy()


@dataclass(frozen=True)
class Layout:
    """Ancilla arrangement: k ancilla qubits appended after the system.

    k = 1 is the plain single-ancilla encoding.  For k > 1 the ancillas
    carry the two-dimensional logical codespace of `logical_states`, one
    qubit per party.
    """

    k: int = 1

    def __post_init__(self):
        if not 1 <= self.k <= 12:
            raise ValueError(f"ancilla count k={self.k} out of range [1, 12]")

    @property
    def ancilla_dim(self) -> int:
        return 2 ** self.k


SINGLE_ANCILLA = Layout(1)


@dataclass(frozen=True)
class LogicalAncilla:
    """Orthonormal basis (zero_state, one_state) of the k-qubit codespace."""

    zero_state: np.ndarray
    one_state: np.ndarray


def logical_states(k: int) -> LogicalAncilla:
    """Codespace basis on k qubits, indexed by Hamming weight.

    zero_state is supported on even-weight bitstrings with amplitude
    (-1)^(h/2) / sqrt(2^(k-1)); one_state on odd-weight bitstrings with
    amplitude (-1)^((h-1)/2) / sqrt(2^(k-1)).  For k = 1 these are |0>
    and |1>, the single-ancilla encoding.
    """
    dim = Layout(k).ancilla_dim
    amp = 1.0 / np.sqrt(2.0 ** (k - 1))
    zero = np.zeros(dim)
    one = np.zeros(dim)
    for y in range(dim):
        h = y.bit_count()
        if h % 2 == 0:
            zero[y] = amp * (-1.0) ** (h // 2)
        else:
            one[y] = amp * (-1.0) ** ((h - 1) // 2)
    zero.setflags(write=False)
    one.setflags(write=False)
    return LogicalAncilla(zero, one)


def local_xz(k: int, qubit: int) -> np.ndarray:
    """XZ on one ancilla qubit, identity on the other k - 1.

    Every such operator acts as the logical quarter turn on the codespace.
    Qubit 0 is the most significant.  XZ maps |0> to |1> and |1> to -|0>,
    so the matrix is the identity with that qubit's bit flipped in the row
    index and a minus sign on the columns where the bit is set.
    """
    dim = Layout(k).ancilla_dim
    if not 0 <= qubit < k:
        raise ValueError(f"qubit index {qubit} out of range for k={k}")
    y = np.arange(dim)
    bit = dim >> (qubit + 1)
    return np.eye(dim)[y ^ bit] * np.where(y & bit, -1.0, 1.0)


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex state vector with its tensor-factor dimensions."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must form a nonempty 1-d vector")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        dims = self.factor_dims
        dims = (amps.size,) if dims is None else tuple(int(d) for d in dims)
        if int(np.prod(dims)) != amps.size:
            raise ValueError(f"factor_dims {dims} do not multiply to dimension {amps.size}")
        with np.errstate(over="ignore"):  # amplitudes beyond ~1e154 give norm inf, which the test below rejects
            norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= INPUT_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {INPUT_TOL}; inputs are never renormalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class EncodedState:
    """Real-amplitude image of a pure state on the doubled space."""

    amplitudes: np.ndarray
    source_dim: int
    layout: Layout = SINGLE_ANCILLA

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if np.iscomplexobj(amps):
            if np.any(amps.imag != 0.0):
                raise ValueError("encoded amplitudes must have imaginary part exactly zero")
            amps = amps.real
        amps = np.array(amps, dtype=float)
        if amps.ndim != 1:
            raise ValueError("encoded amplitudes must form a 1-d vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("encoded amplitudes must be finite")
        expected = int(self.source_dim) * self.layout.ancilla_dim
        if amps.size != expected:
            raise ValueError(f"encoded dimension {amps.size} does not match source_dim {self.source_dim} with k={self.layout.k}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= INPUT_TOL:
            raise ValueError(f"encoded norm {norm} is not 1 within {INPUT_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "source_dim", int(self.source_dim))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class EncodedOperator:
    """Real matrix acting on encoded states."""

    matrix: np.ndarray
    source_dim: int
    layout: Layout = SINGLE_ANCILLA

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if np.iscomplexobj(mat):
            if np.any(mat.imag != 0.0):
                raise ValueError("encoded operator entries must have imaginary part exactly zero")
            mat = mat.real
        mat = np.array(mat, dtype=float)
        expected = int(self.source_dim) * self.layout.ancilla_dim
        if mat.shape != (expected, expected):
            raise ValueError(f"encoded operator shape {mat.shape} does not match source_dim {self.source_dim} with k={self.layout.k}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("encoded operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "source_dim", int(self.source_dim))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive semi-definite complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("density matrix entries must be finite")
        if not is_hermitian(mat):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= INPUT_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if not is_psd(mat):
            raise ValueError(f"density matrix has an eigenvalue below the PSD floor -{PSD_TOL}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GaugeOrbit:
    """Two orthogonal encodings of one state, spanning its phase orbit."""

    phi1: EncodedState
    phi2: EncodedState

    def __post_init__(self):
        if self.phi1.dim != self.phi2.dim or self.phi1.source_dim != self.phi2.source_dim:
            raise ValueError("orbit members must share dimensions")
        overlap = float(np.dot(self.phi1.amplitudes, self.phi2.amplitudes))
        if not abs(overlap) <= INPUT_TOL:
            raise ValueError(f"orbit members are not orthogonal, overlap {overlap}")


@dataclass(frozen=True)
class Povm:
    """Finite POVM: positive elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = []
        for e in self.elements:
            e = np.array(e, dtype=complex)
            if e.ndim != 2 or e.shape[0] != e.shape[1]:
                raise ValueError(f"POVM element must be square, got shape {e.shape}")
            if not np.all(np.isfinite(e.view(float))):
                raise ValueError("POVM element entries must be finite")
            if not is_psd(e):
                raise ValueError(f"POVM element is not Hermitian with eigenvalues above -{PSD_TOL}")
            e.setflags(write=False)
            elems.append(e)
        if not elems:
            raise ValueError("POVM needs at least one element")
        if len({e.shape for e in elems}) > 1:
            raise ValueError("POVM elements must share one dimension")
        if not is_identity(sum(elems)):
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", tuple(elems))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def encode_state(psi: PureState, layout: Layout = SINGLE_ANCILLA) -> EncodedState:
    """Map sum (a_x + i b_x)|x> to sum a_x |x>|0_L> + b_x |x>|1_L>.

    With k > 1 ancilla qubits the state must expose one tensor factor per
    party; the single ancilla serves any factorization.
    """
    if layout.k > 1 and len(psi.factor_dims) != layout.k:
        raise ValueError(f"state has {len(psi.factor_dims)} factors, expected one per party with k={layout.k}")
    logical = logical_states(layout.k)
    enc = np.outer(psi.amplitudes.real, logical.zero_state) + np.outer(psi.amplitudes.imag, logical.one_state)
    return EncodedState(enc.ravel(), psi.dim, layout)


def decode_state(enc: EncodedState) -> np.ndarray:
    """Read the complex amplitudes back out of an encoded state."""
    pairs = enc.amplitudes.reshape(enc.source_dim, enc.layout.ancilla_dim)
    logical = logical_states(enc.layout.k)
    return pairs @ logical.zero_state + 1j * (pairs @ logical.one_state)


def encode_operator(m, layout: Layout = SINGLE_ANCILLA, xz_qubit: int = 0) -> EncodedOperator:
    """Per-entry substitution a + i b -> a*I + b*(XZ on ancilla qubit xz_qubit).

    The result is an algebra homomorphism image on the codespace: sums,
    products and daggers commute with the encoding.  Any single ancilla
    qubit realizes the logical XZ, so one designated qubit carries the
    whole imaginary part.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"encode_operator requires a square matrix, got shape {m.shape}")
    mat = kron(m.real, np.eye(layout.ancilla_dim)) + kron(m.imag, local_xz(layout.k, xz_qubit))
    return EncodedOperator(mat, m.shape[0], layout)


def apply_lift(m, x: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    """Apply the lift Re m (x) I + Im m (x) XZ_party of one party's operator.

    x holds states encoded with Layout(len(dims)) along its leading axis:
    one vector, or the columns of a matrix.  It is read as its
    (d_0, ..., d_{n-1}, 2, ..., 2) tensor; m acts on the party's system
    axis and XZ on the party's ancilla qubit, so the lift touches nothing
    else and its matrix is never built.  m is one (d, d) operator or a
    stack (S, d, d); a stack returns shape (S, *x.shape).
    """
    n = len(dims)
    if not 0 <= party < n:
        raise ValueError(f"party index {party} out of range for {n} parties")
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dims[party], dims[party]):
        raise ValueError(f"operator shape {m.shape} does not match party dimension {dims[party]}")
    x = np.asarray(x)
    t = x.reshape(*dims, *(2,) * n, *x.shape[1:])
    out = apply_on_axis(m.real, t, party) + apply_on_axis(m.imag, apply_on_axis(XZ, t, n + party), party)
    return out.reshape(*m.shape[:-2], *x.shape)


def encode_density(rho: DensityOperator) -> np.ndarray:
    """Encoded density operator: half the operator encoding of rho.

    The factor 2 restores unit trace; ranks double, so a pure state maps
    to the rank-2 average over its phase orbit.
    """
    return encode_operator(rho.matrix).matrix / 2.0


def gauge_orbit(psi: PureState) -> GaugeOrbit:
    """The orthogonal pair of encodings spanning the global-phase orbit.

    phi1 encodes psi itself, phi2 encodes i*psi; the encoding of any
    e^{i alpha} psi is cos(alpha) phi1 + sin(alpha) phi2.
    """
    rotated = PureState(1j * psi.amplitudes, psi.factor_dims)
    return GaugeOrbit(encode_state(psi), encode_state(rotated))


def real_inner_product(psi: PureState, phi: PureState) -> float:
    """Inner product of the encodings; equals Re<psi|phi> of the sources."""
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    enc = float(np.dot(encode_state(psi).amplitudes, encode_state(phi).amplitudes))
    direct = float(np.vdot(psi.amplitudes, phi.amplitudes).real)
    if not abs(enc - direct) <= EXACT_TOL:
        raise ValueError(f"encoded inner product {enc} deviates from the complex real part {direct}")
    return enc


def povm_probabilities(state, povm: Povm) -> np.ndarray:
    """Outcome distribution of a POVM on a pure or mixed state."""
    if isinstance(state, PureState):
        if state.dim != povm.dim:
            raise ValueError(f"state dimension {state.dim} does not match POVM dimension {povm.dim}")
        v = state.amplitudes
        return np.array([float(np.vdot(v, e @ v).real) for e in povm.elements])
    if isinstance(state, DensityOperator):
        if state.dim != povm.dim:
            raise ValueError(f"state dimension {state.dim} does not match POVM dimension {povm.dim}")
        return np.array([float(np.trace(e @ state.matrix).real) for e in povm.elements])
    raise ValueError(f"expected PureState or DensityOperator, got {type(state).__name__}")


def encoded_povm_probabilities(encoded, povm: Povm) -> np.ndarray:
    """Outcome distribution computed entirely on the encoded side.

    encoded is an EncodedState, in any layout, or a real encoded density
    matrix as produced by encode_density.  Each element E acts through
    apply_lift, so its encoding E' is never built: v.(E'v) for a state,
    Tr(E' rho') over the columns of rho' for a density matrix.
    """
    d = povm.dim
    if isinstance(encoded, EncodedState):
        if encoded.source_dim != d:
            raise ValueError(f"encoded state dimension {encoded.source_dim} does not match POVM dimension {d}")
        # Ancilla qubits past the first carry no imaginary part: the lift is the identity on them.
        v = encoded.amplitudes
        lifted = apply_lift(povm.elements, v.reshape(2 * d, -1), (d,), 0)
        return lifted.reshape(len(povm.elements), -1) @ v
    rho = np.asarray(encoded)
    if np.iscomplexobj(rho) and np.any(rho.imag != 0.0):
        raise ValueError("encoded density matrix must be real")
    rho = rho.real if np.iscomplexobj(rho) else rho
    if rho.shape != (2 * d, 2 * d):
        raise ValueError(f"encoded density shape {rho.shape} does not match POVM dimension {d}")
    return np.trace(apply_lift(povm.elements, rho, (d,), 0), axis1=1, axis2=2)


def _channel_matrices(channel, dim: int | None = None) -> list[np.ndarray]:
    ks = [np.asarray(k, dtype=complex) for k in channel]
    if not ks:
        raise ValueError("channel needs at least one Kraus operator")
    d = ks[0].shape[0] if dim is None else dim
    for k in ks:
        if k.ndim != 2 or k.shape != (d, d):
            raise ValueError(f"Kraus operator shape {k.shape} does not match dimension {d}")
    if not is_identity(sum(dagger(k) @ k for k in ks)):
        raise ValueError("Kraus operators do not compose a trace-preserving channel")
    return ks


def apply_kraus(channel, rho: DensityOperator) -> DensityOperator:
    """Apply a trace-preserving Kraus channel to a density operator."""
    ks = _channel_matrices(channel, rho.dim)
    out = np.zeros_like(rho.matrix)
    for k in ks:
        out = out + k @ rho.matrix @ dagger(k)
    return DensityOperator(out)


def encode_kraus(channel) -> list[EncodedOperator]:
    """Encode every Kraus operator; the real channel acts by conjugation."""
    return [encode_operator(k) for k in _channel_matrices(channel)]


def conjugation_operator(dim: int) -> EncodedOperator:
    """Entry-wise complex conjugation: Z on the ancilla qubit."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return EncodedOperator(kron(np.eye(dim), _Z), dim)


def encode_antiunitary(u) -> EncodedOperator:
    """Encoding of psi -> u conj(psi) for a unitary u."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("encode_antiunitary requires a unitary matrix")
    n = u.shape[0]
    return EncodedOperator(encode_operator(u).matrix @ conjugation_operator(n).matrix, n)
