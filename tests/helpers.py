"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against plain numpy, not against
the package under test, so the comparisons stay two-sided.  The
exceptions are `generator` and `spectral_propagator`, which compose the
package's own kernels into dense matrices the package never keeps, and
the fault `perturbed_eigh`.  The report checkers at the end recompute a
command's report from its input files alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from realsim.encoding import apply_xz, encode_operator

_EIGH = np.linalg.eigh


def matrix_obj(m) -> dict:
    """A matrix in the package's JSON file format: rows, cols and row-major [re, im] entries."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def series_expm(a, terms: int = 30) -> np.ndarray:
    """Truncated Taylor series for the matrix exponential."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ a / n
        out = out + term
    return out


def eig_expm_hermitian(h, scale=1.0) -> np.ndarray:
    """exp(scale * i * h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def generator(h, k: int = 1, xz_qubit: int = 0) -> np.ndarray:
    """Real antisymmetric generator J H' of the encoded evolution, H' the `dense_encode` of h.hermitian.

    J and Im H both sit on ancilla qubit xz_qubit of k; `trajectory` builds the k = 1, qubit 0 case inline.
    """
    return apply_xz(dense_encode(h.hermitian, k, xz_qubit), k, xz_qubit)


def spectral_propagator(h, t: float, sign: int = 1) -> np.ndarray:
    """Dense U(t) = V cos(t lambda) V^T + sign (J V) sin(t lambda) V^T from numpy's eigh of H' = V diag(lambda) V^T.

    H' is the single-ancilla encoding of h.hermitian, decomposed as `trajectory` decomposes it, so U(t_max) is
    the matrix `trajectory` checks.
    """
    lam, v = np.linalg.eigh(encode_operator(h.hermitian))
    jv = apply_xz(v, 1)
    return (v * np.cos(t * lam)) @ v.T + sign * (jv * np.sin(t * lam)) @ v.T


def perturbed_eigh(a, *args, **kwargs):
    """numpy's eigh with the eigenvectors of a real matrix, such as H', scaled by 1 + 2e-11.

    Patched in for np.linalg.eigh, which the worker thread of `trajectory` looks up at each call, it
    leaves the complex H alone and moves U^T U off the identity by about 8e-11, past the 1e-11
    orthogonality gate, while the states and the dense comparison stay within 1e-10.
    """
    w, v = _EIGH(a, *args, **kwargs)
    return (w, v) if np.iscomplexobj(a) else (w, v * (1.0 + 2e-11))


def random_state(dim: int, seed) -> np.ndarray:
    """Unit-norm complex vector with Gaussian entries, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, seed) -> np.ndarray:
    """Hermitian matrix with Gaussian entries, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


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


def random_density(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_povm(dim: int, n_elements: int, seed) -> list:
    """Random POVM: push random positive matrices through S^(-1/2) . S^(-1/2)."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_elements):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ m @ inv_sqrt for m in mats]


def chsh_grid_max(points: int = 64) -> float:
    """Best CHSH value over +-1 qubit observables, by batched eigensolve.

    Local rotations bring the first observable of side A to Z and every
    other observable into the ZX great circle, so a dense angle grid with
    that one direction pinned covers every extremal strategy; observables
    proportional to the identity reduce one side to a deterministic sign
    and cannot beat the classical bound.  The grid step 2 pi / points
    keeps the known optimal quarter-turn settings on the grid when
    points is a multiple of 8.
    """
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    angles = np.arange(points) * (2.0 * np.pi / points)

    def on_circle(theta):
        return np.cos(theta)[:, None, None] * z + np.sin(theta)[:, None, None] * x

    a1, b0, b1 = (g.ravel() for g in np.meshgrid(angles, angles, angles, indexing="ij"))
    pa1, pb0, pb1 = on_circle(a1), on_circle(b0), on_circle(b1)

    def pair(p, q):
        return np.einsum("nab,ncd->nacbd", p, q).reshape(-1, 4, 4)

    bell = np.einsum("ab,ncd->nacbd", z, pb0 + pb1).reshape(-1, 4, 4) + pair(pa1, pb0 - pb1)
    return float(np.linalg.eigvalsh(bell)[:, -1].max())


def interleave(z) -> np.ndarray:
    """Reference single-ancilla encoding of a complex vector, index by index."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(2 * z.size)
    for x in range(z.size):
        out[2 * x] = z[x].real
        out[2 * x + 1] = z[x].imag
    return out


def logical_encode(z, k: int) -> np.ndarray:
    """Reference k-ancilla encoding Re z (x) |0_L> + Im z (x) |1_L>, the ancilla qubits last.

    |0_L> and |1_L> come from their closed form over the Hamming weight h of each ancilla bitstring:
    (-1)^(h/2) on even h and (-1)^((h-1)/2) on odd h, over sqrt(2^(k-1)).  At k = 1 this is `interleave`.
    """
    z = np.asarray(z, dtype=complex)
    weights = [bin(y).count("1") for y in range(2 ** k)]
    zero = np.array([(-1.0) ** (h // 2) if h % 2 == 0 else 0.0 for h in weights])
    one = np.array([(-1.0) ** ((h - 1) // 2) if h % 2 else 0.0 for h in weights])
    norm = np.sqrt(2.0 ** (k - 1))
    return np.kron(z.real, zero / norm) + np.kron(z.imag, one / norm)


def block_encode(m) -> np.ndarray:
    """Reference operator encoding: entry-by-entry 2x2 block substitution."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for r in range(n):
        for c in range(n):
            a, b = m[r, c].real, m[r, c].imag
            out[2 * r, 2 * c] = a
            out[2 * r, 2 * c + 1] = -b
            out[2 * r + 1, 2 * c] = b
            out[2 * r + 1, 2 * c + 1] = a
    return out


def apply_local(vec, op, dims, party) -> np.ndarray:
    """Apply a single-party operator to a state vector on a tensor product."""
    t = np.asarray(vec).reshape(dims)
    t = np.moveaxis(np.tensordot(op, t, axes=([1], [party])), 0, party)
    return t.reshape(-1)


def dense_encode(m, k: int = 1, xz_qubit: int = 0) -> np.ndarray:
    """Reference dense encoding on k ancilla qubits: Re m (x) I + Im m (x) XZ on ancilla qubit xz_qubit.

    Qubit 0 is the most significant; the (n 2^k, n 2^k) matrix is built from Kronecker products.  On the
    codespace XZ on any qubit is the logical i, so only a vector off it shows which qubit carries Im m.
    At k = 1 this is `encode_operator`.
    """
    m = np.asarray(m, dtype=complex)
    xz = np.kron(np.eye(2 ** xz_qubit), np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(2 ** (k - xz_qubit - 1))))
    return np.kron(m.real, np.eye(2 ** k)) + np.kron(m.imag, xz)


def lift_local_operator(m, dims, party) -> np.ndarray:
    """Reference dense lift of one party's operator: `dense_encode` of m embedded in the whole system.

    XZ sits on ancilla qubit `party` of len(dims).
    """
    before, after = int(np.prod(dims[:party])), int(np.prod(dims[party + 1:]))
    return dense_encode(np.kron(np.eye(before), np.kron(m, np.eye(after))), len(dims), party)


def bell_operator(coefficients, obs, dims) -> np.ndarray:
    """Reference Bell operator, one Kronecker product per coefficient term."""
    dim = int(np.prod(dims))
    out = np.zeros((dim, dim), dtype=complex)
    for settings, coeff in coefficients.items():
        term = obs[0][settings[0]]
        for j in range(1, len(dims)):
            term = np.kron(term, obs[j][settings[j]])
        out += coeff * term
    return out


def bell_value_by_terms(coefficients, obs, dims, v, encoded=False) -> float:
    """Reference Bell value sum_s c_s <v| A_s |v>, one operator application per term and party.

    v is a state on the parties' tensor product or, with encoded=True, its
    encoding on the logical ancilla with one qubit per party; each
    observable then acts through its dense reference lift.
    """
    total = 0.0
    for settings, coeff in coefficients.items():
        w = v
        for j, s in enumerate(settings):
            w = lift_local_operator(obs[j][s], dims, j) @ w if encoded else apply_local(w, obs[j][s], dims, j)
        total += coeff * float(np.vdot(v, w).real)
    return total


def partial_outer(a, b, dims, party) -> np.ndarray:
    """Trace |a><b| over every factor except one: M[i,i'] = sum a[.,i,.] b*[.,i',.]."""
    before = int(np.prod(dims[:party]))
    after = int(np.prod(dims[party + 1:]))
    d = dims[party]
    aa = np.asarray(a).reshape(before, d, after)
    bb = np.asarray(b).reshape(before, d, after)
    return np.einsum("aib,ajb->ij", aa, bb.conj())


def effective_operator(state, obs, coefficients, dims, party, setting) -> np.ndarray:
    """Reference see-saw effective operator of one party's setting, term by term."""
    d = dims[party]
    m = np.zeros((d, d), dtype=complex)
    for settings, coeff in coefficients.items():
        if settings[party] != setting:
            continue
        chi = state
        for l, s in enumerate(settings):
            if l == party:
                continue
            chi = apply_local(chi, obs[l][s], dims, l)
        m += coeff * partial_outer(chi, state, dims, party)
    return (m + m.conj().T) / 2.0



def seesaw_sweep(state, obs, coefficients, dims) -> list:
    """Reference observable update of one see-saw iteration, setting by setting.

    Parties are updated in turn, each from the others' latest observables;
    every new observable is the eigenvalue-sign rounding of its effective
    operator.
    """
    obs = [list(family) for family in obs]
    for j in range(len(dims)):
        for t in range(len(obs[j])):
            w, v = np.linalg.eigh(effective_operator(state, obs, coefficients, dims, j, t))
            obs[j][t] = (v * np.where(w >= 0.0, 1.0, -1.0)) @ v.conj().T
    return obs


# Report checkers: each recomputes one command's results from its JSON input files with plain numpy, and
# names the first field that differs.  How far a reported number may sit from its plain-numpy value:
EXACT = 1e-15  # the encoding only copies numbers and scales them by +-2^(-(k-1)/2)
COMPUTED = 1e-12  # the rest go through eigendecompositions and sums whose order differs from the package's
# An evolved amplitude also carries the rounding of its phases t lambda, about eps ||H|| |t|; 1e-14 is 45 eps
# per unit of ||H||_2 |t_max|.  It matters only where ||H|| |t_max| reaches the hundreds, as at the admission
# edge (t_max up to 100), where the encoded amplitudes drift from plain numpy's by up to 1.3e-15 ||H|| |t_max|.
PHASE = 1e-14
S = 0.7071067811865476
TSIRELSON = 2.0 * math.sqrt(2.0)
PROBES = [np.array(p, dtype=complex) for p in ([1, 0], [0, 1], [S, S], [S, -S], [S, 1j * S], [S, -1j * S])]


def amplitudes(obj):
    return np.array([complex(re, im) for re, im in obj["amplitudes"]])


def matrix(obj):
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(obj["rows"], obj["cols"])


def complex_list(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def hermitian_part(h) -> np.ndarray:
    """The Hermitian matrix `Hamiltonian.hermitian` documents: h's lower triangle, its conjugate above, Re diag h."""
    below = np.tril(h, -1)
    return below + below.conj().T + np.diag(h.diagonal().real)


def close(name, got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}"
    err = float(np.abs(got - want).max())
    assert err <= tol, f"{name}: off by {err:.3g} (tolerance {tol:.1e})"


def check_encode(results, files, flags):
    psi, k = amplitudes(files[0]), int(flags.get("--k", 1))
    assert (results["source_dims"], results["layout_k"]) == (files[0]["dims"], k)
    close("encoded_amplitudes", results["encoded_amplitudes"], logical_encode(psi, k), EXACT)


def check_evolve(results, files, flags):
    h, psi, k = hermitian_part(matrix(files[0])), amplitudes(files[1]), int(flags.get("--k", 1))
    t_max, steps = float(flags.get("--t-max", 1.0)), int(flags.get("--steps", 64))
    sign = -1.0 if flags.get("--sign") == "minus" else 1.0
    final = eig_expm_hermitian(h, scale=sign * t_max) @ psi
    tol = COMPUTED + PHASE * float(np.linalg.norm(h, 2)) * abs(t_max)
    close("times", results["times"], np.linspace(0.0, t_max, steps), EXACT)
    close("final_complex", complex_list(results["final_complex"]), final, tol)
    close("final_encoded", results["final_encoded"], logical_encode(final, k), tol)


def check_measure(results, files, flags):
    rho = matrix(files[0]) if "entries" in files[0] else np.outer(amplitudes(files[0]), amplitudes(files[0]).conj())
    probabilities = [np.trace(matrix(e) @ rho).real for e in files[1]["elements"]]
    close("probabilities", results["probabilities"], probabilities, COMPUTED)
    close("encoded_probabilities", results["encoded_probabilities"], probabilities, COMPUTED)


def check_bell(results, files, flags):
    assert (results["classical_bound"], results["quantum_target"]) == (2, pytest.approx(TSIRELSON, abs=EXACT))
    modes = [flags["--mode"]] if "--mode" in flags else ["complex", "real_encoded"]
    for mode in modes:
        assert TSIRELSON - 1e-6 <= results[f"value_{mode}"] <= TSIRELSON + 1e-9, mode
    assert max(value for _, value in results["optimizer_trace"]) <= TSIRELSON + 1e-9


def check_selftest(results, files, flags):
    t = matrix(files[0]) if files else np.diag([1.0, 1.0j])
    phi = np.array([S, 0.0, 0.0, S], dtype=complex)
    stages = [phi, np.kron(t, np.eye(2)) @ phi, np.kron(t, t.conj()) @ phi]
    povm = [np.outer(p, p.conj()) / 3.0 for p in PROBES]
    stats = [[[np.vdot(z, np.kron(a, b) @ z).real for b in povm] for a in povm] for z in stages]
    close("statistics_logical", results["statistics_logical"], stats, COMPUTED)
    close("statistics_simulated", results["statistics_simulated"], stats, COMPUTED)
    plus = np.array([S, S], dtype=complex)
    overlap = np.vdot(plus, t @ plus)
    close("witness_state_a", complex_list(results["witness_state_a"]), plus, EXACT)
    close("witness_state_b", complex_list(results["witness_state_b"]), t @ plus, COMPUTED)
    close("witness_real_part", results["witness_real_part"], overlap.real, COMPUTED)
    close("witness_modulus", results["witness_modulus"], abs(overlap), COMPUTED)
    tails = [np.sqrt(np.sum(np.linalg.svd(logical_encode(z, 2).reshape(4, 4), compute_uv=False)[1:] ** 2))
             for z in stages]
    close("product_state_gap", results["product_state_gap"], max(tails), COMPUTED)


def check_stabilizer(results, files, flags):
    assert (results["k"], results["fixed_subspace_dim"]) == (int(flags["--k"]), 2)
    assert results["generator_error"] <= COMPUTED


CHECKS = {"encode": check_encode, "evolve": check_evolve, "measure": check_measure, "bell": check_bell,
          "selftest": check_selftest, "stabilizer": check_stabilizer}


def check_report(report, files, argv):
    """Check a parsed report by value against plain numpy.

    files maps each input file name on the command line argv to its JSON object; options are read from
    argv as `--flag value` pairs.  A field off by more than its tolerance fails, naming the field.
    """
    assert report["command"] == argv[0]
    inputs = [files[a] for a in argv[1:] if a in files]
    flags = {a: v for a, v in zip(argv, argv[1:]) if a.startswith("--")}
    CHECKS[argv[0]](report["results"], inputs, flags)
