"""Acceptance gate: one test per headline guarantee, one printed line each.

Every check here compares the package against something it does not
share code with: closed forms, index-wise references from helpers.py,
batched eigensolves, or frozen hand-computed values.  Run with
`pytest -s tests/test_acceptance.py` to see the lines as they print.
"""

import time

import numpy as np

import helpers
from realsim import linalg
from realsim.applications.bell import (
    bell_value,
    chsh_scenario,
    ghz3_state,
    mermin3_scenario,
    optimize_bell,
    phi_plus_state,
)
from realsim.applications.selftest import selftest_counterexample
from realsim.encoding import (
    DensityOperator,
    Layout,
    PureState,
    encode_density,
    encode_operator,
    encode_state,
    encoded_povm_probabilities,
    povm_probabilities,
    real_inner_product,
    Povm,
    apply_lift,
)
from realsim.multipartite import (
    local_xz,
    logical_states,
    stabilizer_check,
)

TSIRELSON = 2.8284271247461903
S = np.sqrt(0.5)


def report(passed: bool, text: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    assert passed, text


def embed_complex(m, dims, party):
    before = int(np.prod(dims[:party])) if party else 1
    after = int(np.prod(dims[party + 1:])) if party + 1 < len(dims) else 1
    return np.kron(np.eye(before), np.kron(m, np.eye(after)))


def test_encoded_statistics_match_complex_statistics():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for case in range(500):
        dim = int(rng.integers(2, 17))
        n_el = int(rng.integers(2, 5))
        psi = linalg.random_state(dim, seed=int(rng.integers(2**32)))
        u = linalg.random_unitary(dim, seed=int(rng.integers(2**32)))
        povm = Povm(tuple(helpers.random_povm(dim, n_el, int(rng.integers(2**32)))))
        if case % 3 == 0:
            rho = DensityOperator(helpers.random_density(dim, int(rng.integers(2**32))))
            moved = DensityOperator(u @ rho.matrix @ u.conj().T)
            direct = povm_probabilities(moved, povm)
            u_enc = encode_operator(u).matrix
            encoded = encoded_povm_probabilities(u_enc @ encode_density(rho) @ u_enc.T, povm)
        else:
            moved = PureState(u @ psi)
            direct = povm_probabilities(moved, povm)
            v = encode_operator(u).matrix @ encode_state(PureState(psi)).amplitudes
            elements = [encode_operator(e) for e in povm.elements]
            encoded = np.array([float(v @ (e.matrix @ v)) for e in elements])
        worst = max(worst, float(np.abs(direct - encoded).max()))
    elapsed = time.perf_counter() - start
    report(
        worst <= 1e-12 and elapsed <= 10.0,
        f"measurement statistics agree between the complex and encoded sides "
        f"(500 cases, dim <= 16, 2-4 element POVMs, max gap {worst:.2e} <= 1e-12, {elapsed:.1f}s <= 10s)",
    )


def test_encoded_inner_products_recover_real_parts():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        a = linalg.random_state(dim, seed=int(rng.integers(2**32)))
        b = linalg.random_state(dim, seed=int(rng.integers(2**32)))
        got = real_inner_product(PureState(a), PureState(b))
        worst = max(worst, abs(got - float(np.vdot(a, b).real)))
    elapsed = time.perf_counter() - start
    report(
        worst <= 1e-13 and elapsed <= 2.0,
        f"encoded inner products equal the real part of the complex ones "
        f"(500 pairs, max gap {worst:.2e} <= 1e-13, {elapsed:.1f}s <= 2s)",
    )


def test_operator_encoding_is_an_algebra_homomorphism():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        n = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        em, en = encode_operator(m).matrix, encode_operator(n).matrix
        worst = max(worst, float(np.abs(encode_operator(m + n).matrix - (em + en)).max()))
        worst = max(worst, float(np.abs(encode_operator(m @ n).matrix - em @ en).max()))
        worst = max(worst, float(np.abs(encode_operator(m.conj().T).matrix - em.T).max()))
        worst = max(worst, float(np.abs(em - helpers.block_encode(m)).max()))
    report(
        worst <= 1e-12,
        f"operator encoding preserves sums, products and adjoints "
        f"(200 random 8x8 pairs, max gap {worst:.2e} <= 1e-12)",
    )


def test_encoded_evolution_is_real_and_tracks_the_complex_side():
    from realsim.dynamics import Hamiltonian, trajectory

    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst_orth = 0.0
    worst_dev = 0.0
    worst_expm = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = linalg.random_hermitian(dim, seed=int(rng.integers(2**32)))
        h *= float(rng.uniform(0.2, 4.0)) / max(1e-12, float(np.abs(np.linalg.eigvalsh(h)).max()))
        psi = PureState(linalg.random_state(dim, seed=int(rng.integers(2**32))))
        t_max = float(rng.uniform(-10.0, 10.0))
        res = trajectory(Hamiltonian(h), psi, t_max, steps=64)
        # np.max, unlike max, keeps a NaN, which then fails the gate.
        worst_orth = float(np.max([worst_orth, res.orthogonality_error]))
        worst_dev = float(np.max([worst_dev, res.max_deviation]))
        worst_expm = float(np.max([worst_expm, res.expm_error]))
    elapsed = time.perf_counter() - start
    report(
        worst_orth <= 1e-11 and worst_dev <= 1e-10 and worst_expm <= 1e-10 and elapsed <= 60.0,
        f"encoded propagators stay real orthogonal and match the complex evolution "
        f"(50 Hamiltonians, 64-point grids, |t| <= 10, max orthogonality error {worst_orth:.2e} <= 1e-11, "
        f"max deviation {worst_dev:.2e} <= 1e-10, max dense expm error {worst_expm:.2e} <= 1e-10, "
        f"{elapsed:.1f}s <= 60s)",
    )


def test_logical_ancilla_codespace_k_2_to_6():
    start = time.perf_counter()
    worst = 0.0
    dims_ok = True
    for k in range(2, 7):
        logical = logical_states(k)
        for q in range(k):
            op = local_xz(k, q)
            worst = max(worst, float(np.abs(op @ logical.zero_state - logical.one_state).max()))
            worst = max(worst, float(np.abs(op @ logical.one_state + logical.zero_state).max()))
        report_k = stabilizer_check(k)
        dims_ok = dims_ok and report_k.fixed_subspace_dim == 2 and report_k.passed
    elapsed = time.perf_counter() - start
    report(
        worst <= 1e-13 and dims_ok and elapsed <= 10.0,
        f"every ancilla qubit realizes the logical quarter turn and the fixed subspace "
        f"is exactly 2-dimensional (k = 2..6, max action gap {worst:.2e} <= 1e-13, {elapsed:.1f}s <= 10s)",
    )


def test_local_operations_preserve_joint_statistics():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst = 0.0
    cases = [(2, 100), (3, 20)]
    for parties, count in cases:
        for _ in range(count):
            dims = tuple(int(rng.integers(2, 4)) if parties == 2 else 2 for _ in range(parties))
            total = int(np.prod(dims))
            psi = linalg.random_state(total, seed=int(rng.integers(2**32)))
            unitaries = [linalg.random_unitary(d, seed=int(rng.integers(2**32))) for d in dims]
            povms = [helpers.random_povm(d, 2, int(rng.integers(2**32))) for d in dims]

            phi = psi
            for party, u in enumerate(unitaries):
                phi = embed_complex(u, dims, party) @ phi
            enc = encode_state(PureState(psi, dims), Layout(parties))
            v = enc.amplitudes
            for party, u in enumerate(unitaries):
                v = apply_lift(u, v, dims, party)

            for outcome in np.ndindex(*(len(p) for p in povms)):
                element = np.eye(1, dtype=complex)
                w = v
                for party, a in enumerate(outcome):
                    element = np.kron(element, povms[party][a])
                    w = apply_lift(povms[party][a], w, dims, party)
                p_complex = float(np.vdot(phi, element @ phi).real)
                worst = max(worst, abs(float(v @ w) - p_complex))
    elapsed = time.perf_counter() - start
    report(
        worst <= 1e-12 and elapsed <= 60.0,
        f"per-party lifted operations reproduce all joint outcome probabilities "
        f"(100 two-party + 20 three-party cases, max gap {worst:.2e} <= 1e-12, {elapsed:.1f}s <= 60s)",
    )


def test_chsh_optimization_hits_the_quantum_maximum_and_nothing_more():
    start = time.perf_counter()
    result = optimize_bell(chsh_scenario(), seeds=range(20))
    fixed = bell_value(chsh_scenario(), phi_plus_state(), "complex")
    grid_max = helpers.chsh_grid_max(64)
    elapsed = time.perf_counter() - start
    ok = (
        result.value_complex >= TSIRELSON - 1e-6
        and result.value_real_encoded >= TSIRELSON - 1e-6
        and abs(result.value_complex - result.value_real_encoded) <= 1e-10
        and abs(fixed - TSIRELSON) <= 1e-12
        and grid_max <= TSIRELSON + 1e-6
        and elapsed <= 120.0
    )
    report(
        ok,
        f"see-saw reaches the CHSH quantum maximum in both modes and an independent "
        f"angle-grid eigensolve finds nothing better (optimized {result.value_complex:.12f}, "
        f"modes differ by {abs(result.value_complex - result.value_real_encoded):.2e}, "
        f"grid max {grid_max:.12f} <= {TSIRELSON:.12f} + 1e-6, {elapsed:.1f}s <= 120s)",
    )


def test_three_party_construction_reaches_the_algebraic_maximum():
    start = time.perf_counter()
    scenario = mermin3_scenario()
    state = ghz3_state()
    vc = bell_value(scenario, state, "complex")
    vr = bell_value(scenario, state, "real_encoded")
    result = optimize_bell(scenario, seeds=range(20))
    elapsed = time.perf_counter() - start
    ok = (
        abs(vc - 4.0) <= 1e-6
        and abs(vr - 4.0) <= 1e-6
        and result.value_complex >= 4.0 - 1e-6
        and result.value_real_encoded >= 4.0 - 1e-6
        and elapsed <= 120.0
    )
    report(
        ok,
        f"the three-party construction yields 4 in both modes with the k=3 ancilla "
        f"(direct {vc:.12f} and {vr:.12f}, optimized {result.value_complex:.12f}, {elapsed:.1f}s <= 120s)",
    )


def test_statistics_preserving_simulation_defeats_naive_self_testing():
    transcript = selftest_counterexample()
    w = transcript.inner_product_witness
    real_transcript = selftest_counterexample(np.array([[S, S], [S, -S]], dtype=complex))
    ok = (
        transcript.max_stat_gap <= 1e-12
        and abs(w.real_part - 0.5) <= 1e-6
        and abs(w.modulus - 0.70710678) <= 1e-6
        and real_transcript.product_state_gap <= 1e-10
    )
    report(
        ok,
        f"the phase-gate protocol matches all 36 probe outcomes per stage yet leaves a phase "
        f"witness (stat gap {transcript.max_stat_gap:.2e} <= 1e-12, witness {w.real_part:.6f} vs "
        f"modulus {w.modulus:.6f}); a real gate stays factorized "
        f"(gap {real_transcript.product_state_gap:.2e} <= 1e-10)",
    )


def test_acceptance_checks_use_independent_oracles():
    independent = (
        helpers.block_encode,
        helpers.random_povm,
        helpers.random_density,
        helpers.chsh_grid_max,
    )
    ok = all(fn.__module__ == "helpers" for fn in independent)
    report(
        ok,
        "acceptance comparisons run against oracles defined outside the package "
        "(index-wise block encoding, normalized random POVMs, batched eigensolve grid)",
    )
