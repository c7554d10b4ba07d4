"""Logical ancilla codespace, per-party lifts, stabilizer structure."""

import json
import re

import numpy as np
import pytest

from helpers import (block_encode, dense_encode, interleave, lift_local_operator, random_povm, random_state,
                     random_unitary)
from realsim import linalg, multipartite
from realsim.cli import main
from realsim.encoding import PureState, apply_lift, apply_xz, encode_operator, encode_state
from realsim.multipartite import (
    local_xz,
    logical_states,
    stabilizer_check,
)

S = 1.0 / np.sqrt(2.0)


def multi_state(vec, dims):
    return PureState(np.asarray(vec, dtype=complex), factor_dims=dims)


def reference_multipartite_encoding(psi, k):
    """Index-by-index reference: enc[x, y] = re[x] zero[y] + im[x] one[y]."""
    zero, one = logical_states(k)
    out = np.zeros(psi.size * 2**k)
    for x in range(psi.size):
        for y in range(2**k):
            out[x * 2**k + y] = psi[x].real * zero[y] + psi[x].imag * one[y]
    return out


def embed_complex(m, dims, party):
    before = int(np.prod(dims[:party])) if party else 1
    after = int(np.prod(dims[party + 1:])) if party + 1 < len(dims) else 1
    return np.kron(np.eye(before), np.kron(m, np.eye(after)))


class TestLogicalStates:
    def test_single_qubit_degenerates_to_computational_basis(self):
        assert np.array_equal(logical_states(1), [[1.0, 0.0], [0.0, 1.0]])

    def test_two_qubit_values(self):
        zero, one = logical_states(2)
        assert np.allclose(zero, [S, 0.0, 0.0, -S], atol=1e-15)
        assert np.allclose(one, [0.0, S, S, 0.0], atol=1e-15)

    def test_three_qubit_values(self):
        zero, one = logical_states(3)
        assert np.allclose(zero, [0.5, 0, 0, -0.5, 0, -0.5, -0.5, 0], atol=1e-15)
        assert np.allclose(one, [0, 0.5, 0.5, 0, 0.5, 0, 0, -0.5], atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_orthonormal(self, k):
        zero, one = logical_states(k)
        assert logical_states(k).shape == (2, 2**k)
        assert abs(np.linalg.norm(zero) - 1.0) <= 1e-13
        assert abs(np.linalg.norm(one) - 1.0) <= 1e-13
        assert abs(zero @ one) <= 1e-13

    @pytest.mark.parametrize("k", range(2, 7))
    def test_parity_supports_are_disjoint(self, k):
        zero, one = logical_states(k)
        for y in range(2**k):
            if y.bit_count() % 2 == 0:
                assert one[y] == 0.0
            else:
                assert zero[y] == 0.0

    def test_basis_is_built_once_per_k_and_shared_read_only(self):
        # Every encode and decode shares the cached array, so it may not be written.
        basis = logical_states(3)
        assert logical_states(3) is basis
        assert basis.dtype == np.float64 and not basis.flags.writeable

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            logical_states(0)
        with pytest.raises(ValueError):
            logical_states(13)


class TestLocalXZ:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_every_qubit_realizes_the_logical_quarter_turn(self, k):
        zero, one = logical_states(k)
        for q in range(k):
            op = local_xz(k, q)
            assert np.abs(op @ zero - one).max() <= 1e-13
            assert np.abs(op @ one + zero).max() <= 1e-13

    @pytest.mark.parametrize("k", range(2, 5))
    def test_codespace_restriction_is_exactly_the_quarter_turn(self, k):
        basis = logical_states(k).T
        for q in range(k):
            restricted = basis.T @ local_xz(k, q) @ basis
            assert np.abs(restricted - np.array([[0.0, -1.0], [1.0, 0.0]])).max() <= 1e-14

    def test_qubit_index_out_of_range(self):
        with pytest.raises(ValueError):
            local_xz(3, 3)

    @pytest.mark.parametrize("k, qubit", [(1, -1), (1, 1), (2, 2), (3, -1)])
    def test_apply_xz_rejects_a_qubit_outside_the_ancilla(self, k, qubit):
        # At k = 1, qubit -1 once reshaped x so that XZ acted on a system axis instead of the ancilla.
        x = np.eye(2 * 2 ** k)
        with pytest.raises(ValueError, match=rf"^qubit index {qubit} out of range for k={k}$"):
            apply_xz(x, k, qubit)
        with pytest.raises(ValueError, match=rf"^qubit index {qubit} out of range for k={k}$"):
            local_xz(k, qubit)

    @pytest.mark.parametrize("shape, k", [((4,), 1), ((6, 2), 2), ((8, 2, 1), 2), ((), 1)])
    def test_apply_xz_rejects_a_shape_that_does_not_fit_k(self, shape, k):
        with pytest.raises(ValueError, match=rf"^apply_xz needs a matrix with a multiple of 2\^k rows, "
                                             rf"got shape {re.escape(str(shape))} with k={k}$"):
            apply_xz(np.zeros(shape), k)


class TestEncodeMultipartiteState:
    def test_real_state_rides_on_logical_zero(self):
        psi = multi_state([0.0, 1.0, 0.0, 0.0], (2, 2))
        enc = encode_state(psi, 2)
        expected = np.kron([0.0, 1.0, 0.0, 0.0], logical_states(2)[0])
        assert np.allclose(enc, expected, atol=1e-15)

    def test_matches_indexwise_reference(self):
        psi = random_state(8, seed=3)
        enc = encode_state(multi_state(psi, (2, 2, 2)), 3)
        assert np.allclose(enc, reference_multipartite_encoding(psi, 3), atol=1e-14)

    def test_unit_norm_and_layout(self):
        psi = random_state(6, seed=4)
        enc = encode_state(multi_state(psi, (2, 3)), 2)
        assert abs(np.linalg.norm(enc) - 1.0) <= 1e-12
        assert enc.shape == (6 * 4,)

    def test_party_count_must_match(self):
        psi = multi_state(random_state(4, seed=5), (2, 2))
        with pytest.raises(ValueError):
            encode_state(psi, 3)


class TestLiftLocalOperator:
    def test_identity_lifts_to_identity(self):
        assert np.array_equal(apply_lift(np.eye(2), np.eye(16), (2, 2), 0), np.eye(16))

    @pytest.mark.parametrize("dims,party", [((2, 2), 0), ((2, 2), 1), ((2, 3), 1), ((2, 2, 2), 2)])
    def test_action_matches_complex_side(self, dims, party):
        k = len(dims)
        rng = np.random.default_rng(10 * party + k)
        d = dims[party]
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        psi = random_state(int(np.prod(dims)), seed=17)
        enc = encode_state(multi_state(psi, dims), k)
        moved = embed_complex(m, dims, party) @ psi
        moved /= np.linalg.norm(moved)
        got = apply_lift(m, enc, dims, party)
        want = encode_state(multi_state(moved, dims), k)
        got /= np.linalg.norm(got)
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (4, 2, 3), (2, 3, 2, 4)])
    def test_matches_the_dense_oracle(self, dims):
        # One operator on a vector, a stack of three on the columns of a matrix, at every party.
        rng = np.random.default_rng(sum(dims) + len(dims))
        size = int(np.prod(dims)) * 2 ** len(dims)
        vec = rng.standard_normal(size)
        cols = rng.standard_normal((size, 3))
        for party, d in enumerate(dims):
            stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
            dense = [lift_local_operator(m, dims, party) for m in stack]
            assert np.abs(apply_lift(stack[0], vec, dims, party) - dense[0] @ vec).max() <= linalg.EXACT_TOL
            got = apply_lift(stack, cols, dims, party)
            assert got.shape == (3, size, 3)
            assert max(np.abs(g - l @ cols).max() for g, l in zip(got, dense)) <= linalg.EXACT_TOL

    def test_different_parties_commute(self):
        dims = (2, 3)
        rng = np.random.default_rng(20)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        la = apply_lift(a, np.eye(24), dims, 0)
        lb = apply_lift(b, np.eye(24), dims, 1)
        assert np.abs(la @ lb - lb @ la).max() <= 1e-12

    def test_same_party_composition_on_codespace(self):
        dims = (2, 2)
        rng = np.random.default_rng(21)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        n = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        psi = random_state(4, seed=22)
        v = encode_state(multi_state(psi, dims), 2)
        composed = apply_lift(m, apply_lift(n, v, dims, 0), dims, 0)
        assert np.abs(composed - apply_lift(m @ n, v, dims, 0)).max() <= 1e-12

    def test_shape_mismatch_rejected(self):
        v = np.zeros(24)
        with pytest.raises(ValueError):
            apply_lift(np.eye(2), v, (2, 3), 1)
        with pytest.raises(ValueError):
            apply_lift(np.eye(2), v, (2, 3), 2)
        # The leading axis must hold prod(dims) 2^len(dims) entries.
        for shape, dims in [((6,), (2,)), ((12, 3), (2, 2)), ((32,), (2, 2)), ((), (2,))]:
            with pytest.raises(ValueError, match=rf"^state shape {re.escape(str(shape))} does not fit dims "
                                                 rf"{re.escape(str(dims))} with k={len(dims)} ancilla qubits$"):
                apply_lift(np.eye(2), np.zeros(shape), dims, 0)

    @pytest.mark.parametrize("x, dims, party, named", [
        (np.zeros(8), (2, 2), 0.5, r"^party index must be an integer, got 0\.5$"),
        (np.zeros(4), (2.0,), 0, r"^dims entry must be an integer, got 2\.0$"),
    ])
    def test_non_integer_party_or_dims_rejected(self, x, dims, party, named):
        with pytest.raises(ValueError, match=named):
            apply_lift(np.eye(2), x, dims, party)

    def test_numpy_integer_party_and_dims_accepted(self):
        v = encode_state(PureState(random_state(4, seed=23), (2, 2)), 2)
        m = random_unitary(2, seed=24)
        assert np.array_equal(apply_lift(m, v, (np.int64(2), 2), np.int64(1)), apply_lift(m, v, (2, 2), 1))


class TestLogicalEncodeOperator:
    def test_single_qubit_matches_plain_encoding(self):
        rng = np.random.default_rng(30)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(encode_operator(m), block_encode(m))
        assert np.array_equal(dense_encode(m, 1), block_encode(m))
        psi = random_state(3, seed=35)
        assert np.array_equal(encode_state(PureState(psi), 1), interleave(psi))

    def test_action_matches_complex_side(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(m)
        psi = random_state(4, seed=32)
        enc = encode_state(multi_state(psi, (2, 2)), 2)
        got = dense_encode(u, 2) @ enc
        want = encode_state(multi_state(u @ psi, (2, 2)), 2)
        assert np.abs(got - want).max() <= 1e-13

    def test_sum_of_local_terms_agrees_on_codespace(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        total = np.kron(a, np.eye(2)) + np.kron(np.eye(2), b)
        psi = random_state(4, seed=34)
        enc = encode_state(multi_state(psi, (2, 2)), 2)
        whole = dense_encode(total, 2) @ enc
        parts = apply_lift(a, enc, (2, 2), 0) + apply_lift(b, enc, (2, 2), 1)
        assert np.abs(whole - parts).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dense_form_matches_apply_lift_off_the_codespace_on_every_qubit(self, k):
        # On the codespace XZ on any qubit is the logical i, so only vectors off it, such as random
        # columns, show which qubit carries Im m.  With every other factor of dimension 1, party q's
        # lift is the dense form with XZ on qubit q; at k = 1 that form is `encode_operator`.
        rng = np.random.default_rng(36 + k)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal((3 * 2 ** k, 4))
        for q in range(k):
            dims = (1,) * q + (3,) + (1,) * (k - q - 1)
            assert np.abs(dense_encode(m, k, q) @ x - apply_lift(m, x, dims, q)).max() <= linalg.EXACT_TOL
        if k == 1:
            assert np.abs(encode_operator(m) @ x - apply_lift(m, x, (3,), 0)).max() <= linalg.EXACT_TOL


class TestStabilizer:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_codespace_is_exactly_the_fixed_subspace(self, k):
        report = stabilizer_check(k)
        assert report.generator_error <= 1e-13
        assert report.fixed_subspace_dim == 2

    def test_product_basis_state_is_not_fixed(self):
        # -(XZ x XZ)|00> lands on -|11>, so |00> sits outside the codespace.
        g = -(local_xz(2, 0) @ local_xz(2, 1))
        e00 = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(g @ e00, [0.0, 0.0, 0.0, -1.0])
        assert np.abs(g @ e00 - e00).max() > 0.9

    # The ancilla qubits on which a broken apply_xz does nothing: every one, the first or the last.  Each
    # generator -(XZ)_0 (XZ)_j reaches qubit 0, and only the last one reaches qubit k - 1.
    DEAD = {"every": lambda k: range(k), "first": lambda k: (0,), "last": lambda k: (k - 1,)}

    def kill(self, monkeypatch, dead):
        def kernel(x, k, qubit=0):
            return x if qubit in self.DEAD[dead](k) else apply_xz(x, k, qubit)

        monkeypatch.setattr(multipartite, "apply_xz", kernel)

    @pytest.mark.parametrize("dead", DEAD)
    @pytest.mark.parametrize("k", range(2, 7))
    def test_generator_action_fails_when_the_kernel_does_nothing(self, monkeypatch, k, dead):
        self.kill(monkeypatch, dead)
        report = stabilizer_check(k)
        assert report.generator_error >= 1
        assert report.fixed_subspace_dim == 2

    @pytest.mark.parametrize("dead", DEAD)
    def test_cli_reports_the_failed_generator_action(self, monkeypatch, capsys, dead):
        self.kill(monkeypatch, dead)
        assert main(["stabilizer", "--k", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [a["name"] for a in report["assertions"] if not a["passed"]] == ["generator_action"]

    def test_pair_action_equals_the_dense_product_exactly(self):
        k = 6
        basis = logical_states(k).T
        for j in range(k):
            for l in range(j + 1, k):
                dense = local_xz(k, j) @ local_xz(k, l) @ basis
                kernel = apply_xz(apply_xz(basis, k, l), k, j)
                assert np.max(np.abs(kernel - dense)) == 0.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            stabilizer_check(1)
        with pytest.raises(ValueError):
            stabilizer_check(7)


class TestStatisticsLocality:
    @pytest.mark.parametrize("dims,seed", [((2, 2), 40), ((2, 3), 41), ((2, 2, 2), 42)])
    def test_local_rotations_and_measurements_agree(self, dims, seed):
        k = len(dims)
        rng = np.random.default_rng(seed)
        psi = random_state(int(np.prod(dims)), seed=int(rng.integers(2**32)))
        unitaries = [random_unitary(d, seed=int(rng.integers(2**32))) for d in dims]
        povms = [random_povm(d, 2, int(rng.integers(2**32))) for d in dims]

        phi = psi
        for party, u in enumerate(unitaries):
            phi = embed_complex(u, dims, party) @ phi
        complex_probs = {}
        for outcome in np.ndindex(*(len(p) for p in povms)):
            element = np.eye(1, dtype=complex)
            for party, a in enumerate(outcome):
                element = np.kron(element, povms[party][a])
            complex_probs[outcome] = float(np.vdot(phi, element @ phi).real)

        v = encode_state(multi_state(psi, dims), k)
        for party, u in enumerate(unitaries):
            v = apply_lift(u, v, dims, party)
        worst = 0.0
        for outcome, p in complex_probs.items():
            w = v
            for party, a in enumerate(outcome):
                w = apply_lift(povms[party][a], w, dims, party)
            worst = max(worst, abs(float(v @ w) - p))
        assert worst <= 1e-12
