"""Single-ancilla encoding: states, operators, densities, measurements, channels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_encode, dense_encode, interleave, random_density, random_povm, random_state, random_unitary
from realsim import encoding, linalg
from realsim.applications.bell import BellScenario
from realsim.dynamics import Hamiltonian, trajectory
from realsim.encoding import (
    DensityOperator,
    Povm,
    PureState,
    apply_xz,
    conjugation_operator,
    decode_state,
    encode_antiunitary,
    encode_density,
    encode_kraus,
    encode_operator,
    encode_state,
    encoded_povm_probabilities,
    gauge_orbit,
    local_xz,
    logical_states,
    povm_probabilities,
    real_inner_product,
)

S = 1.0 / np.sqrt(2.0)
Z = np.diag([1.0, -1.0])

seeds = st.integers(0, 2**32 - 1)


def state(vec, dims=None):
    return PureState(np.asarray(vec, dtype=complex), factor_dims=dims)


def encoded_elements(povm: Povm) -> list:
    return [encode_operator(e) for e in povm.elements]


class TestBuildingBlocks:
    def test_xz_entries(self):
        assert np.array_equal(encoding.XZ, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_xz_squares_to_minus_identity(self):
        assert np.array_equal(encoding.XZ @ encoding.XZ, -np.eye(2))

    def test_xz_is_read_only(self):
        assert not encoding.XZ.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            encoding.XZ[0, 0] = 99.0
        assert encoding.XZ[0, 0] == 0.0


class TestAncillaCount:
    takes_k = pytest.mark.parametrize("call", [
        lambda k: logical_states(k),
        lambda k: local_xz(k, 0),
        lambda k: encode_state(state([S, S * 1j]), k),
        lambda k: decode_state(np.zeros(4), k),
        lambda k: apply_xz(np.zeros((4, 1)), k),
        lambda k: encoded_povm_probabilities(np.array([1.0, 0.0, 0.0, 0.0]), Povm((np.eye(2),)), k),
        lambda k: trajectory(Hamiltonian(np.eye(2)), state([1.0, 0.0]), 1.0, 4, k),
    ], ids=["logical_states", "local_xz", "encode_state", "decode_state", "apply_xz", "encoded_povm_probabilities",
            "trajectory"])

    @pytest.mark.parametrize("k", [0, -3, 13])
    @takes_k
    def test_k_outside_1_to_12_is_rejected(self, call, k):
        with pytest.raises(ValueError, match=rf"^ancilla count k={k} out of range \[1, 12\]$"):
            call(k)

    @takes_k
    def test_k_that_is_not_an_integer_is_rejected(self, call):
        with pytest.raises(ValueError, match=r"^ancilla count k must be an integer, got 2\.5$"):
            call(2.5)

    def test_encode_operator_takes_no_ancilla_count(self):
        # It is the single-ancilla encoding; a k > 1 caller must fail loudly, not get the (2n, 2n) form.
        with pytest.raises(TypeError):
            encode_operator(np.eye(2), 2)
        with pytest.raises(TypeError):
            encode_operator(np.eye(2), k=2)

    def test_qubit_that_is_not_an_integer_is_rejected(self):
        with pytest.raises(ValueError, match=r"^qubit index must be an integer, got 0\.5$"):
            local_xz(2, 0.5)
        with pytest.raises(ValueError, match=r"^qubit index must be an integer, got 0\.5$"):
            apply_xz(np.zeros((4, 1)), 2, 0.5)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="never renormalized"):
            state([1.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            state([np.nan, 0.0])

    def test_rejects_bad_factor_dims(self):
        with pytest.raises(ValueError):
            state([1.0, 0.0, 0.0, 0.0], dims=(2, 3))
        # 3 x 6148914691236517206 is 2^64 + 2: a product taken in 64-bit integers wraps to the dimension 2.
        with pytest.raises(ValueError, match=r"^factor_dims \(3, 6148914691236517206\) do not multiply to dimension 2$"):
            state([1.0, 0.0], dims=(3, 6148914691236517206))
        # int() would truncate these to (2, 2), which multiply to the dimension.
        with pytest.raises(ValueError, match=r"^factor_dims entry must be an integer, got 2\.7$"):
            PureState(np.ones(4) / 2, (2.7, 2.2))
        assert PureState(np.ones(4) / 2, (np.int64(2), 2)).factor_dims == (2, 2)

    @pytest.mark.parametrize("dims", [(-2, -2), (-1, -4)])
    def test_rejects_factor_dims_below_one(self, dims):
        # Their product is the dimension, so only this check stops them; k = 2 would then encode 16 amplitudes.
        with pytest.raises(ValueError, match=r"must all be at least 1$"):
            PureState(np.ones(4) / 2, dims)

    @pytest.mark.parametrize("amplitudes", [np.array([]), np.eye(2)], ids=["empty", "matrix"])
    def test_rejects_amplitudes_that_are_not_a_nonempty_vector(self, amplitudes):
        with pytest.raises(ValueError, match=r"^amplitudes must form a nonempty 1-d vector$"):
            PureState(amplitudes)

    def test_default_factorization_is_whole_system(self):
        assert state([0.0, 1.0, 0.0]).factor_dims == (3,)


class TestEncodeState:
    def test_basis_state(self):
        enc = encode_state(state([1.0, 0.0]))
        assert np.array_equal(enc, [1.0, 0.0, 0.0, 0.0])

    def test_imaginary_basis_state(self):
        enc = encode_state(state([1.0j]))
        assert np.array_equal(enc, [0.0, 1.0])

    def test_circular_superposition(self):
        enc = encode_state(state([S, S * 1.0j]))
        assert np.allclose(enc, [S, 0.0, 0.0, S], atol=1e-15)

    def test_round_trip(self):
        psi = random_state(6, seed=5)
        back = decode_state(encode_state(state(psi)), 1)
        assert np.allclose(back, psi, atol=1e-14)

    def test_output_is_read_only(self):
        enc = encode_state(state([S, S * 1.0j]))
        assert enc.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            enc[0] = 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signed_zeros_match_two_outer_products_bit_for_bit(self, k):
        # A matrix product would start each sum from +0 and turn (-0) + (-0) into +0.
        zero, one = logical_states(k)

        def one_part_nonzero(x):  # (re, im) pairs with one part +-x and the other +-0
            return [pair for sx in (x, -x) for sz in (0.0, -0.0) for pair in ((sx, sz), (sz, sx))]

        for parts in itertools.product(one_part_nonzero(0.6), one_part_nonzero(0.8),
                                       itertools.product((0.0, -0.0), repeat=2)):
            amps = np.array([complex(*p) for p in parts])
            enc = encode_state(state(amps, (3,) + (1,) * (k - 1)), k)
            ref = (np.outer(amps.real, zero) + np.outer(amps.imag, one)).ravel()
            assert np.array_equal(enc.view(np.uint64), ref.view(np.uint64))

    @settings(deadline=None, max_examples=40)
    @given(seeds)
    def test_interleaving_matches_reference(self, seed):
        psi = random_state(5, seed=seed)
        enc = encode_state(state(psi))
        assert np.allclose(enc, interleave(psi), atol=1e-15)
        assert abs(np.linalg.norm(enc) - 1.0) <= 1e-12


class TestEncodeOperator:
    def test_identity(self):
        enc = encode_operator(np.eye(3))
        assert np.array_equal(enc, np.eye(6))

    def test_scalar_i_becomes_quarter_turn(self):
        enc = encode_operator(np.array([[1.0j]]))
        assert np.array_equal(enc, encoding.XZ)

    def test_matches_blockwise_reference(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(encode_operator(m), block_encode(m), atol=1e-15)

    def test_additive(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        n = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gap = np.abs(
            encode_operator(m + n)
            - (encode_operator(m) + encode_operator(n))
        ).max()
        assert gap <= 1e-12

    def test_multiplicative(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        n = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gap = np.abs(
            encode_operator(m @ n)
            - encode_operator(m) @ encode_operator(n)
        ).max()
        assert gap <= 1e-12

    def test_transpose_tracks_adjoint(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gap = np.abs(
            encode_operator(m).T - encode_operator(m.conj().T)
        ).max()
        assert gap <= 1e-12

    def test_action_commutes_with_state_encoding(self):
        u = random_unitary(4, seed=11)
        psi = random_state(4, seed=12)
        via_operator = encode_operator(u) @ encode_state(state(psi))
        direct = encode_state(state(u @ psi))
        assert np.allclose(via_operator, direct, atol=1e-13)

    def test_unitarity_preserved(self):
        u = random_unitary(5, seed=13)
        m = encode_operator(u)
        assert np.allclose(m @ m.T, np.eye(10), atol=1e-12)

    def test_trace_doubles_real_part(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(np.trace(encode_operator(m)) - 2 * np.trace(m).real) <= 1e-12

    def test_encoders_return_real_arrays(self):
        n = 3
        u = random_unitary(n, seed=15)
        outs = [encode_operator(u), encode_density(DensityOperator(random_density(n, seed=16))),
                conjugation_operator(n), encode_antiunitary(u), *encode_kraus([u])]
        for out in outs:
            assert type(out) is np.ndarray and out.dtype == np.float64
        assert all(out.shape == (2 * n, 2 * n) for out in outs)

    @staticmethod
    def signed_entries(rng, n, kind):
        """n x n Gaussian entries with +-0.0, 1e-300 and -1e308 mixed in, real or complex, so a sign of zero shows."""
        def part():
            x = rng.standard_normal((n, n))
            return np.where(rng.random((n, n)) < 0.4, rng.choice([0.0, -0.0, 1e-300, -1e308], (n, n)), x)

        if kind == "real":
            return part()
        m = np.empty((n, n), complex)
        m.real, m.imag = part(), part()
        return m

    @staticmethod
    def kronecker_form(m):
        return np.kron(m.real, np.eye(2)) + np.kron(m.imag, encoding.XZ)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33, 64])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bits_are_the_kronecker_forms(self, n, kind):
        m = self.signed_entries(np.random.default_rng(n), n, kind)
        got, want = encode_operator(m), self.kronecker_form(m)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("max_dim", [8, 9])
    def test_largest_input_at_the_cap_is_built(self, monkeypatch, max_dim):
        monkeypatch.setattr(encoding, "DEFAULT_MAX_DIM", max_dim)
        m = self.signed_entries(np.random.default_rng(4), 4, "complex")
        assert encode_operator(m).tobytes() == self.kronecker_form(m).tobytes()

    @pytest.mark.parametrize("max_dim", [8, 9])
    def test_input_past_the_cap_is_rejected_by_name_before_it_is_allocated(self, monkeypatch, max_dim):
        monkeypatch.setattr(encoding, "DEFAULT_MAX_DIM", max_dim)

        def allocated(*args, **kwargs):
            raise AssertionError("encode_operator allocated an output past the cap")

        monkeypatch.setattr(np, "empty", allocated)
        with pytest.raises(ValueError, match=r"^encode_operator input dimension 5 exceeds the size cap 4$"):
            encode_operator(np.eye(5))

    # Each way an input may arrive is admitted as its complex128 copy, whose Kronecker form it must match bit for bit.
    SOURCES = {
        "bool": lambda m: m.real > 0,
        "int64": lambda m: np.trunc(8 * m.real).astype(np.int64),
        "float32": lambda m: m.real.astype(np.float32),
        "complex64": lambda m: m.astype(np.complex64),
        "nested_list": lambda m: m.tolist(),
        "transposed_view": lambda m: m.T,
        "strided_view": lambda m: np.repeat(m, 2, axis=1)[:, ::2],
    }

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_bits_of_any_input_are_those_of_its_complex_copy(self, source):
        m = self.signed_entries(np.random.default_rng(5), 6, "complex")
        m[np.abs(m) > 1e300] = -0.0  # -1e308 has no float32 or int64 copy
        given = self.SOURCES[source](m)
        assert encode_operator(given).tobytes() == self.kronecker_form(np.array(given, dtype=complex)).tobytes()

    # Every library route to a dense encoded matrix builds it with encode_operator, and so meets its cap.
    ROUTES = {
        "encode_density": lambda n: encode_density(DensityOperator(np.eye(n) / n)),
        "encode_kraus": lambda n: encode_kraus([np.eye(n)]),
        "encode_antiunitary": lambda n: encode_antiunitary(np.eye(n)),
        "trajectory": lambda n: trajectory(Hamiltonian(np.eye(n)), state(np.eye(n)[0]), 1.0, steps=3),
    }

    @pytest.mark.parametrize("n", [4, 5], ids=["at_the_cap", "past_the_cap"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_route_to_a_dense_encoding_meets_the_cap(self, monkeypatch, route, n):
        monkeypatch.setattr(encoding, "DEFAULT_MAX_DIM", 9)
        if n == 4:
            self.ROUTES[route](n)
        else:
            with pytest.raises(ValueError, match=r"^encode_operator input dimension 5 exceeds the size cap 4$"):
                self.ROUTES[route](n)

    @settings(deadline=None, max_examples=40)
    @given(seeds)
    def test_homomorphism_property(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        n = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        em, en = encode_operator(m), encode_operator(n)
        assert np.abs(encode_operator(m @ n) - em @ en).max() <= 1e-12
        assert np.abs(encode_operator(m + n) - (em + en)).max() <= 1e-12


class TestEncodeDensity:
    def test_ground_state(self):
        rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        enc = encode_density(rho)
        assert np.allclose(enc, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_trace_one(self):
        enc = encode_density(DensityOperator(random_density(5, seed=20)))
        assert abs(np.trace(enc) - 1.0) <= 1e-12

    def test_spectrum_halves_and_doubles(self):
        # Each eigenvalue of the input shows up twice at half weight.
        rho = random_density(4, seed=21)
        enc = encode_density(DensityOperator(rho))
        got = np.sort(np.linalg.eigvalsh(enc))
        want = np.sort(np.repeat(np.linalg.eigvalsh(rho).real, 2) / 2.0)
        assert np.allclose(got, want, atol=1e-12)

    def test_symmetric_and_psd(self):
        enc = encode_density(DensityOperator(random_density(3, seed=22)))
        assert np.abs(enc - enc.T).max() <= 1e-12
        assert np.linalg.eigvalsh(enc).min() >= -1e-10

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.5, 0.6]).astype(complex))
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))

    def test_hermiticity_is_judged_once(self, monkeypatch):
        # The INPUT_TOL gate implies is_psd's looser SPECTRUM_TOL one, so a density matrix meets only the first,
        # and then the floor test that is_psd shares.  A POVM element still meets is_psd's own gate.
        calls = []
        judge = linalg.is_hermitian

        def counted(a, tol=linalg.INPUT_TOL):
            calls.append(tol)
            return judge(a, tol)

        for module in (encoding, linalg):
            monkeypatch.setattr(module, "is_hermitian", counted)
        DensityOperator(random_density(4, seed=23))
        assert calls == [linalg.INPUT_TOL]
        calls.clear()
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert calls == [linalg.SPECTRUM_TOL] * 2


class TestGaugeOrbit:
    def test_basis_state_orbit(self):
        phi1, phi2 = gauge_orbit(state([1.0, 0.0]))
        assert np.array_equal(phi1, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(phi2, [0.0, 1.0, 0.0, 0.0])

    def test_orbit_members_orthonormal(self):
        phi1, phi2 = gauge_orbit(state(random_state(5, seed=30)))
        assert abs(phi1 @ phi2) <= 1e-12
        assert abs(np.linalg.norm(phi1) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(phi2) - 1.0) <= 1e-12

    def test_global_phase_lands_on_the_circle(self):
        psi = random_state(4, seed=31)
        phi1, phi2 = gauge_orbit(state(psi))
        for alpha in np.linspace(0.0, 2 * np.pi, 17):
            rotated = encode_state(state(np.exp(1j * alpha) * psi))
            expected = np.cos(alpha) * phi1 + np.sin(alpha) * phi2
            assert np.allclose(rotated, expected, atol=1e-13)

    def test_orbit_average_is_encoded_density(self):
        psi = random_state(3, seed=32)
        p1, p2 = gauge_orbit(state(psi))
        avg = (np.outer(p1, p1) + np.outer(p2, p2)) / 2
        enc = encode_density(DensityOperator(np.outer(psi, psi.conj())))
        assert np.allclose(avg, enc, atol=1e-13)


class TestInnerProduct:
    def test_self_overlap(self):
        psi = state(random_state(6, seed=40))
        assert abs(real_inner_product(psi, psi) - 1.0) <= 1e-13

    def test_quarter_turn_is_orthogonal(self):
        psi = random_state(3, seed=41)
        assert abs(real_inner_product(state(psi), state(1j * psi))) <= 1e-13

    @settings(deadline=None, max_examples=40)
    @given(seeds)
    def test_matches_real_part(self, seed):
        rng = np.random.default_rng(seed)
        a = random_state(4, seed=rng.integers(2**32))
        b = random_state(4, seed=rng.integers(2**32))
        got = real_inner_product(state(a), state(b))
        assert abs(got - np.vdot(a, b).real) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            real_inner_product(state([1.0, 0.0]), state([1.0, 0.0, 0.0]))


class TestMeasurement:
    def test_projective_basis_probabilities(self):
        plus = state([S, S])
        povm = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        assert np.allclose(povm_probabilities(plus, povm), [0.5, 0.5], atol=1e-14)

    def test_encoded_pure_state_statistics(self):
        psi = state(random_state(6, seed=50))
        povm = Povm(tuple(random_povm(6, 3, seed=51)))
        direct = povm_probabilities(psi, povm)
        encoded = encoded_povm_probabilities(encode_state(psi), povm)
        assert np.abs(direct - encoded).max() <= 1e-12
        assert abs(encoded.sum() - 1.0) <= 1e-12

    def test_encoded_density_statistics(self):
        rho = DensityOperator(random_density(4, seed=52))
        povm = Povm(tuple(random_povm(4, 4, seed=53)))
        direct = povm_probabilities(rho, povm)
        encoded = encoded_povm_probabilities(encode_density(rho), povm)
        assert np.abs(direct - encoded).max() <= 1e-12

    def test_multi_qubit_layout_statistics_match_the_dense_encoding(self):
        psi = PureState(random_state(6, seed=56), factor_dims=(2, 3))
        povm = Povm(tuple(random_povm(6, 3, seed=57)))
        enc = encode_state(psi, 2)
        dense = np.array([enc @ dense_encode(e, 2) @ enc for e in povm.elements])
        encoded = encoded_povm_probabilities(enc, povm, 2)
        assert np.abs(encoded - dense).max() <= linalg.EXACT_TOL
        assert np.abs(encoded - povm_probabilities(psi, povm)).max() <= 1e-12

    def test_encoded_elements_still_complete(self):
        povm = Povm(tuple(random_povm(3, 3, seed=54)))
        total = sum(encoded_elements(povm))
        assert np.allclose(total, np.eye(6), atol=1e-10)

    def test_povm_validation(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
        with pytest.raises(ValueError):
            Povm((np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),))

    def test_encoded_density_rejects_more_than_one_ancilla_qubit(self):
        # encode_density is single-ancilla only, so any other k would misread the matrix.
        rho = encode_density(DensityOperator(np.eye(2) / 2))
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert np.array_equal(encoded_povm_probabilities(rho, povm, 1), [0.5, 0.5])
        for k in (2, 5):
            with pytest.raises(ValueError, match=rf"single ancilla qubit, got k={k}$"):
                encoded_povm_probabilities(rho, povm, k)

    def test_state_outside_the_containers_is_rejected(self):
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        with pytest.raises(ValueError, match=r"^expected PureState or DensityOperator, got ndarray$"):
            povm_probabilities(np.array([1.0, 0.0]), povm)

    def test_layout_mismatch_rejected(self):
        psi = state(random_state(2, seed=55))
        wrong_dim = Povm((np.eye(3, dtype=complex) / 3,) * 3)
        with pytest.raises(ValueError):
            encoded_povm_probabilities(encode_state(psi), wrong_dim)
        with pytest.raises(ValueError):
            encoded_povm_probabilities(encode_density(DensityOperator(np.eye(2) / 2)), wrong_dim)


class TestChannels:
    def test_identity_channel(self):
        rho = DensityOperator(random_density(3, seed=60))
        out = encoding.apply_kraus([np.eye(3, dtype=complex)], rho)
        assert np.allclose(out, rho.matrix, atol=1e-14)

    def test_dephasing_closed_form(self):
        p = 0.3
        kraus = [
            np.sqrt(1 - p) * np.eye(2, dtype=complex),
            np.sqrt(p) * np.diag([1.0, -1.0]).astype(complex),
        ]
        rho = DensityOperator(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
        out = encoding.apply_kraus(kraus, rho)
        expected = np.array([[0.5, -0.2j], [0.2j, 0.5]])
        assert np.allclose(out, expected, atol=1e-14)

    def test_encoded_channel_tracks_complex_channel(self):
        gamma = 0.3
        kraus = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        ]
        rho = DensityOperator(random_density(2, seed=61))
        complex_out = encoding.apply_kraus(kraus, rho)
        enc_in = encode_density(rho)
        enc_out = sum(k @ enc_in @ k.T for k in encode_kraus(kraus))
        expected = encode_density(DensityOperator(complex_out))
        assert np.abs(enc_out - expected).max() <= 1e-12

    def test_non_trace_preserving_rejected(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            encoding.apply_kraus([0.5 * np.eye(2, dtype=complex)], rho)

    def test_output_past_the_admission_bound_is_returned(self):
        # Channel and state each sit 0.99 INPUT_TOL off exact; the output trace, 1 + 1.98e-10, is
        # computed, not admitted again.
        t = 1.0 + 0.99 * linalg.INPUT_TOL
        out = encoding.apply_kraus([np.sqrt(t) * np.eye(2)], DensityOperator(np.diag([t, 0.0])))
        assert abs(np.trace(out) - t * t) <= 1e-15

    def test_kraus_operators_of_another_dimension_are_rejected(self):
        with pytest.raises(ValueError, match=r"^Kraus operator shape \(2, 2\) does not match dimension 3$"):
            encoding.apply_kraus([np.eye(2)], DensityOperator(np.eye(3) / 3))

    def test_kraus_completeness_overflow_rejected(self):
        # K^dagger K overflows to inf on a finite entry near the largest double; the sum then fails the identity test.
        with pytest.raises(ValueError, match="trace-preserving"):
            encode_kraus([np.diag([1.7e308, 1.0])])


class TestConjugation:
    def test_conjugation_flips_imaginary_parts(self):
        psi = state([S, S * 1.0j])
        conj = conjugation_operator(2)
        got = conj @ encode_state(psi)
        want = encode_state(state([S, -S * 1.0j]))
        assert np.allclose(got, want, atol=1e-14)

    def test_conjugation_is_a_real_involution(self):
        c = conjugation_operator(4)
        assert not np.iscomplexobj(c)
        assert np.array_equal(c @ c, np.eye(8))

    def test_dimension_must_be_a_positive_integer(self):
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got 2\.5$"):
            conjugation_operator(2.5)
        with pytest.raises(ValueError, match=r"^dimension must be positive, got 0$"):
            conjugation_operator(0)
        assert np.array_equal(conjugation_operator(np.int64(3)), conjugation_operator(3))

    def test_antiunitary_action(self):
        u = random_unitary(3, seed=70)
        psi = random_state(3, seed=71)
        a = encode_antiunitary(u)
        got = a @ encode_state(state(psi))
        want = encode_state(state(u @ psi.conj()))
        assert np.allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 33, 64])
    def test_dense_forms(self, n):
        # The conjugation is I (x) Z, and the antiunitary's encoding is the product of the two dense matrices.
        u = random_unitary(n, seed=72)
        assert np.array_equal(conjugation_operator(n), np.kron(np.eye(n), Z))
        assert np.array_equal(encode_antiunitary(u), encode_operator(u) @ conjugation_operator(n))

    @pytest.mark.parametrize("max_dim", [8, 9])
    def test_largest_dimension_at_the_cap_is_built(self, monkeypatch, max_dim):
        monkeypatch.setattr(encoding, "DEFAULT_MAX_DIM", max_dim)
        assert np.array_equal(conjugation_operator(4), np.kron(np.eye(4), Z))

    @pytest.mark.parametrize("max_dim", [8, 9])
    def test_dimension_past_the_cap_is_rejected_before_it_is_built(self, monkeypatch, max_dim):
        monkeypatch.setattr(encoding, "DEFAULT_MAX_DIM", max_dim)

        def built(*args, **kwargs):
            raise AssertionError("conjugation_operator built an output past the cap")

        monkeypatch.setattr(np, "tile", built)
        monkeypatch.setattr(np, "diag", built)
        with pytest.raises(ValueError, match=r"^dimension 5 exceeds the size cap 4$"):
            conjugation_operator(5)

    def test_antiunitary_requires_unitary(self):
        with pytest.raises(ValueError):
            encode_antiunitary(2 * np.eye(2, dtype=complex))


class TestEncodedContainers:
    def test_encoded_state_rejects_truly_complex_vectors(self):
        with pytest.raises(ValueError, match="imaginary part exactly zero"):
            encoded_povm_probabilities(np.array([S, S * 1j]), Povm((np.eye(1),)))

    def test_encoded_state_rejects_wrong_size(self):
        povm = Povm((np.eye(2),))
        with pytest.raises(ValueError, match=r"shape \(3,\) does not match POVM dimension 2 with k=1"):
            encoded_povm_probabilities(np.array([1.0, 0.0, 0.0]), povm)
        with pytest.raises(ValueError, match=r"shape \(4,\) does not match POVM dimension 2 with k=2"):
            encoded_povm_probabilities(np.array([1.0, 0.0, 0.0, 0.0]), povm, 2)
        for bad, k in [(np.zeros(3), 1), (np.zeros(6), 2), (np.zeros((2, 2)), 1), (np.zeros(0), 1)]:
            with pytest.raises(ValueError, match=rf"does not fit k={k}$"):
                decode_state(bad, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        lambda x: encoded_povm_probabilities(np.full(2, x), Povm((np.eye(1),))),
        lambda x: DensityOperator(np.full((2, 2), x)),
        lambda x: Povm((np.full((2, 2), x),)),
        lambda x: PureState(np.full(2, x)),
        lambda x: Hamiltonian(np.full((2, 2), x)),
        lambda x: BellScenario(2, (1, 1), ((Z,), (np.diag([x, -1.0]),)), {(0, 0): 1.0}, 1.0),
        lambda x: encoding.apply_kraus([np.diag([x, 1.0])], DensityOperator(np.eye(2) / 2)),
        lambda x: encode_kraus([np.diag([x, 1.0])]),
        lambda x: encode_operator(np.full((2, 2), x)),
        lambda x: encoded_povm_probabilities(np.full((2, 2), x), Povm((np.eye(1),))),
    ], ids=["encoded_state_vector", "DensityOperator", "Povm", "PureState", "Hamiltonian",
            "BellScenario", "apply_kraus", "encode_kraus", "encode_operator", "encoded_povm_probabilities"])
    def test_non_finite_entries_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    @pytest.mark.parametrize("source, stored", [
        (lambda: np.array([S, S * 1j]), lambda a: PureState(a).amplitudes),
        (lambda: np.eye(2) / 2, lambda a: DensityOperator(a).matrix),
        (lambda: np.diag([1.0, 0.0]), lambda a: Povm((a, np.diag([0.0, 1.0]))).elements[0]),
        (lambda: np.diag([1.0, -1.0]), lambda a: Hamiltonian(a).matrix),
        (lambda: np.diag([1.0, -1.0]), lambda a: BellScenario(2, (1, 1), ((Z,), (a,)), {(0, 0): 1.0}, 1.0).observables[1][0]),
    ], ids=["PureState", "DensityOperator", "Povm", "Hamiltonian", "BellScenario"])
    def test_every_stored_array_is_a_read_only_copy(self, source, stored):
        a = source()
        kept = stored(a)
        assert not kept.flags.writeable
        assert not np.shares_memory(a, kept)
        a[0] = 0.0
        assert not np.array_equal(kept, a)

    @pytest.mark.parametrize("family, shape", [
        (lambda: Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])]).elements, (3, 2, 2)),
        (lambda: BellScenario(2, (1, 2), ((Z,), (Z, np.diag([-1.0, 1.0]))), {(0, 0): 1.0}, 1.0).observables[1],
         (2, 2, 2)),
        (lambda: encoding._channel_matrices([np.eye(3) * np.sqrt(0.5)] * 2), (2, 3, 3)),
    ], ids=["Povm", "BellScenario", "Kraus"])
    def test_every_operator_family_is_one_read_only_stack(self, family, shape):
        stack = family()
        assert isinstance(stack, np.ndarray) and stack.shape == shape and stack.dtype == complex
        assert not stack.flags.writeable

    @pytest.mark.parametrize("build", [
        lambda: encoded_povm_probabilities(np.array([1.0, 1e-300j]), Povm((np.eye(1),))),
        lambda: encoded_povm_probabilities(np.eye(2) / 2 + 1e-300j, Povm((np.eye(1),))),
    ], ids=["encoded_state_vector", "encoded_povm_probabilities"])
    def test_real_containers_reject_an_imaginary_part(self, build):
        with pytest.raises(ValueError, match="imaginary part exactly zero"):
            build()

    def test_state_norm_overflow_rejected(self):
        # 1e300 squared overflows; the norm is inf and fails the unit-norm test without a numpy warning.
        with pytest.raises(ValueError, match=r"^state norm inf is not 1"):
            PureState(np.array([1e300, 0.0]))
