"""Encoded time evolution: generator structure, propagators, trajectories."""

import numpy as np
import pytest

from helpers import eig_expm_hermitian
from realsim import dynamics, linalg
from realsim.dynamics import (
    EvolutionResult,
    Hamiltonian,
    commutation_check,
    evolve,
    generator,
    propagator,
    propagator_errors,
    trajectory,
)
from realsim.encoding import (
    Layout,
    Povm,
    PureState,
    encode_operator,
    encode_state,
    encoded_povm_probabilities,
)
from realsim.encoding import local_xz as encoding_local_xz

S = 1.0 / np.sqrt(2.0)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def state(vec, dims=None):
    return PureState(np.asarray(vec, dtype=complex), factor_dims=dims)


def within_tolerances(res):
    """Every diagnostic of an evolution result within the tolerance the CLI judges it by."""
    return (res.orthogonality_error <= linalg.ORTHOGONALITY_TOL and res.max_deviation <= linalg.AGREEMENT_TOL
            and (res.expm_error is None or res.expm_error <= linalg.AGREEMENT_TOL))


class TestHamiltonian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Hamiltonian(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # A NaN matrix is not "Hermitian within 1e-10"; without the check its spectrum came out NaN.
        with pytest.raises(ValueError, match="must be finite"):
            Hamiltonian(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="must be finite"):
            Hamiltonian(np.array([[1.0, 0.0], [0.0, bad]]))


class TestGenerator:
    def test_scalar_case_is_the_quarter_turn(self):
        g = generator(Hamiltonian(np.array([[1.0]])))
        assert np.array_equal(g, np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_real_and_antisymmetric(self, dim):
        h = Hamiltonian(linalg.random_hermitian(dim, seed=dim))
        g = generator(h)
        assert not np.iscomplexobj(g)
        assert np.abs(g + g.T).max() <= 1e-12

    def test_logical_layout_also_antisymmetric(self):
        h = Hamiltonian(linalg.random_hermitian(4, seed=9))
        g = generator(h, layout=Layout(2))
        assert np.abs(g + g.T).max() <= 1e-12

    def test_ancilla_rotation_commutes(self):
        h = Hamiltonian(linalg.random_hermitian(6, seed=10))
        assert commutation_check(h)
        assert commutation_check(h, layout=Layout(2), xz_qubit=1)

    def test_wrong_ancilla_action_does_not_commute(self, monkeypatch):
        # Replacing the quarter turn by a bare bit flip breaks the algebra
        # whenever the Hamiltonian has imaginary entries.
        h = linalg.random_hermitian(3, seed=11)
        h_enc = encode_operator(h).matrix
        j_bad = linalg.kron(np.eye(3), X.real)
        assert np.abs(j_bad @ h_enc - h_enc @ j_bad).max() > 0.1
        monkeypatch.setattr(dynamics, "XZ", X.real)
        assert not commutation_check(Hamiltonian(h))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_generator_equals_the_dense_product_on_every_qubit(self, k):
        h = Hamiltonian(linalg.random_hermitian(3, seed=12 + k))
        for q in range(k):
            dense_j = np.kron(np.eye(3), encoding_local_xz(k, q))
            dense = dense_j @ encode_operator(h.matrix, Layout(k), q).matrix
            assert np.abs(generator(h, Layout(k), q) - dense).max() == 0.0
            assert commutation_check(h, Layout(k), q)


class TestEvolve:
    def test_zero_time_is_identity(self):
        psi = state(linalg.random_state(4, seed=20))
        res = evolve(Hamiltonian(linalg.random_hermitian(4, seed=21)), 0.0, psi)
        assert within_tolerances(res)
        assert np.allclose(res.complex_states[0].amplitudes, psi.amplitudes, atol=1e-14)
        assert np.allclose(res.encoded_states[0].amplitudes, encode_state(psi).amplitudes, atol=1e-14)

    def test_z_rotation_closed_form(self):
        # exp(i Z pi/2) sends (|0>+|1>)/sqrt(2) to (i|0>-i|1>)/sqrt(2).
        res = evolve(Hamiltonian(Z), np.pi / 2, state([S, S]))
        assert np.allclose(res.complex_states[0].amplitudes, [1j * S, -1j * S], atol=1e-14)
        assert np.allclose(res.encoded_states[0].amplitudes, [0.0, S, 0.0, -S], atol=1e-14)
        assert res.orthogonality_error <= 1e-11
        assert res.max_deviation <= 1e-10

    def test_agreement_across_random_cases(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            h = Hamiltonian(linalg.random_hermitian(dim, seed=int(rng.integers(2**32))))
            psi = state(linalg.random_state(dim, seed=int(rng.integers(2**32))))
            t = float(rng.uniform(-10.0, 10.0))
            res = evolve(h, t, psi)
            assert res.orthogonality_error <= 1e-11
            assert res.max_deviation <= 1e-10

    def test_physics_sign_convention(self):
        h = Hamiltonian(linalg.random_hermitian(4, seed=23))
        psi = state(linalg.random_state(4, seed=24))
        res = evolve(h, 1.7, psi, sign=-1)
        assert within_tolerances(res)
        want = eig_expm_hermitian(h.matrix, scale=-1.7) @ psi.amplitudes
        assert np.allclose(res.complex_states[0].amplitudes, want, atol=1e-12)

    def test_norm_preserved(self):
        h = Hamiltonian(linalg.random_hermitian(5, seed=25))
        res = evolve(h, 3.3, state(linalg.random_state(5, seed=26)))
        assert within_tolerances(res)
        assert abs(np.linalg.norm(res.encoded_states[0].amplitudes) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(Hamiltonian(np.eye(2)), 1.0, state([1.0, 0.0, 0.0]))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            evolve(Hamiltonian(np.eye(2)), 1.0, state([1.0, 0.0]), sign=2)


class TestTrajectory:
    def test_rabi_oscillation_probabilities(self):
        # Under exp(i X t) from |0> the survival probability is cos(t)^2.
        res = trajectory(Hamiltonian(X), state([1.0, 0.0]), t_max=2 * np.pi, steps=33)
        assert within_tolerances(res)
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        for t, enc in zip(res.times, res.encoded_states):
            p = encoded_povm_probabilities(enc, povm)
            assert abs(p[0] - np.cos(t) ** 2) <= 1e-12

    def test_two_party_logical_layout(self):
        h = Hamiltonian(np.kron(Z, Z))
        psi = state(linalg.random_state(4, seed=30), dims=(2, 2))
        res = trajectory(h, psi, t_max=4.0, steps=17, layout=Layout(2))
        assert res.orthogonality_error <= 1e-11
        assert res.max_deviation <= 1e-10
        assert res.expm_error <= 1e-10
        assert res.encoded_states[0].layout == Layout(2)

    def test_energy_conserved_on_both_sides(self):
        h = Hamiltonian(linalg.random_hermitian(4, seed=31))
        psi = state(linalg.random_state(4, seed=32))
        res = trajectory(h, psi, t_max=6.0, steps=25)
        assert within_tolerances(res)
        e0 = float(np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes).real)
        h_enc = encode_operator(h.matrix).matrix
        for cs, enc in zip(res.complex_states, res.encoded_states):
            e_complex = float(np.vdot(cs.amplitudes, h.matrix @ cs.amplitudes).real)
            # the encoded quadratic form returns the real part, which is the
            # whole expectation for a Hermitian generator
            e_encoded = float(enc.amplitudes @ (h_enc @ enc.amplitudes))
            assert abs(e_complex - e0) <= 1e-10
            assert abs(e_encoded - e0) <= 1e-10

    def test_group_law_holds(self):
        h = Hamiltonian(linalg.random_hermitian(3, seed=33))
        res = trajectory(h, state(linalg.random_state(3, seed=34)), t_max=2.0, steps=5)
        assert within_tolerances(res)
        assert res.expm_error <= 1e-10
        assert np.abs(propagator(h, 0.7) @ propagator(h, 1.3) - propagator(h, 2.0)).max() <= 1e-10

    def test_overflowing_hamiltonian_fails_the_agreement_gate(self):
        # Finite entries, but the dense exponential of the generator comes out NaN;
        # NaN must fail a tolerance gate, not slip past it.
        h = Hamiltonian(np.diag([1e300, -1e300]))
        res = trajectory(h, state([S, 1j * S]), t_max=1.0, steps=3)
        assert not res.expm_error <= linalg.AGREEMENT_TOL

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            trajectory(Hamiltonian(np.eye(2)), state([1.0, 0.0]), t_max=1.0, steps=1)

    def test_times_form_the_requested_grid(self):
        res = trajectory(Hamiltonian(Z), state([S, S]), t_max=1.0, steps=5)
        assert within_tolerances(res)
        assert res.times == (0.0, 0.25, 0.5, 0.75, 1.0)


class TestSpectralPropagator:
    """The spectral U(t) against the dense scaling-and-squaring exponential."""

    @staticmethod
    def cases():
        """Random H with n from 2 to 8 and |t| <= 10, for k = 1, 2, 3 and both signs."""
        rng = np.random.default_rng(40)
        for k in (1, 2, 3):
            for sign in (1, -1):
                for _ in range(4):
                    h = Hamiltonian(linalg.random_hermitian(int(rng.integers(2, 9)), seed=int(rng.integers(2**32))))
                    yield h, Layout(k), float(rng.uniform(-10.0, 10.0)), sign

    def test_matches_the_dense_exponential(self):
        worst = 0.0
        for h, layout, t, sign in self.cases():
            dense = linalg.matexp(sign * t * generator(h, layout))
            worst = max(worst, float(np.abs(propagator(h, t, layout, sign) - dense).max()))
        assert worst <= 1e-12

    def test_real_and_orthogonal(self):
        for h, layout, t, sign in self.cases():
            u = propagator(h, t, layout, sign)
            assert not np.iscomplexobj(u)
            assert np.abs(u.T @ u - np.eye(u.shape[0])).max() <= 1e-11

    @pytest.mark.parametrize("which", ["dense", "spectral"])
    def test_group_law(self, which):
        rng = np.random.default_rng(41)
        for h, layout, _, sign in self.cases():
            g = sign * generator(h, layout)

            def u(t):
                return linalg.matexp(t * g) if which == "dense" else propagator(h, t, layout, sign)

            t1, t2 = rng.uniform(-5.0, 5.0, size=2)
            assert np.abs(u(t1) @ u(t2) - u(t1 + t2)).max() <= 1e-10

    def test_spectrum_is_computed_once_per_layout(self):
        h = Hamiltonian(linalg.random_hermitian(4, seed=42))
        psi = state(linalg.random_state(4, seed=43), dims=(2, 2))
        assert within_tolerances(trajectory(h, psi, t_max=1.0, steps=4, layout=Layout(2)))
        assert h.spectrum is h.spectrum
        assert h.encoded_spectrum(Layout(2)) is h.encoded_spectrum(Layout(2))
        assert h.encoded_spectrum(Layout(1))[1].shape == (8, 8)
        assert not any(a.flags.writeable for a in h.encoded_spectrum(Layout(2)))

    def test_cached_j_v_is_the_ancilla_rotation_of_v(self):
        for h, layout, _, _ in self.cases():
            _, v, jv = h.encoded_spectrum(layout)
            j = np.kron(np.eye(h.dim), encoding_local_xz(layout.k, 0))
            assert np.array_equal(jv, j @ v)

    def test_symmetric_x_in_place_of_j_fails_the_dense_check(self, monkeypatch):
        # cos(tH') + J sin(tH') equals exp(tJH') only because J^2 = -I.  With the
        # symmetric bit flip X (X^2 = +I) in place of XZ, which the cached J V and the
        # generator both take from one kernel, the spectral formula and the dense
        # exponential part ways, and the dense comparison says so.
        m = linalg.random_hermitian(3, seed=44)
        assert propagator_errors(Hamiltonian(m), 1.3)[1] <= 1e-10
        monkeypatch.setattr(dynamics, "XZ", np.abs(dynamics.XZ))
        h = Hamiltonian(m)
        _, v, jv = h.encoded_spectrum()
        assert np.array_equal(jv, np.kron(np.eye(3), np.abs(encoding_local_xz(1, 0))) @ v)
        assert not propagator_errors(h, 1.3)[1] <= 1e-10

    def test_perturbed_eigenvectors_fail_the_orthogonality_gate(self):
        h = Hamiltonian(linalg.random_hermitian(3, seed=45))
        psi = state(linalg.random_state(3, seed=46))
        assert trajectory(h, psi, t_max=2.0, steps=5).orthogonality_error <= linalg.ORTHOGONALITY_TOL
        lam, v, jv = h.encoded_spectrum()
        h._encoded_spectra[Layout(1)] = (lam, v * (1.0 + 2e-11), jv * (1.0 + 2e-11))
        res = trajectory(h, psi, t_max=2.0, steps=5)
        assert not res.orthogonality_error <= linalg.ORTHOGONALITY_TOL
        assert res.max_deviation <= linalg.AGREEMENT_TOL and res.expm_error <= linalg.AGREEMENT_TOL
        # One step's norm drift alone shows the fault.
        assert not evolve(h, 1.0, psi).orthogonality_error <= linalg.ORTHOGONALITY_TOL

    def test_input_norm_off_one_is_not_counted_against_the_propagator(self):
        # PureState accepts a norm within 1e-10 of 1 and never renormalizes; a
        # norm of 1 + 1.9e-11 is kept by the propagator and passes the 1e-11 gate.
        h = Hamiltonian(linalg.random_hermitian(2, seed=47))
        psi = state([0.7071067812, 0.7071067812])
        assert np.linalg.norm(psi.amplitudes) - 1.0 > 1e-11
        assert within_tolerances(trajectory(h, psi, t_max=2.0, steps=5))
        assert within_tolerances(evolve(h, 1.0, psi))
