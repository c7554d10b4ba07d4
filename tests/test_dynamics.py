"""Encoded time evolution: generator structure, propagators, trajectories."""

import collections
import inspect
import os
import threading

import numpy as np
import pytest

import realsim
from helpers import (dense_encode, eig_expm_hermitian, generator, perturbed_eigh, random_hermitian, random_state,
                     spectral_propagator)
from realsim import dynamics, encoding, linalg
from realsim.dynamics import EvolutionResult, Hamiltonian, trajectory
from realsim.encoding import (
    Povm,
    PureState,
    apply_xz,
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
            and res.expm_error <= linalg.AGREEMENT_TOL)


def at(h, t, psi, k=1, sign=1):
    """Evolution to the single time t: the last row of a two-point grid, whose end point linspace makes exact."""
    return trajectory(h, psi, t, steps=2, k=k, sign=sign)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices numpy's eigh is given while the test runs, in call order."""
    eigh, seen = np.linalg.eigh, []

    def recording(a, *args, **kwargs):
        seen.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


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


class TestHermitianPart:
    """Both sides simulate the one Hermitian matrix that eigh reads of H; H is kept as given."""

    # Admitted (within INPUT_TOL of Hermitian) but not Hermitian.
    ADMITTED = {
        "imaginary_diagonal": [[0.3 + 0.49e-10j, 1.0], [1.0, -0.2 - 0.49e-10j]],
        "one_sided_off_diagonal": [[0.3, 1.0 + 0.99e-10], [1.0, -0.2]],
    }

    @pytest.mark.parametrize("name", ADMITTED)
    def test_matrix_is_kept_and_hermitian_is_what_eigh_reads(self, name, eigh_calls):
        m = np.array(self.ADMITTED[name], dtype=complex)
        h = Hamiltonian(m)
        assert np.array_equal(h.matrix, m)
        assert np.array_equal(h.hermitian, [[0.3, 1.0], [1.0, -0.2]])
        assert not h.hermitian.flags.writeable
        at(h, 1.0, state([S, 1j * S]))
        assert eigh_calls[0] is h.hermitian  # the complex side's decomposition
        for ours, numpys in zip(np.linalg.eigh(h.hermitian), np.linalg.eigh(m)):
            assert np.array_equal(ours, numpys)

    def test_exactly_hermitian_input_is_its_own_hermitian_part(self):
        m = random_hermitian(6, seed=7)
        assert Hamiltonian(m).hermitian.tobytes() == m.tobytes()
        # -Z with signed zeros below the diagonal and in the diagonal's imaginary parts:
        # eigh reads those bits, so they are selected, never summed into +0.0.
        m = np.array([[complex(-1.0, -0.0), complex(0.0, 0.0)], [complex(-0.0, -0.0), complex(1.0, -0.0)]])
        her = Hamiltonian(m).hermitian
        assert np.tril(her).tobytes() == np.tril(m).tobytes()
        assert np.array_equal(her, m)

    @pytest.mark.parametrize("t_max", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("name", ADMITTED)
    def test_admitted_hamiltonian_passes_every_gate(self, name, t_max):
        # When H' was encoded from H itself, eigh(H') read +Im H_ii in the lower triangle of each
        # diagonal block, and an off-diagonal mismatch made H' differ from the H eigh(H) reads.
        # The imaginary diagonal failed |U^T U - I| <= 1e-11 (4.5e-11 at t = 1), the off-diagonal
        # mismatch the dense comparison (3.6e-10 at t = 10).
        res = trajectory(Hamiltonian(np.array(self.ADMITTED[name])), state([S, 1j * S]), t_max=t_max)
        assert within_tolerances(res)


class TestGenerator:
    def test_scalar_case_is_the_quarter_turn(self):
        g = generator(Hamiltonian(np.array([[1.0]])))
        assert np.array_equal(g, np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_real_and_antisymmetric(self, dim):
        h = Hamiltonian(random_hermitian(dim, seed=dim))
        g = generator(h)
        assert not np.iscomplexobj(g)
        assert np.abs(g + g.T).max() <= 1e-12

    def test_logical_layout_also_antisymmetric(self):
        h = Hamiltonian(random_hermitian(4, seed=9))
        g = generator(h, k=2)
        assert np.abs(g + g.T).max() <= 1e-12

    def test_ancilla_rotation_commutes(self):
        # J is a signed permutation and H' carries Im H through XZ on one qubit, so J H' - H' J
        # is exactly zero whichever ancilla qubit each of them uses.
        h = random_hermitian(6, seed=10)
        for k in (1, 2, 3):
            for q in range(k):
                j = np.kron(np.eye(6), encoding_local_xz(k, q))
                for xz_qubit in range(k):
                    h_enc = dense_encode(h, k, xz_qubit)
                    assert np.abs(j @ h_enc - h_enc @ j).max() == 0.0

    def test_wrong_ancilla_action_does_not_commute(self):
        # Replacing the quarter turn by a bare bit flip breaks the algebra
        # whenever the Hamiltonian has imaginary entries.
        h = random_hermitian(3, seed=11)
        h_enc = encode_operator(h)
        j_bad = np.kron(np.eye(3), X.real)
        assert np.abs(j_bad @ h_enc - h_enc @ j_bad).max() > 0.1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_generator_equals_the_dense_product_on_every_qubit(self, k):
        h = Hamiltonian(random_hermitian(3, seed=12 + k))
        for q in range(k):
            dense_j = np.kron(np.eye(3), encoding_local_xz(k, q))
            dense = dense_j @ dense_encode(h.matrix, k, q)
            assert np.abs(generator(h, k, q) - dense).max() == 0.0


class TestSingleTime:
    """Evolution to one time t, the last row of trajectory(h, psi, t, steps=2)."""

    def test_zero_time_is_identity(self):
        psi = state(random_state(4, seed=20))
        res = at(Hamiltonian(random_hermitian(4, seed=21)), 0.0, psi)
        assert within_tolerances(res)
        assert np.allclose(res.complex_states[-1], psi.amplitudes, atol=1e-14)
        assert np.allclose(res.encoded_states[-1], encode_state(psi), atol=1e-14)

    def test_z_rotation_closed_form(self):
        # exp(i Z pi/2) sends (|0>+|1>)/sqrt(2) to (i|0>-i|1>)/sqrt(2).
        res = at(Hamiltonian(Z), np.pi / 2, state([S, S]))
        assert np.allclose(res.complex_states[-1], [1j * S, -1j * S], atol=1e-14)
        assert np.allclose(res.encoded_states[-1], [0.0, S, 0.0, -S], atol=1e-14)
        assert res.orthogonality_error <= 1e-11
        assert res.max_deviation <= 1e-10

    def test_agreement_across_random_cases(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            h = Hamiltonian(random_hermitian(dim, seed=int(rng.integers(2**32))))
            psi = state(random_state(dim, seed=int(rng.integers(2**32))))
            t = float(rng.uniform(-10.0, 10.0))
            res = at(h, t, psi)
            assert res.orthogonality_error <= 1e-11
            assert res.max_deviation <= 1e-10

    def test_physics_sign_convention(self):
        h = Hamiltonian(random_hermitian(4, seed=23))
        psi = state(random_state(4, seed=24))
        res = at(h, 1.7, psi, sign=-1)
        assert within_tolerances(res)
        want = eig_expm_hermitian(h.matrix, scale=-1.7) @ psi.amplitudes
        assert np.allclose(res.complex_states[-1], want, atol=1e-12)

    def test_norm_preserved(self):
        h = Hamiltonian(random_hermitian(5, seed=25))
        res = at(h, 3.3, state(random_state(5, seed=26)))
        assert within_tolerances(res)
        assert abs(np.linalg.norm(res.encoded_states[-1]) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^Hamiltonian dimension 2 does not match state dimension 3$"):
            at(Hamiltonian(np.eye(2)), 1.0, state([1.0, 0.0, 0.0]))

    def test_times_given_as_strings_are_rejected(self):
        h, psi = Hamiltonian(Z), state([S, S])
        with pytest.raises(ValueError, match=r"^t_max must be a real number, got '1\.0'$"):
            trajectory(h, psi, "1.0")
        assert trajectory(h, psi, np.float32(1.0), steps=3).times.tolist() == [0.0, 0.5, 1.0]
        assert at(h, np.int64(1), psi).times.tolist() == [0.0, 1.0]

    def test_bad_sign_rejected(self):
        # The sign is read by linalg.as_int, which shows a string quoted: "got 1" would read as if the
        # integer 1 had been refused.  A bool or a float is not an integer there, even one equal to 1.
        h, psi = Hamiltonian(np.eye(2)), state([1.0, 0.0])
        for sign, message in [(2, r"\+1 or -1, got 2"), ("1", "an integer, got '1'"), (None, "an integer, got None"),
                              (True, "an integer, got True"), (1.0, r"an integer, got 1\.0")]:
            with pytest.raises(ValueError, match=rf"^sign must be {message}$"):
                trajectory(h, psi, 1.0, sign=sign)

    @pytest.mark.parametrize("h, t", [(np.full((2, 2), 1.7e308), 0.0), (np.diag([1.7e308, -1.7e308]), 2.5)],
                             ids=["infinite_eigenvalue", "phase_overflow"])
    def test_non_finite_phases_rejected(self, h, t):
        # eigh returns inf for the first H, so t*w is NaN even at t = 0; the second overflows.
        with pytest.raises(ValueError, match=rf"^dynamics: phases t\*w of the spectrum are not finite at t={t}$"):
            at(Hamiltonian(h), t, state([S, 1j * S]))

    @pytest.mark.parametrize("side", ["complex", "encoded"])
    def test_a_nan_eigenvalue_on_either_side_is_a_phase_error(self, monkeypatch, side):
        # The one phase check, at t_max, reads the largest |eigenvalue| of both spectra: NaN must not drop out.
        eigh = np.linalg.eigh

        def nan_first(a):
            w, v = eigh(a)
            if np.iscomplexobj(a) == (side == "complex"):
                w = np.concatenate(([np.nan], w[1:]))
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", nan_first)
        with pytest.raises(ValueError, match=r"^dynamics: phases t\*w of the spectrum are not finite at t=0\.0$"):
            trajectory(Hamiltonian(Z), state([S, 1j * S]), t_max=1.0, steps=3)


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
        psi = state(random_state(4, seed=30), dims=(2, 2))
        res = trajectory(h, psi, t_max=4.0, steps=17, k=2)
        assert res.orthogonality_error <= 1e-11
        assert res.max_deviation <= 1e-10
        assert res.expm_error <= 1e-10
        assert res.encoded_states.shape == (17, 4 * 4)

    def test_energy_conserved_on_both_sides(self):
        h = Hamiltonian(random_hermitian(4, seed=31))
        psi = state(random_state(4, seed=32))
        res = trajectory(h, psi, t_max=6.0, steps=25)
        assert within_tolerances(res)
        e0 = float(np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes).real)
        h_enc = encode_operator(h.matrix)
        for cs, enc in zip(res.complex_states, res.encoded_states):
            e_complex = float(np.vdot(cs, h.matrix @ cs).real)
            # the encoded quadratic form returns the real part, which is the
            # whole expectation for a Hermitian generator
            e_encoded = float(enc @ (h_enc @ enc))
            assert abs(e_complex - e0) <= 1e-10
            assert abs(e_encoded - e0) <= 1e-10

    def test_group_law_holds(self):
        h = Hamiltonian(random_hermitian(3, seed=33))
        res = trajectory(h, state(random_state(3, seed=34)), t_max=2.0, steps=5)
        assert within_tolerances(res)
        assert res.expm_error <= 1e-10
        # U(s) U(t) = U(s + t) on both sides: evolving the state at t = 0.5 on by 0, 0.5, 1 and 1.5
        # lands on the rows at 0.5, 1, 1.5 and 2.
        on = trajectory(h, state(res.complex_states[1]), t_max=1.5, steps=4)
        assert np.abs(on.complex_states - res.complex_states[1:]).max() <= 1e-10
        assert np.abs(on.encoded_states - res.encoded_states[1:]).max() <= 1e-10
        u = [spectral_propagator(h, t) for t in (0.7, 1.3, 2.0)]
        assert np.abs(u[0] @ u[1] - u[2]).max() <= 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("steps", [2, 7, 32])
    def test_each_grid_point_is_one_call_of_the_step(self, monkeypatch, steps, k):
        # bench/tests/test_bench.py:146 pins 32 calls of dynamics.evolve per benchmark evolve job, counted
        # by name at the module binding.  Until ROADMAP item 1 counts trajectory calls in their place, the
        # step stays a public function of dynamics that trajectory calls through that binding once per
        # grid point; inlining or renaming it fails here, before the bench step of CI.  The step only
        # forms that point's two states: trajectory measures every row once the grid is done, so the
        # work per point is the step's alone (see the next test).
        step, times = dynamics.evolve, []

        def counted(t, *args, **kwargs):
            times.append(t)
            return step(t, *args, **kwargs)

        monkeypatch.setattr(dynamics, "evolve", counted)
        psi = state(random_state(4, seed=38), (2, 2) if k == 2 else None)
        res = trajectory(Hamiltonian(random_hermitian(4, seed=39)), psi, t_max=1.0, steps=steps, k=k)
        assert within_tolerances(res)
        assert len(times) == steps and times == res.times.tolist()

    @pytest.mark.parametrize("k", [1, 2])
    def test_the_encoding_layer_is_called_as_often_whatever_the_grid(self, monkeypatch, k):
        # Every function of encoding that dynamics binds is counted.  The grid's rows are encoded in one
        # call after the loop, so no encoding call is made per grid point.
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name, fn in list(vars(dynamics).items()):
            if inspect.isfunction(fn) and fn.__module__ == encoding.__name__:
                monkeypatch.setattr(dynamics, name, counted(name, fn))
        h, psi = Hamiltonian(random_hermitian(4, seed=40)), state(random_state(4, seed=41), (2, 2) if k == 2 else None)
        per_grid = {}
        for steps in (2, 7, 32):
            calls.clear()
            assert within_tolerances(trajectory(h, psi, t_max=1.0, steps=steps, k=k))
            per_grid[steps] = dict(calls)
        assert per_grid[2]["encode_amplitudes"] == 2
        assert per_grid[2] == per_grid[7] == per_grid[32]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k, dims", [(1, (6,)), (2, (2, 3)), (3, (2, 2, 2))])
    def test_each_rows_norm_change_and_deviation_are_numpys_norms_of_that_row(self, monkeypatch, k, dims, sign):
        # trajectory measures the rows together; each row must read as np.linalg.norm reads it alone, on a
        # fresh copy, bit for bit, as the step measured it when it ran once per grid point.
        measured, row_norms = [], dynamics._row_norms

        def recorded(x):
            measured.append(row_norms(x))
            return measured[-1]

        monkeypatch.setattr(dynamics, "_row_norms", recorded)
        n = int(np.prod(dims))
        psi = state(random_state(n, seed=42 + k), dims)
        res = trajectory(Hamiltonian(random_hermitian(n, seed=45 + k)), psi, t_max=3.0, steps=7, k=k, sign=sign)
        norm0 = float(np.linalg.norm(encoding.encode_state(psi, k)))
        norms = [float(np.linalg.norm(row.copy())) for row in res.encoded_states]
        deviations = [float(np.linalg.norm(row - encoding.encode_amplitudes(z.copy(), dims, k)))
                      for row, z in zip(res.encoded_states, res.complex_states)]
        assert len(measured) == 2
        assert measured[0].tobytes() == np.array(norms).tobytes()
        assert measured[1].tobytes() == np.array(deviations).tobytes()
        assert np.float64(res.max_deviation).tobytes() == np.float64(max(deviations)).tobytes()
        assert res.orthogonality_error >= max(abs(x - norm0) for x in norms)

    def test_row_norms_are_numpys_norms_at_every_length(self):
        # Lengths past and between the BLAS kernel's unrolled blocks, rows at every offset of their stack.
        rng = np.random.default_rng(47)
        for m in [*range(1, 70), 127, 128, 129, 1000]:
            x = rng.standard_normal((5, m)) * 10.0 ** rng.integers(-3, 4, (5, m))
            want = np.array([np.linalg.norm(row.copy()) for row in x])
            assert dynamics._row_norms(x).tobytes() == want.tobytes(), m

    def test_overflowing_hamiltonian_is_rejected_by_layer(self):
        # Finite entries, but the squarings of the dense exponential of the generator overflow;
        # the error names the layer and the time instead of reporting a NaN.
        h = Hamiltonian(np.diag([1e300, -1e300]))
        with pytest.raises(ValueError, match=r"^dynamics: dense exponential of the generator is not finite at t=1\.0$"):
            trajectory(h, state([S, 1j * S]), t_max=1.0, steps=3)

    @pytest.mark.parametrize("k, message", [(2, r"^state has 1 factors, expected one per party with k=2$"),
                                            (13, r"^ancilla count k=13 out of range \[1, 12\]$")])
    def test_state_that_does_not_fit_k_is_rejected_before_any_work(self, monkeypatch, k, message):
        def ran(*args):
            raise AssertionError("trajectory started work on a state that does not fit k")

        monkeypatch.setattr(np.linalg, "eigh", ran)
        monkeypatch.setattr(dynamics, "matexp", ran)
        h = Hamiltonian(random_hermitian(8, seed=36))
        with pytest.raises(ValueError, match=message):
            trajectory(h, state(random_state(8, seed=37), (8,)), t_max=1.0, steps=4, k=k)

    @pytest.mark.parametrize("k, steps", [(1, 4194305), (3, 1048577), (1, 10 ** 400)])
    def test_grid_past_the_bound_is_rejected_before_any_work(self, monkeypatch, k, steps):
        # steps x n 2^k encoded amplitudes above DEFAULT_MAX_DIM^2 = 2^24, the bound optimize_bell's chunks keep:
        # the first count past it at k = 1 and 3, and one too large for numpy to allocate.
        def ran(*args, **kwargs):
            raise AssertionError("trajectory started work on a grid past the bound")

        for owner, name in [(np.linalg, "eigh"), (dynamics, "matexp"), (np, "linspace")]:
            monkeypatch.setattr(owner, name, ran)
        most = linalg.DEFAULT_MAX_DIM ** 2 // (2 * 2 ** k)
        assert steps == most + 1 or steps > 2 ** 64
        with pytest.raises(ValueError, match=rf"^steps must be at most {most} for 2 amplitudes at k={k}, got {steps}$"):
            trajectory(Hamiltonian(Z), state([S, 1j * S], (2,) + (1,) * (k - 1)), t_max=1.0, steps=steps, k=k)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            trajectory(Hamiltonian(np.eye(2)), state([1.0, 0.0]), t_max=1.0, steps=1)
        with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.5$"):
            trajectory(Hamiltonian(Z), state([S, S]), t_max=1.0, steps=2.5)
        res = trajectory(Hamiltonian(Z), state([S, S]), t_max=1.0, steps=np.int64(5))
        assert res.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_times_form_the_requested_grid(self):
        res = trajectory(Hamiltonian(Z), state([S, S]), t_max=1.0, steps=5)
        assert within_tolerances(res)
        assert res.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestWorkerThread:
    """trajectory runs the eigendecompositions on one worker thread that calls numpy only."""

    @staticmethod
    def case(k=1, seed=70):
        dims = (2, 2) if k == 2 else (4,)
        return Hamiltonian(random_hermitian(4, seed=seed)), state(random_state(4, seed=seed + 1), dims), k

    @pytest.mark.parametrize("k", [1, 2])
    def test_worker_runs_no_realsim_function(self, k):
        # A traced realsim function off the main thread would interleave the benchmark tracer's one
        # span stack.  The worker's own body is the only realsim frame there, and it calls eigh only.
        package = os.path.dirname(realsim.__file__) + os.sep
        main = threading.get_ident()
        calls = []

        def profile(frame, event, arg):
            if event == "call" and threading.get_ident() != main:
                calls.append((frame.f_code, frame.f_back.f_code if frame.f_back else None))

        h, psi, k = self.case(k)
        threading.setprofile(profile)
        try:
            res = trajectory(h, psi, t_max=1.0, steps=4, k=k)
        finally:
            threading.setprofile(None)
        assert within_tolerances(res)
        assert {code.co_name for code, _ in calls if code.co_filename.startswith(package)} == {"_eigh_each"}
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        called = {(code.co_filename, code.co_name) for code, caller in calls if caller and caller.co_name == "_eigh_each"}
        assert "eigh" in {name for _, name in called}
        assert all(path.startswith(numpy_dir) for path, _ in called)

    def test_worker_exception_is_raised_on_the_main_thread(self, monkeypatch):
        raised_on = []

        def fail(a, *args, **kwargs):
            raised_on.append(threading.get_ident())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        before = threading.active_count()
        monkeypatch.setattr(np.linalg, "eigh", fail)
        h, psi, _ = self.case()
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            trajectory(h, psi, t_max=1.0, steps=4)
        assert raised_on and threading.get_ident() not in raised_on
        assert threading.active_count() == before

    def test_main_thread_exception_still_joins_the_worker(self, monkeypatch):
        def fail(a):
            raise RuntimeError("matexp failed")

        before = threading.active_count()
        monkeypatch.setattr(dynamics, "matexp", fail)
        h, psi, _ = self.case()
        with pytest.raises(RuntimeError, match="matexp failed"):
            trajectory(h, psi, t_max=1.0, steps=4)
        assert threading.active_count() == before

    def test_every_call_decomposes_on_its_own_thread(self, monkeypatch):
        # A second trajectory on one Hamiltonian decomposes again, on a thread of its own, and every call
        # returns the bits of the same call on a fresh Hamiltonian.
        starts = []
        start = threading.Thread.start

        def counted(thread):
            starts.append(thread)
            start(thread)

        h, psi, _ = self.case()
        calls = [(psi, dict(t_max=1.0, steps=4)), (psi, dict(t_max=2.0, steps=4, sign=-1)),
                 (state(psi.amplitudes, (2, 2)), dict(t_max=1.0, steps=4, k=2))]
        fresh = [trajectory(Hamiltonian(h.matrix), phi, **kwargs) for phi, kwargs in calls]
        monkeypatch.setattr(threading.Thread, "start", counted)
        for (phi, kwargs), expected in zip(calls, fresh):
            res = trajectory(h, phi, **kwargs)
            assert res.times.tobytes() == expected.times.tobytes() and res.expm_error == expected.expm_error
            assert res.orthogonality_error == expected.orthogonality_error
            assert res.max_deviation == expected.max_deviation
            assert res.complex_states.tobytes() == expected.complex_states.tobytes()
            assert res.encoded_states.tobytes() == expected.encoded_states.tobytes()
        assert len(starts) == 3

    def test_phase_error_comes_before_the_dense_one(self):
        # Both fail for this H at t = 5: t*w overflows on the grid, and so does t*G.  The dense
        # exponential is formed first, but its error waits until the grid has run.
        h = Hamiltonian(np.diag([1.7e308, -1.7e308]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            linalg.matexp(5.0 * generator(h))
        with pytest.raises(ValueError, match=r"^dynamics: phases t\*w of the spectrum are not finite at t=2\.5$"):
            trajectory(h, state([S, 1j * S]), t_max=5.0, steps=3)


class TestArrayResults:
    """States come back as plain read-only arrays, one row per grid time, never re-admitted."""

    @pytest.mark.parametrize("k, dims", [(1, (6,)), (2, (2, 3)), (3, (2, 3, 2))])
    def test_rows_are_read_only_arrays_and_equal_single_times(self, k, dims):
        n = int(np.prod(dims))
        h = Hamiltonian(random_hermitian(n, seed=50 + k))
        psi = state(random_state(n, seed=60 + k), dims)
        res = trajectory(h, psi, t_max=1.5, steps=7, k=k, sign=-1)
        assert isinstance(res, EvolutionResult)
        assert [type(e) for e in (res.orthogonality_error, res.max_deviation, res.expm_error)] == [float] * 3
        assert res.complex_states.dtype == np.complex128 and res.encoded_states.dtype == np.float64
        assert res.complex_states.shape == (7, n) and res.encoded_states.shape == (7, n * 2 ** k)
        assert not res.complex_states.flags.writeable and not res.encoded_states.flags.writeable
        # Row i is, bit for bit, the single time t_i: the grid's projections are the ones every call makes.
        for i, t in enumerate(res.times.tolist()):
            one = at(h, t, psi, k, sign=-1)
            assert one.times.tolist() == [0.0, t]
            assert res.complex_states[i].tobytes() == one.complex_states[-1].tobytes()
            assert res.encoded_states[i].tobytes() == one.encoded_states[-1].tobytes()

    @pytest.mark.parametrize("t_max, steps", [(1.5, 7), (-2.0, 32), (0.0, 2)])
    def test_times_are_the_read_only_linspace_grid(self, t_max, steps):
        res = trajectory(Hamiltonian(Z), state([S, 1j * S]), t_max=t_max, steps=steps)
        assert res.times.dtype == np.float64 and not res.times.flags.writeable
        assert res.times.tobytes() == np.linspace(0.0, t_max, steps).tobytes()

    @pytest.mark.parametrize("k, dims", [(1, None), (2, (2, 4))])
    def test_input_norm_at_the_admission_bound_evolves(self, k, dims):
        # PureState admits a norm within INPUT_TOL of 1.  Evolved states re-admitted with the same
        # check crossed that bound by rounding: each of these seeds raised for k = 1 and k = 2.
        for seed in (6, 7, 8):
            amps = random_state(8, seed=seed) * (1.0 + linalg.INPUT_TOL - 2e-16)
            res = trajectory(Hamiltonian(random_hermitian(8, seed=1000 + seed)), state(amps, dims),
                             t_max=1.0, steps=16, k=k)
            assert within_tolerances(res)


class TestSpectralPropagator:
    """The spectral U(t) against the dense scaling-and-squaring exponential."""

    @staticmethod
    def cases():
        """Random H with n from 2 to 8 and |t| <= 10, for k = 1, 2, 3 and both signs."""
        rng = np.random.default_rng(40)
        for k in (1, 2, 3):
            for sign in (1, -1):
                for _ in range(4):
                    h = Hamiltonian(random_hermitian(int(rng.integers(2, 9)), seed=int(rng.integers(2**32))))
                    yield h, k, float(rng.uniform(-10.0, 10.0)), sign

    @staticmethod
    def run(h, t, sign):
        """trajectory on a two-point grid ending at t, which builds U(t) and checks it."""
        return trajectory(h, PureState(random_state(h.dim, seed=h.dim)), t_max=t, steps=2, sign=sign)

    def test_matches_the_dense_exponential(self):
        # At k > 1 the dense side exponentiates the whole k-qubit generator, which trajectory never builds:
        # it runs every layout through U_1, and this is where U_k = U_1 (x) I is checked.
        worst = 0.0
        for h, k, t, sign in self.cases():
            worst = max(worst, self.run(h, t, sign).expm_error)
            dense = linalg.matexp(sign * t * generator(h, k))
            u = spectral_propagator(h, t, sign)
            worst = max(worst, float(np.abs(np.kron(u, np.eye(2 ** (k - 1))) - dense).max()))
        assert worst <= 1e-12

    def test_real_and_orthogonal(self):
        for h, _, t, sign in self.cases():
            assert self.run(h, t, sign).orthogonality_error <= 1e-11
            u = spectral_propagator(h, t, sign)
            assert not np.iscomplexobj(u) and u.shape == (2 * h.dim, 2 * h.dim)
            assert np.abs(u.T @ u - np.eye(u.shape[0])).max() <= 1e-11

    @pytest.mark.parametrize("which", ["dense", "spectral"])
    def test_group_law(self, which):
        rng = np.random.default_rng(41)
        for h, k, _, sign in self.cases():
            g = sign * generator(h, k)

            def u(t):
                return linalg.matexp(t * g) if which == "dense" else spectral_propagator(h, t, sign)

            t1, t2 = rng.uniform(-5.0, 5.0, size=2)
            assert np.abs(u(t1) @ u(t2) - u(t1 + t2)).max() <= 1e-10

    @pytest.mark.parametrize("k, dims", [(1, None), (2, (2, 2))])
    def test_h_and_its_single_ancilla_encoding_are_decomposed_once_for_every_layout(self, eigh_calls, k, dims):
        # Two eigh calls per trajectory whatever k and steps: H and the 2n x 2n H', never the n 2^k one,
        # and none at a grid point.
        h = Hamiltonian(random_hermitian(4, seed=42))
        assert within_tolerances(trajectory(h, state(random_state(4, seed=43), dims), t_max=1.0, steps=7, k=k))
        assert len(eigh_calls) == 2 and eigh_calls[0] is h.hermitian
        assert np.array_equal(eigh_calls[1], encode_operator(h.hermitian))

    def test_j_v_is_the_ancilla_rotation_of_v(self):
        # trajectory forms J V from the eigenvectors of H' by apply_xz, never by a product with J.
        for h, _, _, _ in self.cases():
            _, v = np.linalg.eigh(encode_operator(h.hermitian))
            j = np.kron(np.eye(h.dim), encoding_local_xz(1, 0))
            assert np.array_equal(apply_xz(v, 1), j @ v)

    @pytest.mark.parametrize("k", [2, 3])
    def test_layout_k_encoding_is_the_single_ancilla_one_times_identity(self, k):
        # J and Im H both sit on ancilla qubit 0, so the other k - 1 qubits are spectators bit for bit:
        # this is what lets evolve decompose and exponentiate H' at k = 1 for every layout.
        spectators = np.eye(2 ** (k - 1))
        for seed in range(4):
            h = Hamiltonian(random_hermitian(2 + seed, seed=90 + 10 * k + seed))
            assert np.array_equal(dense_encode(h.hermitian, k),
                                  np.kron(encode_operator(h.hermitian), spectators))
            assert np.array_equal(generator(h, k), np.kron(generator(h), spectators))

    def test_symmetric_x_in_place_of_j_fails_the_dense_check(self, monkeypatch):
        # cos(tH') + J sin(tH') equals exp(tJH') only because J^2 = -I.  With the
        # symmetric bit flip X (X^2 = +I) in place of XZ, which J V and the generator
        # both take from one kernel, encoding.apply_xz, the spectral formula and the
        # dense exponential part ways, and the dense comparison says so.
        m = random_hermitian(3, seed=44)
        psi = state(random_state(3, seed=47))
        assert trajectory(Hamiltonian(m), psi, t_max=1.3).expm_error <= 1e-10
        monkeypatch.setattr(encoding, "XZ", np.abs(encoding.XZ))
        h = Hamiltonian(m)
        _, v = np.linalg.eigh(encode_operator(h.hermitian))
        assert np.array_equal(apply_xz(v, 1), np.kron(np.eye(3), np.abs(encoding_local_xz(1, 0))) @ v)
        assert not trajectory(h, psi, t_max=1.3).expm_error <= 1e-10

    def test_perturbed_eigenvectors_fail_the_orthogonality_gate(self, monkeypatch):
        h = Hamiltonian(random_hermitian(3, seed=45))
        psi = state(random_state(3, seed=46))
        assert trajectory(h, psi, t_max=2.0, steps=5).orthogonality_error <= linalg.ORTHOGONALITY_TOL
        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        res = trajectory(h, psi, t_max=2.0, steps=5)
        assert not res.orthogonality_error <= linalg.ORTHOGONALITY_TOL
        assert res.max_deviation <= linalg.AGREEMENT_TOL and res.expm_error <= linalg.AGREEMENT_TOL
        # The norm change at each grid point alone shows the fault, not only the check of U(t_max).
        drifts = np.abs(np.linalg.norm(res.encoded_states, axis=1) - np.linalg.norm(encode_state(psi)))
        assert not (drifts <= linalg.ORTHOGONALITY_TOL).any()

    def test_input_norm_off_one_is_not_counted_against_the_propagator(self):
        # PureState accepts a norm within 1e-10 of 1 and never renormalizes; a
        # norm of 1 + 1.9e-11 is kept by the propagator and passes the 1e-11 gate.
        h = Hamiltonian(random_hermitian(2, seed=47))
        psi = state([0.7071067812, 0.7071067812])
        assert np.linalg.norm(psi.amplitudes) - 1.0 > 1e-11
        assert within_tolerances(trajectory(h, psi, t_max=2.0, steps=5))
        assert within_tolerances(at(h, 1.0, psi))
