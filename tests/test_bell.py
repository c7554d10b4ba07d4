"""Bell scenarios: two evaluation routes, see-saw maximization."""

import numpy as np
import pytest

from realsim import linalg
from realsim.applications.bell import (
    BellScenario,
    bell_value,
    chsh_scenario,
    ghz3_state,
    mermin3_scenario,
    optimize_bell,
    phi_plus_state,
)
from realsim.encoding import PureState
from realsim.multipartite import lift_local_operator

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

TSIRELSON = 2.8284271247461903  # 2 sqrt 2


def random_pm_observable(dim, seed):
    rng = np.random.default_rng(seed)
    u = linalg.random_unitary(dim, seed=int(rng.integers(2**32)))
    signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    return u @ np.diag(signs).astype(complex) @ u.conj().T


def random_two_party_scenario(seed):
    rng = np.random.default_rng(seed)
    obs = tuple(
        tuple(random_pm_observable(2, int(rng.integers(2**32))) for _ in range(2))
        for _ in range(2)
    )
    coeffs = {
        (a, b): float(rng.uniform(-1.0, 1.0)) for a in range(2) for b in range(2)
    }
    return BellScenario(2, (2, 2), obs, coeffs, classical_bound=2.0)


class TestScenarioValidation:
    def test_eigenvalues_must_be_unimodular(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            BellScenario(2, (1, 1), ((2 * Z,), (Z,)), {(0, 0): 1.0}, 2.0)
        with pytest.raises(ValueError, match="eigenvalues"):
            BellScenario(2, (1, 1), ((Z + X,), (Z,)), {(0, 0): 1.0}, 2.0)

    def test_observables_must_be_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            BellScenario(2, (1, 1), ((bad,), (Z,)), {(0, 0): 1.0}, 2.0)

    def test_coefficient_keys_must_fit_settings(self):
        with pytest.raises(ValueError, match="coefficient key"):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 1): 1.0}, 2.0)

    def test_at_least_two_parties(self):
        with pytest.raises(ValueError):
            BellScenario(1, (1,), ((Z,),), {(0,): 1.0}, 1.0)

    def test_observable_family_sizes_checked(self):
        with pytest.raises(ValueError):
            BellScenario(2, (2, 1), ((Z,), (Z,)), {(0, 0): 1.0}, 2.0)


class TestBellValue:
    def test_aligned_measurement_on_product_state(self):
        # <ZZ> on |00> is 1, so a lone coefficient of 2 gives exactly 2.
        scenario = BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): 2.0}, 2.0)
        state = PureState(np.array([1.0, 0, 0, 0], dtype=complex), (2, 2))
        assert bell_value(scenario, state, "complex") == pytest.approx(2.0, abs=1e-14)
        assert bell_value(scenario, state, "real_encoded") == pytest.approx(2.0, abs=1e-14)

    def test_chsh_quantum_maximum(self):
        scenario = chsh_scenario()
        state = phi_plus_state()
        assert abs(bell_value(scenario, state, "complex") - TSIRELSON) <= 1e-12
        assert abs(bell_value(scenario, state, "real_encoded") - TSIRELSON) <= 1e-12

    def test_mermin_algebraic_maximum(self):
        scenario = mermin3_scenario()
        state = ghz3_state()
        assert abs(bell_value(scenario, state, "complex") - 4.0) <= 1e-12
        assert abs(bell_value(scenario, state, "real_encoded") - 4.0) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_modes_agree_on_random_scenarios(self, seed):
        scenario = random_two_party_scenario(seed)
        state = PureState(linalg.random_state(4, seed=seed + 100), (2, 2))
        vc = bell_value(scenario, state, "complex")
        vr = bell_value(scenario, state, "real_encoded")
        assert abs(vc - vr) <= 1e-10

    def test_complex_mode_matches_operator_oracle(self):
        scenario = random_two_party_scenario(7)
        vec = linalg.random_state(4, seed=8)
        bell_op = np.zeros((4, 4), dtype=complex)
        for (a, b), c in scenario.coefficients.items():
            bell_op += c * np.kron(scenario.observables[0][a], scenario.observables[1][b])
        want = float(np.vdot(vec, bell_op @ vec).real)
        got = bell_value(scenario, PureState(vec, (2, 2)), "complex")
        assert abs(got - want) <= 1e-12

    def test_zero_coefficient_gives_zero(self):
        scenario = BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): 0.0}, 2.0)
        state = PureState(linalg.random_state(4, seed=9), (2, 2))
        assert bell_value(scenario, state, "complex") == 0.0
        assert bell_value(scenario, state, "real_encoded") == 0.0

    def test_state_factors_must_match(self):
        state = PureState(linalg.random_state(4, seed=10))
        with pytest.raises(ValueError):
            bell_value(chsh_scenario(), state, "complex")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            bell_value(chsh_scenario(), phi_plus_state(), "approximate")


class TestLiftedObservableLocality:
    def test_cross_party_lifts_commute(self):
        scenario = chsh_scenario()
        system = scenario.system
        for a in scenario.observables[0]:
            la = lift_local_operator(a, system, 0).matrix
            for b in scenario.observables[1]:
                lb = lift_local_operator(b, system, 1).matrix
                assert np.abs(la @ lb - lb @ la).max() <= 1e-12


class TestOptimizeBell:
    def test_chsh_reaches_the_quantum_maximum(self):
        result = optimize_bell(chsh_scenario(), seeds=range(5))
        assert result.value_complex >= TSIRELSON - 1e-6
        assert result.value_real_encoded >= TSIRELSON - 1e-6
        assert abs(result.value_complex - result.value_real_encoded) <= 1e-10

    def test_mermin_reaches_four(self):
        result = optimize_bell(mermin3_scenario(), seeds=range(5))
        assert result.value_complex >= 4.0 - 1e-6
        assert result.value_real_encoded >= 4.0 - 1e-6

    def test_deterministic_given_seeds(self):
        a = optimize_bell(chsh_scenario(), seeds=[3, 4])
        b = optimize_bell(chsh_scenario(), seeds=[3, 4])
        assert a.value_complex == b.value_complex
        assert a.optimizer_trace == b.optimizer_trace

    def test_trace_converges_to_reported_value(self):
        result = optimize_bell(chsh_scenario(), seeds=[1])
        assert result.optimizer_trace
        assert abs(result.optimizer_trace[-1][1] - result.value_complex) <= 1e-9

    def test_seed_list_required(self):
        with pytest.raises(ValueError):
            optimize_bell(chsh_scenario(), seeds=[])

    def test_iteration_count_validated(self):
        with pytest.raises(ValueError):
            optimize_bell(chsh_scenario(), seeds=[1], iterations=0)
