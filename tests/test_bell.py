"""Bell scenarios: two evaluation routes, see-saw maximization."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import helpers
from realsim import linalg
from realsim.applications import bell
from realsim.applications.bell import (
    BellScenario,
    bell_value,
    chsh_scenario,
    ghz3_state,
    mermin3_scenario,
    optimize_bell,
    phi_plus_state,
)
from realsim.encoding import PureState, apply_lift, encode_state

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)

TSIRELSON = 2.8284271247461903  # 2 sqrt 2


def random_pm_observable(dim, seed):
    rng = np.random.default_rng(seed)
    u = helpers.random_unitary(dim, seed=int(rng.integers(2**32)))
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


def rotated_mermin_scenario(parties, seed):
    """Mermin expression Re prod_j (X_j + i Y_j), each party's pair turned
    by its own random unitary; the quantum maximum stays 2^(parties-1)."""
    families = []
    for j in range(parties):
        u = helpers.random_unitary(2, seed=seed + j)
        families.append(tuple(u @ o @ u.conj().T for o in (X, Y)))
    coeffs = {s: float((-1) ** (sum(s) // 2))
              for s in itertools.product((0, 1), repeat=parties) if sum(s) % 2 == 0}
    return BellScenario(parties, (2,) * parties, tuple(families), coeffs,
                        float(2 ** (parties // 2)), float(2 ** (parties - 1)))


def qutrit_qubit_scenario():
    """A qutrit party with 3 settings next to a qubit party with 2.

    The XOR game sum c_xy <A_x B_y> with rows (1, 1), (1, -1), (1, 0) has
    quantum maximum max_theta 2 cos(theta/2) + 2 sin(theta/2) + 1 = 1 + 2 sqrt 2
    by Tsirelson's vector characterization; qubit strategies on a
    two-dimensional subspace of the qutrit reach it.  Classically it is 3.
    """
    a = tuple(random_pm_observable(3, seed) for seed in (20, 21, 22))
    coeffs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0, (2, 0): 1.0}
    return BellScenario(2, (3, 2), (a, (Z, X)), coeffs, 3.0, 1.0 + TSIRELSON)


SCENARIOS = {
    "chsh": chsh_scenario,
    "mermin3": mermin3_scenario,
    "mermin4_rotated": lambda: rotated_mermin_scenario(4, 40),
    "qutrit_qubit": qutrit_qubit_scenario,
}


class TestScenarioValidation:
    def test_eigenvalues_must_be_unimodular(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            BellScenario(2, (1, 1), ((2 * Z,), (Z,)), {(0, 0): 1.0}, 2.0)
        with pytest.raises(ValueError, match="eigenvalues"):
            BellScenario(2, (1, 1), ((Z + X,), (Z,)), {(0, 0): 1.0}, 2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor, admitted", [(0.99, True), (1.01, False)])
    def test_spectrum_gate_sits_at_the_observable_tolerance(self, factor, admitted, sign):
        # Z scaled by 1 +- factor SPECTRUM_TOL has eigenvalues that far from +-1.
        scaled = Z * (1.0 + sign * factor * linalg.SPECTRUM_TOL)

        def build():
            return BellScenario(2, (1, 1), ((scaled,), (Z,)), {(0, 0): 1.0}, 2.0)

        if admitted:
            build()
        else:
            with pytest.raises(ValueError, match=r"^observable eigenvalues must all be \+-1$"):
                build()

    def test_observables_must_be_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            BellScenario(2, (1, 1), ((bad,), (Z,)), {(0, 0): 1.0}, 2.0)

    def test_coefficient_keys_must_fit_settings(self):
        with pytest.raises(ValueError, match="coefficient key"):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 1): 1.0}, 2.0)

    @pytest.mark.parametrize("settings, key, named", [
        ((1.5, 1), (0, 0), r"^settings_per_party entry must be an integer, got 1\.5$"),
        (("1", 1), (0, 0), r"^settings_per_party entry must be an integer, got '1'$"),
        ((1, 1), (0.5, 0), r"^coefficient key \(0\.5, 0\) setting must be an integer, got 0\.5$"),
        ((1, 1), ("0", 0), r"^coefficient key \('0', 0\) setting must be an integer, got '0'$"),
    ])
    def test_setting_counts_and_indices_must_be_integers(self, settings, key, named):
        with pytest.raises(ValueError, match=named):
            BellScenario(2, settings, ((Z,), (Z,)), {key: 1.0}, 2.0)

    @pytest.mark.parametrize("coefficient, bounds, named", [
        ("1.5", (2.0,), r"^coefficient \(0, 0\) must be a real number, got '1\.5'$"),
        (1.0, ("2", "3"), r"^classical_bound must be a real number, got '2'$"),
        (1.0, (2.0, "3"), r"^quantum_target must be a real number, got '3'$"),
    ])
    def test_numbers_given_as_strings_are_rejected(self, coefficient, bounds, named):
        with pytest.raises(ValueError, match=named):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): coefficient}, *bounds)

    @pytest.mark.parametrize("coefficient, bounds, named", [
        (10 ** 400, (2.0,), r"^coefficient \(0, 0\) must be finite: an integer beyond the double range$"),
        (1.0, (10 ** 400,), r"^classical_bound must be finite: an integer beyond the double range$"),
        (1.0, (2.0, -10 ** 400), r"^quantum_target must be finite: an integer beyond the double range$"),
    ], ids=["coefficient", "classical_bound", "quantum_target"])
    def test_integers_beyond_the_double_range_are_rejected(self, coefficient, bounds, named):
        # float() of such an integer raises OverflowError, which is not an input error type.
        with pytest.raises(ValueError, match=named):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): coefficient}, *bounds)

    def test_numbers_are_stored_as_the_floats_checked(self):
        scenario = BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): np.int64(1)}, 2, np.float32(3.5))
        assert scenario.coefficients == {(0, 0): 1.0}
        assert (scenario.classical_bound, scenario.quantum_target) == (2.0, 3.5)
        assert all(type(x) is float for x in (scenario.coefficients[0, 0], scenario.classical_bound,
                                              scenario.quantum_target))
        assert BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): 1.0}, 2.0).quantum_target is None

    def test_observables_must_list_one_family_per_party(self):
        with pytest.raises(ValueError, match=r"^observables must list one family per party$"):
            BellScenario(2, (1, 1), ((Z,),), {(0, 0): 1.0}, 2.0)

    def test_party_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^parties must be an integer, got 2\.0$"):
            BellScenario(2.0, (1, 1), ((Z,), (Z,)), {(0, 0): 1.0}, 2.0)
        assert type(BellScenario(np.int64(2), (1, 1), ((Z,), (Z,)), {(0, 0): 1.0}, 2.0).parties) is int

    def test_two_keys_naming_the_same_settings_are_rejected(self):
        # Numpy integers are read as the ints they hold.
        scenario = BellScenario(2, (np.int64(1), 1), ((Z,), (Z,)), {(np.int64(0), np.int32(0)): 1.0}, 2.0)
        assert scenario.settings_per_party == (1, 1)
        assert scenario.coefficients == {(0, 0): 1.0}

        # Distinct dict keys that read as one setting tuple.
        class Setting:
            def __init__(self, index):
                self.index = index

            def __index__(self):
                return self.index

        coeffs = {(Setting(0), 0): 1.0, (Setting(0), 0): 2.0}
        with pytest.raises(ValueError, match=r"^coefficient key \(0, 0\) is given twice$"):
            BellScenario(2, (1, 1), ((Z,), (Z,)), coeffs, 2.0)

    def test_at_least_two_parties(self):
        with pytest.raises(ValueError):
            BellScenario(1, (1,), ((Z,),), {(0,): 1.0}, 1.0)

    def test_observable_family_sizes_checked(self):
        with pytest.raises(ValueError):
            BellScenario(2, (2, 1), ((Z,), (Z,)), {(0, 0): 1.0}, 2.0)

    def test_numbers_must_be_finite(self):
        with pytest.raises(ValueError, match="coefficient"):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): np.inf}, 2.0)
        with pytest.raises(ValueError, match="classical_bound"):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): 1.0}, np.nan)
        with pytest.raises(ValueError, match="quantum_target"):
            BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): 1.0}, 2.0, -np.inf)


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
        state = PureState(helpers.random_state(4, seed=seed + 100), (2, 2))
        vc = bell_value(scenario, state, "complex")
        vr = bell_value(scenario, state, "real_encoded")
        assert abs(vc - vr) <= 1e-10

    def test_complex_mode_matches_operator_oracle(self):
        scenario = random_two_party_scenario(7)
        vec = helpers.random_state(4, seed=8)
        bell_op = np.zeros((4, 4), dtype=complex)
        for (a, b), c in scenario.coefficients.items():
            bell_op += c * np.kron(scenario.observables[0][a], scenario.observables[1][b])
        want = float(np.vdot(vec, bell_op @ vec).real)
        got = bell_value(scenario, PureState(vec, (2, 2)), "complex")
        assert abs(got - want) <= 1e-12

    def test_zero_coefficient_gives_zero(self):
        scenario = BellScenario(2, (1, 1), ((Z,), (Z,)), {(0, 0): 0.0}, 2.0)
        state = PureState(helpers.random_state(4, seed=9), (2, 2))
        assert bell_value(scenario, state, "complex") == 0.0
        assert bell_value(scenario, state, "real_encoded") == 0.0

    def test_state_factors_must_match(self):
        state = PureState(helpers.random_state(4, seed=10))
        with pytest.raises(ValueError):
            bell_value(chsh_scenario(), state, "complex")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            bell_value(chsh_scenario(), phi_plus_state(), "approximate")


def random_partial_scenario(seed):
    """Two or three parties of dimension 2 or 3 with 1-3 settings each, and a random part of the coefficient table."""
    rng = np.random.default_rng(seed)
    parties = int(rng.integers(2, 4))
    dims = [int(d) for d in rng.integers(2, 4, size=parties)]
    settings = tuple(int(s) for s in rng.integers(1, 4, size=parties))
    obs = tuple(tuple(random_pm_observable(d, int(rng.integers(2**32))) for _ in range(s))
                for d, s in zip(dims, settings))
    keys = list(itertools.product(*(range(s) for s in settings)))
    chosen = [keys[i] for i in rng.permutation(len(keys))[:int(rng.integers(1, len(keys) + 1))]]
    coeffs = {key: float(rng.uniform(-1.0, 1.0)) for key in chosen}
    return BellScenario(parties, settings, obs, coeffs, classical_bound=1.0)


class TestStackedBellValue:
    """bell_value applies each party's family as one stack; the oracle applies one observable per term and party."""

    CASES = {**SCENARIOS, **{f"random{seed}": functools.partial(random_partial_scenario, seed) for seed in range(12)}}

    # At the smaller caps the leading parties of some cases take one setting at a time.
    @pytest.mark.parametrize("max_dim", [bell.DEFAULT_MAX_DIM, 16, 1])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_both_modes_match_the_term_by_term_oracle(self, name, max_dim, monkeypatch):
        monkeypatch.setattr(bell, "DEFAULT_MAX_DIM", max_dim)
        scenario = self.CASES[name]()
        dims = scenario.party_dims
        state = PureState(helpers.random_state(int(np.prod(dims)), seed=7), dims)
        encoded = encode_state(state, scenario.parties)
        args = (scenario.coefficients, scenario.observables, dims)
        want_complex = helpers.bell_value_by_terms(*args, state.amplitudes)
        want_encoded = helpers.bell_value_by_terms(*args, encoded, encoded=True)
        assert abs(bell_value(scenario, state, "complex") - want_complex) <= linalg.EXACT_TOL
        assert abs(bell_value(scenario, state, "real_encoded") - want_encoded) <= linalg.EXACT_TOL

    def test_random_cases_cover_both_dimensions_every_setting_count_and_partial_tables(self):
        scenarios = [random_partial_scenario(seed) for seed in range(12)]
        assert {d for sc in scenarios for d in sc.party_dims} == {2, 3}
        assert {s for sc in scenarios for s in sc.settings_per_party} == {1, 2, 3}
        assert {sc.parties for sc in scenarios} == {2, 3}
        assert any(len(sc.coefficients) < np.prod(sc.settings_per_party) for sc in scenarios)


class TestLiftedObservableLocality:
    def test_cross_party_lifts_commute(self):
        scenario = chsh_scenario()
        dims = scenario.party_dims
        for a in scenario.observables[0]:
            la = apply_lift(a, np.eye(16), dims, 0)
            for b in scenario.observables[1]:
                lb = apply_lift(b, np.eye(16), dims, 1)
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
        with pytest.raises(ValueError, match=r"^iterations must be an integer, got 2\.5$"):
            optimize_bell(chsh_scenario(), seeds=[1], iterations=2.5)
        assert optimize_bell(chsh_scenario(), seeds=[1], iterations=np.int64(2)) == \
            optimize_bell(chsh_scenario(), seeds=[1], iterations=2)

    def test_seeds_must_be_integers(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            optimize_bell(chsh_scenario(), seeds=[1.5, 2.9], iterations=3)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got '3'$"):
            optimize_bell(chsh_scenario(), seeds=["3"], iterations=3)
        result = optimize_bell(chsh_scenario(), seeds=[np.int64(1), np.int32(2)], iterations=3)
        assert result == optimize_bell(chsh_scenario(), seeds=[1, 2], iterations=3)
        assert [type(seed) for seed, _, _ in result.restarts] == [int, int]

    def test_restart_count_is_bounded_before_any_seed_is_read(self, monkeypatch):
        # Every restart keeps its state of D entries and its observables of sum_j S_j d_j^2 entries until the
        # best one is chosen.  Two parties of dimension 64 with one setting each keep 3 x 4096 entries a restart.
        z64 = np.diag(np.resize([1.0, -1.0], 64))
        scenario = BellScenario(2, (1, 1), ((z64,), (z64,)), {(0, 0): 1.0}, 1.0)
        most = linalg.DEFAULT_MAX_DIM ** 2 // (3 * 64 * 64)
        def unread(value, what):
            raise AssertionError(f"{what} read past the bound")

        monkeypatch.setattr(bell, "as_int", unread)
        for seeds in (range(most + 1), list(range(most + 1)), range(10 ** 400)):
            with pytest.raises(ValueError, match=rf"^restarts must be at most {most} for party dimensions "
                                                 r"\(64, 64\), settings \(1, 1\)$"):
                optimize_bell(scenario, seeds)
        # The bound itself is admitted: every seed is read and the zero iteration count stops it before the see-saw.
        read = []
        monkeypatch.setattr(bell, "as_int", lambda value, what: read.append(what) or value)
        monkeypatch.setattr(bell, "_seesaw", None)
        with pytest.raises(ValueError, match=r"^iterations must be positive, got 0$"):
            optimize_bell(scenario, range(most), iterations=0)
        assert read == ["seed"] * most + ["iterations"]

    @pytest.mark.parametrize("seeds, shown", [([-5], -5), ([3, -1, 2], -1), ([np.int64(-2)], -2)])
    def test_negative_seed_is_rejected_by_name(self, monkeypatch, seeds, shown):
        # Rejected before any generator is seeded: numpy's own message names neither the seed nor the layer.
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=rf"^seed must be non-negative, got {shown}$"):
            optimize_bell(chsh_scenario(), seeds=seeds, iterations=3)

    def test_the_winner_is_evaluated_without_admitting_it_again(self, monkeypatch):
        scenario = mermin3_scenario()

        def refuse(self, *args):
            raise AssertionError(f"{type(self).__name__} built after the see-saw")

        monkeypatch.setattr(BellScenario, "__init__", refuse)
        monkeypatch.setattr(PureState, "__init__", refuse)
        result = optimize_bell(scenario, seeds=[5, 6])
        assert abs(result.value_complex - result.value_real_encoded) <= 1e-10

    @staticmethod
    def diagonal_scenario(dims, settings):
        """diag(1, -1, 1, ...) for every setting of every party, and one coefficient, on the all-zero settings."""
        obs = tuple((np.diag(np.resize([1.0, -1.0], d)),) * s for d, s in zip(dims, settings))
        return BellScenario(len(dims), settings, obs, {(0,) * len(dims): 1.0}, 1.0)

    @staticmethod
    def refuse_before_the_see_saw(monkeypatch):
        """Make reading a seed, building the coefficient table or contracting a Bell operator fail the test."""
        def refuse(*args):
            raise AssertionError("the see-saw's inputs were read past a size cap")

        for name in ("as_int", "_coefficient_tensor", "_contract"):
            monkeypatch.setattr(bell, name, refuse)

    @pytest.mark.parametrize("dims, cap, admitted", [((2, 4), 8, True), ((3, 3), 8, False),
                                                     ((2, 2, 3), 12, True), ((2, 3, 2), 11, False)])
    def test_bell_operator_past_the_size_cap_is_rejected_before_any_seed_is_read(self, monkeypatch, dims, cap,
                                                                                  admitted):
        # D = prod(d_j) at most DEFAULT_MAX_DIM: the (D, D) Bell operator of one restart fits the cap squared.
        # One setting a party: the Bell operator is the largest array.
        monkeypatch.setattr(bell, "DEFAULT_MAX_DIM", cap)
        scenario = self.diagonal_scenario(dims, (1,) * len(dims))
        if admitted:
            result = optimize_bell(scenario, seeds=[1], iterations=2)
            assert result.value_complex == pytest.approx(1.0) and len(result.restarts) == 1
            return
        self.refuse_before_the_see_saw(monkeypatch)
        for seeds in ([1], range(10 ** 400)):  # checked before the restart bound too
            with pytest.raises(ValueError, match=rf"^see-saw arrays of {(cap + 1) ** 2} entries per restart for "
                                                 rf"party dimensions \({', '.join(map(str, dims))}\), settings "
                                                 rf"\(1(, 1)+\) exceed the size cap {cap ** 2}$"):
                optimize_bell(scenario, seeds)

    @pytest.mark.parametrize("settings, admitted", [((18, 18), True), ((13, 25), False),
                                                    ((6, 6, 9), True), ((5, 5, 13), False)])
    def test_coefficient_table_past_the_size_cap_is_rejected_before_any_seed_is_read(self, monkeypatch, settings,
                                                                                      admitted):
        # prod(S_j) at most DEFAULT_MAX_DIM^2 = 324 entries in the dense coefficient table.
        monkeypatch.setattr(bell, "DEFAULT_MAX_DIM", 18)
        scenario = self.diagonal_scenario((2,) * len(settings), settings)
        if admitted:
            assert optimize_bell(scenario, seeds=[1], iterations=2).value_complex == pytest.approx(1.0)
            return
        self.refuse_before_the_see_saw(monkeypatch)
        with pytest.raises(ValueError, match=rf"^see-saw arrays of 325 entries per restart for party dimensions "
                                             rf"\(2(, 2)+\), settings \({', '.join(map(str, settings))}\) exceed "
                                             r"the size cap 324$"):
            optimize_bell(scenario, [1])

    @pytest.mark.parametrize("dims, settings, admitted", [((2, 2, 2), (1, 64, 64), True), ((2, 32), (4, 1), True),
                                                          ((2, 32), (5, 1), False), ((2, 32), (64, 1), False)])
    def test_effective_operators_past_the_size_cap_are_rejected_before_any_seed_is_read(self, monkeypatch, dims,
                                                                                        settings, admitted):
        # At a patched cap of 64, 4,096 entries: (1, 64, 64) fills the coefficient table, and (4, 1) fills party
        # 0's four 32 x 32 effective operators.  Five or 64 settings there make 5,120 or 65,536 entries.
        monkeypatch.setattr(bell, "DEFAULT_MAX_DIM", 64)
        scenario = self.diagonal_scenario(dims, settings)
        if admitted:
            assert optimize_bell(scenario, seeds=[1, 2], iterations=2).value_complex == pytest.approx(1.0)
            return
        self.refuse_before_the_see_saw(monkeypatch)
        largest = settings[0] * 32 ** 2
        with pytest.raises(ValueError, match=rf"^see-saw arrays of {largest} entries per restart for party "
                                             rf"dimensions \(2, 32\), settings \({settings[0]}, 1\) exceed the "
                                             r"size cap 4096$"):
            optimize_bell(scenario, range(10 ** 400))

    def test_contraction_intermediates_stay_within_the_size_cap(self, monkeypatch):
        # Summed out in family order, party 0's one setting would leave a 64 x 64 x 4 intermediate, four times
        # the patched cap's 4,096 entries.  Ordered by d^2 / S, parties 1 and 2 go first and shrink it.
        monkeypatch.setattr(bell, "DEFAULT_MAX_DIM", 64)
        scenario = self.diagonal_scenario((2, 2, 2), (1, 64, 64))
        c, obs = bell._coefficient_tensor(scenario), bell._initial_observables(scenario, [1])
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ops = bell._contract(c[None], obs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        # The table cast to complex, and the intermediates, each at most 4,096 complex entries.
        assert peak <= 2 * 64 ** 2 * 16
        want = helpers.bell_operator(scenario.coefficients, [o[0] for o in obs], scenario.party_dims)
        assert np.abs(ops[0, 0] - want).max() <= 1e-13

    @pytest.mark.parametrize("parties", [13, 63, 64])
    def test_many_qubit_parties_are_rejected_by_the_exact_size(self, monkeypatch, parties):
        # An int64 product wraps to 0 at 64 qubits and goes negative at 63; the exact one names the cap.
        scenario = self.diagonal_scenario((2,) * parties, (1,) * parties)
        self.refuse_before_the_see_saw(monkeypatch)
        with pytest.raises(ValueError, match=rf"^see-saw arrays of {4 ** parties} entries per restart for party "
                                             rf"dimensions \(2(, 2){{{parties - 1}}}\), "
                                             rf"settings \(1(, 1){{{parties - 1}}}\) exceed the size cap {4096 ** 2}$"):
            optimize_bell(scenario, range(1, 3))

    # Pinned values.  At iterations = 2 seed 5 converges at iteration 1; every other restart stops at
    # the cap, where a last eigh brings its value up to date with its final observables.
    @pytest.mark.parametrize("name, iterations, trace, restarts", [
        ("chsh", 1, [2.716678714143295, 2.828427124746189],
         [(3, 2.828427124746189, 1), (4, 2.7939941294086355, 1), (5, 2.0, 1)]),
        ("chsh", 2, [2.0, 2.7939941294086355, 2.8284271247461903],
         [(3, 2.828427124746189, 2), (4, 2.8284271247461903, 2), (5, 2.0, 1)]),
        ("mermin3", 1, [2.503917226190561, 3.9952364977751493],
         [(3, 2.8284271247461894, 1), (4, 3.9952364977751493, 1), (5, 2.000000000000001, 1)]),
        ("mermin3", 2, [2.503917226190561, 3.9952364977751493, 3.999999999999999],
         [(3, 3.509661703055418, 2), (4, 3.999999999999999, 2), (5, 2.000000000000001, 1)]),
    ])
    def test_the_iteration_cap_ends_each_capped_trace(self, name, iterations, trace, restarts):
        result = optimize_bell(SCENARIOS[name](), seeds=[3, 4, 5], iterations=iterations)
        assert [i for i, _ in result.optimizer_trace] == list(range(iterations + 1))
        assert np.abs(np.array([v for _, v in result.optimizer_trace]) - trace).max() <= 1e-12
        assert [(seed, n) for seed, _, n in result.restarts] == [(seed, n) for seed, _, n in restarts]
        assert np.abs(np.array([v for _, v, _ in result.restarts]) - [v for _, v, _ in restarts]).max() <= 1e-12
        for (_, _, n), (value, _, _, run) in zip(restarts, bell._seesaw(SCENARIOS[name](), [3, 4, 5], iterations)):
            assert run[-1] == (n, value)


class TestBatchedSeesaw:
    """The stacked contractions against the term-by-term oracle in tests/helpers."""

    # The random cases sum their parties out in several orders of d^2 / S.
    @pytest.mark.parametrize("name", sorted(TestStackedBellValue.CASES))
    def test_contractions_match_the_term_by_term_oracle(self, name):
        scenario = TestStackedBellValue.CASES[name]()
        dims = scenario.party_dims
        c = bell._coefficient_tensor(scenario)
        obs = bell._initial_observables(scenario, range(6))
        ops = bell._contract(c[None], obs)[:, 0]
        states = np.linalg.eigh(ops)[1][:, :, -1]
        for r in range(6):
            family = [o[r] for o in obs]
            want = helpers.bell_operator(scenario.coefficients, family, dims)
            assert np.abs(ops[r] - want).max() <= 1e-13
        for j in range(scenario.parties):
            eff = bell._effective_operators(c, obs, states, dims, j)
            assert eff.shape == (6, scenario.settings_per_party[j], dims[j], dims[j])
            for r in range(6):
                family = [o[r] for o in obs]
                for t in range(scenario.settings_per_party[j]):
                    want = helpers.effective_operator(states[r], family, scenario.coefficients, dims, j, t)
                    assert np.abs(eff[r, t] - want).max() <= 1e-13

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_restart_draws_from_its_own_seed_alone(self, name):
        scenario = SCENARIOS[name]()
        together = bell._initial_observables(scenario, [5, 6, 7])
        alone = bell._initial_observables(scenario, [6])
        for j in range(scenario.parties):
            assert together[j].shape == (3, scenario.settings_per_party[j], *(scenario.party_dims[j],) * 2)
            assert np.array_equal(together[j][1], alone[j][0])

    @pytest.mark.parametrize("name", ["chsh", "mermin3", "mermin4_rotated"])
    def test_sweep_updates_parties_in_turn_like_the_reference(self, name):
        # Observables with both signs in their spectrum and generic states
        # keep every effective operator away from a zero eigenvalue, where
        # sign rounding would turn last-digit differences into different
        # observables.  That rules out the qutrit-qubit scenario: a state
        # of Schmidt rank 2 leaves every qutrit effective operator with a
        # zero eigenvalue.
        scenario = SCENARIOS[name]()
        dims, settings = scenario.party_dims, scenario.settings_per_party
        c = bell._coefficient_tensor(scenario)
        obs = [np.array([[random_pm_observable(d, 1000 * r + 10 * j + t) for t in range(s)] for r in range(3)])
               for j, (d, s) in enumerate(zip(dims, settings))]
        states = np.array([helpers.random_state(int(np.prod(dims)), seed=r) for r in range(3)])
        swept = bell._sweep(c, obs, states, dims)
        for r in range(3):
            want = helpers.seesaw_sweep(states[r], [o[r] for o in obs], scenario.coefficients, dims)
            for j in range(scenario.parties):
                assert np.abs(swept[j][r] - np.array(want[j])).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_restart_trace_is_non_decreasing(self, name):
        runs = bell._seesaw(SCENARIOS[name](), list(range(10)), 100)
        for value, _, _, trace in runs:
            values = [v for _, v in trace]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert trace[-1][1] == value

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_reaches_the_target_from_seeds_0_to_9(self, name):
        scenario = SCENARIOS[name]()
        result = optimize_bell(scenario, seeds=range(10))
        assert result.value_complex >= scenario.quantum_target - 1e-6
        assert result.value_real_encoded >= scenario.quantum_target - 1e-6
        assert result.value_complex <= scenario.quantum_target + 1e-9

    def test_restarts_report_every_seed(self):
        result = optimize_bell(mermin3_scenario(), seeds=[5, 6, 7, 8])
        assert [seed for seed, _, _ in result.restarts] == [5, 6, 7, 8]
        assert abs(max(v for _, v, _ in result.restarts) - result.value_complex) <= 1e-9
        assert all(n >= 1 for _, _, n in result.restarts)

    def test_chunked_restarts_give_the_same_best_value(self, monkeypatch):
        scenario = SCENARIOS["mermin4_rotated"]()
        whole = optimize_bell(scenario, seeds=range(7))
        chunks = []
        seesaw = bell._seesaw
        monkeypatch.setattr(bell, "_seesaw", lambda sc, seeds, it: chunks.append(len(seeds)) or seesaw(sc, seeds, it))
        monkeypatch.setattr(bell, "DEFAULT_MAX_DIM", 2 * 16)  # four restarts per chunk at D = 16
        chunked = optimize_bell(scenario, seeds=range(7))
        assert chunks == [4, 3]
        assert f"{chunked.value_complex:.9g}" == f"{whole.value_complex:.9g}"
        assert len(chunked.restarts) == 7
