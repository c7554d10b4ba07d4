"""Indistinguishable statistics with distinguishable states underneath."""

import numpy as np
import pytest

from realsim.applications.selftest import (
    probe_povm,
    selftest_counterexample,
)

S = np.sqrt(0.5)
HADAMARD = np.array([[S, S], [S, -S]], dtype=complex)


def phase_gate(theta):
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


class TestProbePovm:
    def test_resolves_the_identity(self):
        total = sum(probe_povm())
        assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_six_rank_one_elements(self):
        povm = probe_povm()
        assert len(povm) == 6
        for e in povm:
            w = np.linalg.eigvalsh(e)
            assert abs(w[0]) <= 1e-12 and abs(w[1] - 1 / 3) <= 1e-12


class TestDefaultGate:
    def test_statistics_are_indistinguishable(self):
        transcript = selftest_counterexample()
        assert transcript.max_stat_gap <= 1e-12

    def test_tables_cover_three_stages_of_36_outcomes(self):
        transcript = selftest_counterexample()
        assert transcript.statistics_logical.shape == (3, 6, 6)
        assert transcript.statistics_simulated.shape == (3, 6, 6)
        for stage in range(3):
            assert abs(transcript.statistics_logical[stage].sum() - 1.0) <= 1e-12
            assert abs(transcript.statistics_simulated[stage].sum() - 1.0) <= 1e-12

    def test_entangled_pair_statistics_values(self):
        # stage 0 holds the maximally entangled pair: aligned axis outcomes
        # carry probability 1/18, anti-aligned ones vanish
        stats = selftest_counterexample().statistics_logical[0]
        assert abs(stats[0, 0] - 1.0 / 18.0) <= 1e-14
        assert abs(stats[0, 1]) <= 1e-14

    def test_witness_exposes_the_lost_phase(self):
        transcript = selftest_counterexample()
        assert abs(transcript.witness_real_part - 0.5) <= 1e-12
        assert abs(transcript.witness_modulus - S) <= 1e-12

    def test_mid_stage_encoded_state_is_not_a_product(self):
        transcript = selftest_counterexample()
        assert transcript.product_state_gap >= 0.4

    def test_final_stage_returns_the_pair(self):
        transcript = selftest_counterexample()
        for stats in (transcript.statistics_logical, transcript.statistics_simulated):
            assert np.allclose(stats[2], stats[0], rtol=0.0, atol=1e-12)


class TestGateFamily:
    def test_identity_gate_stays_factorized(self):
        transcript = selftest_counterexample(np.eye(2, dtype=complex))
        assert transcript.max_stat_gap <= 1e-12
        assert transcript.product_state_gap <= 1e-10

    def test_real_gate_stays_factorized(self):
        transcript = selftest_counterexample(HADAMARD)
        assert transcript.max_stat_gap <= 1e-12
        assert transcript.product_state_gap <= 1e-10

    @pytest.mark.parametrize("theta", [np.pi / 2, 2 * np.pi / 3, np.pi / 3])
    def test_phase_gates_always_leave_a_witness_gap(self, theta):
        transcript = selftest_counterexample(phase_gate(theta))
        assert transcript.max_stat_gap <= 1e-12
        real_part, modulus = transcript.witness_real_part, transcript.witness_modulus
        # closed form: real part cos(theta/2)^2, modulus |cos(theta/2)|
        assert abs(real_part - np.cos(theta / 2) ** 2) <= 1e-12
        assert abs(modulus - abs(np.cos(theta / 2))) <= 1e-12
        assert modulus - real_part > 0.1


class TestValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            selftest_counterexample(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            selftest_counterexample(np.eye(3, dtype=complex))
