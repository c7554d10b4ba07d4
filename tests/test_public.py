"""The public surface of the package: the names `realsim` exports."""

import types

import numpy as np
import pytest

import realsim

PUBLIC = {
    # encoding
    "XZ", "DensityOperator", "Povm", "PureState", "apply_kraus", "apply_lift", "conjugation_operator",
    "decode_state", "encode_antiunitary", "encode_density", "encode_kraus", "encode_operator", "encode_state",
    "encoded_povm_probabilities", "gauge_orbit", "local_xz", "logical_states", "povm_probabilities",
    "real_inner_product",
    # linalg
    "dagger", "is_hermitian", "is_psd", "is_unitary", "kron", "matexp",
    # multipartite
    "StabilizerReport", "stabilizer_check",
    # dynamics
    "EvolutionResult", "Hamiltonian", "evolve", "generator", "propagator", "trajectory",
    # applications
    "BellResult", "BellScenario", "bell_value", "chsh_scenario", "ghz3_state", "mermin3_scenario", "optimize_bell",
    "phi_plus_state", "SelfTestTranscript", "selftest_counterexample",
}


def test_exports_exactly_the_public_names():
    exported = {name for name in dir(realsim)
                if not name.startswith("_") and not isinstance(getattr(realsim, name), types.ModuleType)}
    assert len(PUBLIC) == 43
    assert exported == PUBLIC


@pytest.mark.parametrize("make", [
    lambda: realsim.evolve(realsim.Hamiltonian(np.eye(2)), 1.0, realsim.PureState(np.array([1.0, 0.0]))),
    lambda: realsim.optimize_bell(realsim.chsh_scenario(), seeds=[1], iterations=1),
    lambda: realsim.stabilizer_check(2),
    lambda: realsim.selftest_counterexample(),
], ids=["EvolutionResult", "BellResult", "StabilizerReport", "SelfTestTranscript"])
def test_record_fields_cannot_be_assigned(make):
    record = make()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("make", [
    lambda: realsim.PureState(np.array([1.0, 0.0])),
    lambda: realsim.DensityOperator(np.diag([1.0, 0.0])),
    lambda: realsim.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    lambda: realsim.Hamiltonian(np.eye(2)),
    realsim.chsh_scenario,
], ids=["PureState", "DensityOperator", "Povm", "Hamiltonian", "BellScenario"])
def test_containers_have_no_instance_dict(make):
    # Each container declares its attributes in __slots__: no instance __dict__, and no other attribute.
    container = make()
    assert not hasattr(container, "__dict__")
    with pytest.raises(AttributeError):
        container.extra = None
