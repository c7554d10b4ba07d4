"""The public surface of the package: the names `realsim` exports."""

import re
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
    "dagger", "is_hermitian", "is_psd", "is_unitary", "matexp",
    # multipartite
    "StabilizerReport", "stabilizer_check",
    # dynamics
    "EvolutionResult", "Hamiltonian", "trajectory",
    # applications
    "BellResult", "BellScenario", "bell_value", "chsh_scenario", "ghz3_state", "mermin3_scenario", "optimize_bell",
    "phi_plus_state", "SelfTestTranscript", "selftest_counterexample",
}


def test_exports_exactly_the_public_names():
    exported = {name for name in dir(realsim)
                if not name.startswith("_") and not isinstance(getattr(realsim, name), types.ModuleType)}
    assert len(PUBLIC) == 39
    assert exported == PUBLIC


@pytest.mark.parametrize("make", [
    lambda: realsim.trajectory(realsim.Hamiltonian(np.eye(2)), realsim.PureState(np.array([1.0, 0.0])), 1.0, 2),
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


def test_hamiltonian_exposes_only_its_matrices_and_dimension():
    assert {name for name in dir(realsim.Hamiltonian) if not name.startswith("_")} == {"matrix", "hermitian", "dim"}


def _chsh_with(**changes):
    chsh = realsim.chsh_scenario()
    fields = dict(parties=chsh.parties, settings_per_party=chsh.settings_per_party, observables=chsh.observables,
                  coefficients=chsh.coefficients, classical_bound=chsh.classical_bound)
    return realsim.BellScenario(**{**fields, **changes})


def _trajectory(**changes):
    args = dict(h=realsim.Hamiltonian(np.eye(2)), psi=realsim.PureState(np.array([1.0, 0.0])), t_max=1.0, steps=3)
    return realsim.trajectory(**{**args, **changes})


# Every scalar numeric argument of an exported function or constructor:
# (the name its errors give it, whether it is read as an int, a call that passes it the value).
SCALAR_ARGUMENTS = {
    "apply_lift.party": ("party index", True, lambda v: realsim.apply_lift(np.eye(2), np.zeros(16), (2, 2), v)),
    "conjugation_operator.dim": ("dimension", True, realsim.conjugation_operator),
    "decode_state.k": ("ancilla count k", True, lambda v: realsim.decode_state(np.zeros(4), v)),
    "encode_state.k": ("ancilla count k", True,
                       lambda v: realsim.encode_state(realsim.PureState(np.array([1.0, 0.0])), v)),
    "encoded_povm_probabilities.k": ("ancilla count k", True, lambda v: realsim.encoded_povm_probabilities(
        np.array([1.0, 0.0, 0.0, 0.0]), realsim.Povm([np.eye(2)]), v)),
    "local_xz.k": ("ancilla count k", True, lambda v: realsim.local_xz(v, 0)),
    "local_xz.qubit": ("qubit index", True, lambda v: realsim.local_xz(2, v)),
    "logical_states.k": ("ancilla count k", True, realsim.logical_states),
    "is_hermitian.tol": ("tol", False, lambda v: realsim.is_hermitian(np.eye(2), v)),
    "stabilizer_check.k": ("ancilla count k", True, realsim.stabilizer_check),
    "trajectory.t_max": ("t_max", False, lambda v: _trajectory(t_max=v)),
    "trajectory.steps": ("steps", True, lambda v: _trajectory(steps=v)),
    "trajectory.k": ("ancilla count k", True, lambda v: _trajectory(k=v)),
    "trajectory.sign": ("sign", True, lambda v: _trajectory(sign=v)),
    "optimize_bell.iterations": ("iterations", True,
                                 lambda v: realsim.optimize_bell(realsim.chsh_scenario(), [1], v)),
    "BellScenario.parties": ("parties", True, lambda v: _chsh_with(parties=v)),
    "BellScenario.classical_bound": ("classical_bound", False, lambda v: _chsh_with(classical_bound=v)),
    "BellScenario.quantum_target": ("quantum_target", False, lambda v: _chsh_with(quantum_target=v)),
}

BAD_VALUES = {"string": "3", "non_integer": 2.5, "none": None, "huge": 10 ** 400, "bool": True, "nan": float("nan"),
              "inf": float("inf")}

# Values that are admissible where they are passed: quantum_target is optional, and a see-saw stops
# when its value settles, so an iteration cap beyond any float is still a cap.
ADMISSIBLE = {("BellScenario.quantum_target", "none"), ("optimize_bell.iterations", "huge")}


@pytest.mark.parametrize("argument, value", [
    (argument, value) for argument, (_, reads_int, _) in SCALAR_ARGUMENTS.items() for value in BAD_VALUES
    if reads_int or value != "non_integer"  # a non-integer float is a valid real number
])
def test_malformed_scalar_argument_raises_a_value_error_naming_it(argument, value):
    name, _, call = SCALAR_ARGUMENTS[argument]
    if (argument, value) in ADMISSIBLE:
        call(BAD_VALUES[value])
        return
    with pytest.raises(ValueError) as raised:
        call(BAD_VALUES[value])
    assert type(raised.value) is ValueError
    assert re.match(rf"{re.escape(name)}\b", str(raised.value)), str(raised.value)[:200]


# The integer entries of every sequence argument: (the name its errors give it, a call that passes the entry).
SEQUENCE_ENTRIES = {
    "optimize_bell.seeds": ("seed", lambda v: realsim.optimize_bell(realsim.chsh_scenario(), [1, v], 1)),
    "PureState.factor_dims": ("factor_dims", lambda v: realsim.PureState(np.array([1.0, 0.0]), (v,))),
    "BellScenario.settings_per_party": ("settings_per_party", lambda v: _chsh_with(settings_per_party=(2, v))),
    "BellScenario.coefficients": ("coefficient key", lambda v: _chsh_with(coefficients={(0, v): 1.0})),
    "apply_lift.dims": ("dims", lambda v: realsim.apply_lift(np.eye(2), np.zeros(16), (2, v), 0)),
}

BAD_ENTRIES = {"string": "1", "non_integer": 1.5, "bool": True, "huge": 10 ** 400}


@pytest.mark.parametrize("argument, value", [(a, v) for a in SEQUENCE_ENTRIES for v in BAD_ENTRIES])
def test_malformed_sequence_entry_raises_a_value_error_naming_it(argument, value):
    name, call = SEQUENCE_ENTRIES[argument]
    if (argument, value) == ("optimize_bell.seeds", "huge"):  # numpy seeds a generator from any non-negative int
        call(BAD_ENTRIES[value])
        return
    with pytest.raises(ValueError) as raised:
        call(BAD_ENTRIES[value])
    assert type(raised.value) is ValueError
    # An out-of-range entry may be named after a check that reads the whole sequence, not first.
    assert re.search(rf"\b{re.escape(name)}\b", str(raised.value)), str(raised.value)[:200]
