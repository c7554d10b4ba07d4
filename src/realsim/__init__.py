"""Simulate complex-amplitude quantum mechanics with real amplitudes only.

One extra qubit per system (or per party) absorbs the imaginary parts:
states double in length, operators double in each dimension, and the
whole calculus of unitaries, POVMs, channels and Schroedinger evolution
goes through with purely real matrices.
"""

__version__ = "0.1.0"

from .dynamics import EvolutionResult, Hamiltonian, trajectory
from .encoding import (
    XZ,
    DensityOperator,
    Povm,
    PureState,
    apply_kraus,
    apply_lift,
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
from .linalg import (
    dagger,
    is_hermitian,
    is_psd,
    is_unitary,
    matexp,
)
from .multipartite import StabilizerReport, stabilizer_check
from .applications.bell import (
    BellResult,
    BellScenario,
    bell_value,
    chsh_scenario,
    ghz3_state,
    mermin3_scenario,
    optimize_bell,
    phi_plus_state,
)
from .applications.selftest import SelfTestTranscript, selftest_counterexample
