"""Bell-expression evaluation and optimization, complex and encoded alike.

A scenario fixes per-party two-outcome observables and a signed
coefficient table over measurement settings.  The value can be computed
in the native complex representation or entirely on the real encoded
side with the k-qubit logical ancilla, one qubit per party; the two
routes must agree because encoded expectations recover real parts and
correlator expectations are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoding import Layout, PureState, encode_state
from ..linalg import dagger, random_hermitian
from ..multipartite import PartitionedSystem, lift_local_operator

OBSERVABLE_TOL = 1e-8
MODES = ("complex", "real_encoded")


@dataclass(frozen=True)
class BellScenario:
    """Multiparty correlation experiment with +-1-valued observables."""

    parties: int
    settings_per_party: tuple[int, ...]
    observables: tuple[tuple[np.ndarray, ...], ...]
    coefficients: dict[tuple[int, ...], float]
    classical_bound: float
    quantum_target: float | None = None

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError(f"need at least 2 parties, got {self.parties}")
        settings = tuple(int(s) for s in self.settings_per_party)
        if len(settings) != self.parties or any(s < 1 for s in settings):
            raise ValueError("settings_per_party must list a positive count per party")
        if len(self.observables) != self.parties:
            raise ValueError("observables must list one family per party")
        obs = []
        for j, family in enumerate(self.observables):
            if len(family) != settings[j]:
                raise ValueError(f"party {j} has {len(family)} observables, expected {settings[j]}")
            fixed = []
            for o in family:
                o = np.array(o, dtype=complex)
                if o.ndim != 2 or o.shape[0] != o.shape[1]:
                    raise ValueError(f"observable must be square, got shape {o.shape}")
                if o.shape[0] != np.asarray(family[0]).shape[0]:
                    raise ValueError(f"party {j} observables disagree on dimension")
                if np.max(np.abs(o - dagger(o))) > OBSERVABLE_TOL:
                    raise ValueError("observable is not Hermitian")
                w = np.linalg.eigvalsh(o)
                if np.max(np.abs(np.abs(w) - 1.0)) > OBSERVABLE_TOL:
                    raise ValueError("observable eigenvalues must all be +-1")
                o.setflags(write=False)
                fixed.append(o)
            obs.append(tuple(fixed))
        coeffs = {}
        for key, value in self.coefficients.items():
            key = tuple(int(s) for s in key)
            if len(key) != self.parties or any(not 0 <= key[j] < settings[j] for j in range(self.parties)):
                raise ValueError(f"coefficient key {key} is outside the setting ranges")
            coeffs[key] = float(value)
        object.__setattr__(self, "settings_per_party", settings)
        object.__setattr__(self, "observables", tuple(obs))
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(family[0].shape[0] for family in self.observables)

    @property
    def system(self) -> PartitionedSystem:
        return PartitionedSystem(self.party_dims)


@dataclass(frozen=True)
class BellResult:
    value_complex: float
    value_real_encoded: float
    settings_used: dict
    optimizer_trace: tuple[tuple[int, float], ...]


def _apply_local(vec: np.ndarray, op: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    t = vec.reshape(dims)
    t = np.moveaxis(np.tensordot(op, t, axes=([1], [party])), 0, party)
    return t.reshape(-1)


def bell_value(scenario: BellScenario, state: PureState, mode: str) -> float:
    """Value of the Bell expression on a state, in the requested mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if tuple(state.factor_dims) != scenario.party_dims:
        raise ValueError(f"state factors {state.factor_dims} do not match party dimensions {scenario.party_dims}")
    if mode == "complex":
        return _value_complex(scenario, state.amplitudes)
    return _value_encoded(scenario, state)


def _value_complex(scenario: BellScenario, vec: np.ndarray) -> float:
    dims = scenario.party_dims
    total = 0.0
    for settings, coeff in scenario.coefficients.items():
        w = vec
        for j, s in enumerate(settings):
            w = _apply_local(w, scenario.observables[j][s], dims, j)
        total += coeff * float(np.vdot(vec, w).real)
    return total


def _value_encoded(scenario: BellScenario, state: PureState) -> float:
    system = scenario.system
    lifts = [[lift_local_operator(o, system, j).matrix for o in family]
             for j, family in enumerate(scenario.observables)]
    v = encode_state(state, Layout(scenario.parties)).amplitudes
    total = 0.0
    for settings, coeff in scenario.coefficients.items():
        w = v
        for j, s in enumerate(settings):
            w = lifts[j][s] @ w
        total += coeff * float(np.dot(v, w))
    return total


def _sign_round(m: np.ndarray) -> np.ndarray:
    """Nearest +-1-valued observable: round each eigenvalue to its sign."""
    w, vec = np.linalg.eigh(m)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    return (vec * signs) @ vec.conj().T


def _bell_operator(scenario: BellScenario, obs) -> np.ndarray:
    dim = int(np.prod(scenario.party_dims))
    out = np.zeros((dim, dim), dtype=complex)
    for settings, coeff in scenario.coefficients.items():
        term = obs[0][settings[0]]
        for j in range(1, scenario.parties):
            term = np.kron(term, obs[j][settings[j]])
        out += coeff * term
    return out


def _partial_outer(a: np.ndarray, b: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    """Trace |a><b| over every factor except one: M[i,i'] = sum a[.,i,.] b*[.,i',.]."""
    before = int(np.prod(dims[:party]))
    after = int(np.prod(dims[party + 1:]))
    d = dims[party]
    aa = a.reshape(before, d, after)
    bb = b.reshape(before, d, after)
    return np.einsum("aib,ajb->ij", aa, bb.conj())


def _effective_operator(state: np.ndarray, obs, scenario: BellScenario, party: int, setting: int) -> np.ndarray:
    dims = scenario.party_dims
    d = dims[party]
    m = np.zeros((d, d), dtype=complex)
    for settings, coeff in scenario.coefficients.items():
        if settings[party] != setting:
            continue
        chi = state
        for l, s in enumerate(settings):
            if l == party:
                continue
            chi = _apply_local(chi, obs[l][s], dims, l)
        m += coeff * _partial_outer(chi, state, dims, party)
    return (m + m.conj().T) / 2.0


def _seesaw(scenario: BellScenario, seed: int, iterations: int):
    dims = scenario.party_dims
    ss = np.random.SeedSequence(seed)
    children = iter(ss.spawn(sum(scenario.settings_per_party)))
    obs = [[_sign_round(random_hermitian(dims[j], next(children)))
            for _ in range(scenario.settings_per_party[j])]
           for j in range(scenario.parties)]
    trace = []
    value = None
    state = None
    for it in range(iterations):
        w, vec = np.linalg.eigh(_bell_operator(scenario, obs))
        state = vec[:, -1]
        new_value = float(w[-1])
        trace.append((it, new_value))
        if value is not None and abs(new_value - value) < 1e-13:
            value = new_value
            break
        value = new_value
        for j in range(scenario.parties):
            for t in range(scenario.settings_per_party[j]):
                obs[j][t] = _sign_round(_effective_operator(state, obs, scenario, j, t))
    else:
        # sync the value with the last observable update
        w, vec = np.linalg.eigh(_bell_operator(scenario, obs))
        state = vec[:, -1]
        value = float(w[-1])
        trace.append((iterations, value))
    return value, state, obs, trace


def optimize_bell(scenario: BellScenario, seeds, iterations: int = 100) -> BellResult:
    """Maximize the Bell value by see-saw alternation, one restart per seed.

    For fixed observables the best state is the top eigenvector of the
    Bell operator; for a fixed state the best observable per setting is
    the sign rounding of its effective operator.  Deterministic given the
    seed list.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("optimize_bell needs at least one seed")
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    best = None
    for seed in seeds:
        value, state, obs, trace = _seesaw(scenario, seed, int(iterations))
        if best is None or value > best[0]:
            best = (value, state, obs, trace, seed)
    _, state, obs, trace, seed = best
    tuned = BellScenario(
        scenario.parties,
        scenario.settings_per_party,
        tuple(tuple(row) for row in obs),
        scenario.coefficients,
        scenario.classical_bound,
        scenario.quantum_target,
    )
    pure = PureState(state, scenario.party_dims)
    return BellResult(
        bell_value(tuned, pure, "complex"),
        bell_value(tuned, pure, "real_encoded"),
        {"seed": seed, "state": state, "observables": tuple(tuple(row) for row in obs)},
        tuple((int(i), float(v)) for i, v in trace),
    )


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def chsh_scenario() -> BellScenario:
    """Two parties, two settings each; the defaults realize the quantum maximum."""
    b0 = (_Z + _X) / np.sqrt(2.0)
    b1 = (_Z - _X) / np.sqrt(2.0)
    coeffs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    return BellScenario(2, (2, 2), ((_Z, _X), (b0, b1)), coeffs, 2.0, 2.0 * np.sqrt(2.0))


def mermin3_scenario() -> BellScenario:
    """Three parties measuring X or Y; algebraic maximum 4 on a GHZ state."""
    coeffs = {(0, 0, 1): 1.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0, (1, 1, 1): -1.0}
    pair = (_X, _Y)
    return BellScenario(3, (2, 2, 2), (pair, pair, pair), coeffs, 2.0, 4.0)


def phi_plus_state() -> PureState:
    """Maximally entangled qubit pair (|00> + |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = np.sqrt(0.5)
    return PureState(v, (2, 2))


def ghz3_state() -> PureState:
    """Three-qubit GHZ state with a quarter-turn phase, (|000> + i|111>) / sqrt(2)."""
    v = np.zeros(8, dtype=complex)
    v[0] = np.sqrt(0.5)
    v[7] = 1j * np.sqrt(0.5)
    return PureState(v, (2, 2, 2))
