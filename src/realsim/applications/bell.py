"""Bell-expression evaluation and optimization, complex and encoded alike.

A scenario fixes per-party two-outcome observables and a signed
coefficient table over measurement settings.  The value can be computed
in the native complex representation or entirely on the real encoded
side with the k-qubit logical ancilla, one qubit per party; the two
routes must agree because encoded expectations recover real parts and
correlator expectations are real.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..encoding import PureState, apply_lift, encode_amplitudes
from ..linalg import (DEFAULT_MAX_DIM, SEESAW_STOP_TOL, SPECTRUM_TOL, admit_family, apply_on_axis, as_float, as_int,
                      is_hermitian)

MODES = ("complex", "real_encoded")


class BellScenario:
    """Multiparty correlation experiment with +-1-valued observables, one (S_j, d_j, d_j) stack per party."""

    __slots__ = ("parties", "settings_per_party", "observables", "coefficients", "classical_bound", "quantum_target")

    def __init__(self, parties: int, settings_per_party: tuple[int, ...], observables: tuple[np.ndarray, ...],
                 coefficients: dict[tuple[int, ...], float], classical_bound: float,
                 quantum_target: float | None = None):
        parties = as_int(parties, "parties")
        if parties < 2:
            raise ValueError(f"need at least 2 parties, got {parties}")
        settings = tuple(as_int(s, "settings_per_party entry") for s in settings_per_party)
        if len(settings) != parties:
            raise ValueError(f"parties={parties} but settings_per_party has {len(settings)} entries")
        if any(s < 1 for s in settings):
            raise ValueError("settings_per_party must list a positive count per party")
        if len(observables) != parties:
            raise ValueError("observables must list one family per party")
        obs = []
        for j, family in enumerate(observables):
            if len(family) != settings[j]:
                raise ValueError(f"party {j} has {len(family)} observables, settings_per_party gives {settings[j]}")
            stack = admit_family(family, f"party {j} observable")
            if stack.shape[1] < 2:
                raise ValueError(f"party {j} has dimension {stack.shape[1]}; every party needs dimension >= 2")
            if not all(is_hermitian(o, SPECTRUM_TOL) for o in stack):
                raise ValueError("observable is not Hermitian")
            if not np.max(np.abs(np.abs(np.linalg.eigvalsh(stack)) - 1.0)) <= SPECTRUM_TOL:
                raise ValueError("observable eigenvalues must all be +-1")
            obs.append(stack)
        coeffs = {}
        for key, value in coefficients.items():
            key = tuple(as_int(s, f"coefficient key {key} setting") for s in key)
            if key in coeffs:
                raise ValueError(f"coefficient key {key} is given twice")
            if len(key) != parties or any(not 0 <= key[j] < settings[j] for j in range(parties)):
                raise ValueError(f"coefficient key {key} is outside the setting ranges")
            coeffs[key] = as_float(value, f"coefficient {key}")
        classical_bound = as_float(classical_bound, "classical_bound")
        if quantum_target is not None:
            quantum_target = as_float(quantum_target, "quantum_target")
        self.parties, self.settings_per_party, self.observables = parties, settings, tuple(obs)
        self.coefficients, self.classical_bound, self.quantum_target = coeffs, classical_bound, quantum_target

    @property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(stack.shape[1] for stack in self.observables)


class BellResult(NamedTuple):
    """Values and trace of the first restart of the largest value, and (seed, value, iterations) per restart."""

    value_complex: float
    value_real_encoded: float
    optimizer_trace: tuple[tuple[int, float], ...]
    restarts: tuple[tuple[int, float, int], ...]


def bell_value(scenario: BellScenario, state: PureState, mode: str) -> float:
    """Value of the Bell expression on a state, in the requested mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if tuple(state.factor_dims) != scenario.party_dims:
        raise ValueError(f"state factors {state.factor_dims} do not match party dimensions {scenario.party_dims}")
    return _value(scenario.coefficients, scenario.observables, state.amplitudes, scenario.party_dims, mode)


def _value(coefficients: dict, observables, amplitudes: np.ndarray, dims: tuple[int, ...], mode: str) -> float:
    """sum_s c_s <v| A_s |v> in `mode`, v the amplitudes or their encoding with k = len(dims) ancilla qubits.

    apply(family, w, j) applies party j's whole (S_j, d_j, d_j) stack to
    the states held along w's leading axis and returns shape
    (S_j, *w.shape).  Party by party, w grows to hold A_{s_0} ... A_{s_j} v
    for every prefix of settings, so the m parties take m calls whatever
    the coefficient table.  Each term is then one vdot on a contiguous
    row, summed in coefficient order.  So that w never holds more than
    DEFAULT_MAX_DIM**2 entries, the leading parties of a scenario too
    large for that take one setting at a time: w is built once per
    distinct head of settings they pick.
    """
    encoded = mode == "real_encoded"
    v = encode_amplitudes(amplitudes, dims, len(dims)) if encoded else amplitudes

    def apply(family, w, j):
        if encoded:
            return apply_lift(family, w, dims, j)
        return apply_on_axis(family, w.reshape(*dims, *w.shape[1:]), j).reshape(len(family), *w.shape)

    settings, keys = tuple(len(stack) for stack in observables), list(coefficients)
    split = len(dims)
    while split > 0 and math.prod(settings[split - 1:]) * v.size <= DEFAULT_MAX_DIM ** 2:
        split -= 1
    inner = np.empty(len(keys))
    for head in dict.fromkeys(key[:split] for key in keys):
        w = v
        for j, stack in enumerate(observables):
            w = np.moveaxis(apply(stack[head[j]:head[j] + 1] if j < split else stack, w, j), 0, -1)
        rows = np.ascontiguousarray(np.moveaxis(w, 0, -1))  # (1, ..., 1, S_split, ..., S_m-1, len(v))
        for i, key in enumerate(keys):
            if key[:split] == head:
                inner[i] = np.vdot(v, rows[(0,) * split + key[split:]]).real
    total = 0.0
    for coeff, x in zip(coefficients.values(), inner):
        total += coeff * float(x)
    return total


def _sign_round(m: np.ndarray) -> np.ndarray:
    """Nearest +-1-valued observables of a stack of Hermitian matrices:
    round each eigenvalue to its sign."""
    w, vec = np.linalg.eigh(m)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    return (vec * signs[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2)


def _coefficient_tensor(scenario: BellScenario) -> np.ndarray:
    c = np.zeros(scenario.settings_per_party)
    for settings, coeff in scenario.coefficients.items():
        c[settings] = coeff
    return c


def _contract(c: np.ndarray, families) -> np.ndarray:
    """sum_s c[b, s] kron_l families[l][r, s_l] for every restart r and batch entry b.

    c has shape (B, S_0, ..., S_m-1) and is shared by all restarts; family l
    has shape (R, S_l, d_l, d_l).  The parties are summed out one at a time,
    in ascending order of d_l^2 / S_l (a stable sort), which swaps S_l
    settings for d_l^2 operator entries.  So every intermediate holds at
    most max(prod(S_l), D^2) entries per restart and batch entry, and none
    holds one operator per setting combination.  Returns shape
    (R, B, D, D) with D = prod(d_l), factors in family order.
    """
    batch = c.shape[0]
    order = sorted(range(len(families)), key=lambda l: families[l].shape[2] ** 2 / families[l].shape[1])
    t = c.transpose(0, *(1 + l for l in order))[None]
    dims = []
    for l in order:
        r, s, d, _ = families[l].shape
        t = np.swapaxes(t.reshape(t.shape[0], batch, s, -1), -1, -2) @ families[l].reshape(r, 1, s, d * d)
        dims.append(d)
    t = t.reshape(t.shape[0], batch, *(d for d in dims for _ in range(2)))
    rows = [2 + 2 * order.index(l) for l in range(len(order))]
    t = t.transpose(0, 1, *rows, *(i + 1 for i in rows))
    size = math.prod(dims)
    return t.reshape(t.shape[0], batch, size, size)


def _effective_operators(c: np.ndarray, obs, states: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    """Hermitian effective operator of every setting of one party, every restart.

    For setting t it is the part M_t of the Bell operator with the state
    traced out on every other party, so that <B> = sum_t Tr(A_t M_t).  It
    does not read the party's own observables.  Shape (R, S_party, d, d).
    """
    k = _contract(np.moveaxis(c, party, 0), obs[:party] + obs[party + 1:])
    r, d = states.shape[0], dims[party]
    psi = states.reshape(r, math.prod(dims[:party]), d, -1)
    psi = np.swapaxes(psi, 2, 3).reshape(r, 1, -1, d)
    x = np.swapaxes(psi.conj(), -1, -2) @ k @ psi
    return np.swapaxes(x, -1, -2) / 2.0 + x.conj() / 2.0  # halving first is exact and cannot overflow


def _sweep(c: np.ndarray, obs, states: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Sign-round every party's observables in turn, each from the others' latest."""
    obs = list(obs)
    for j in range(len(dims)):
        obs[j] = _sign_round(_effective_operators(c, obs, states, dims, j))
    return obs


def _initial_observables(scenario: BellScenario, seeds) -> list[np.ndarray]:
    """Random +-1-valued observables of every restart, one (R, S_j, d_j, d_j) stack per party.

    Restart r draws all its observables from one generator seeded with
    seeds[r]: party by party, one standard-normal (2, S_j, d_j, d_j) draw
    holds the real and imaginary parts of S_j Gaussian matrices.  So a
    restart depends on its own seed alone, whatever restarts share its
    chunk.  The stacks are made Hermitian and then sign-rounded.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    obs = []
    for d, s in zip(scenario.party_dims, scenario.settings_per_party):
        g = np.array([rng.standard_normal((2, s, d, d)) for rng in rngs])
        z = g[:, 0] + 1j * g[:, 1]
        obs.append(_sign_round((z + np.swapaxes(z.conj(), -1, -2)) / 2.0))
    return obs


def _seesaw(scenario: BellScenario, seeds, iterations: int):
    """Run the see-saw for every seed in lock-step on stacked observables.

    Each restart stops on its own when its value changes by less than
    SEESAW_STOP_TOL and then drops out of the active set.  Returns one
    (value, state, observables, trace) per seed, in seed order.
    """
    dims = scenario.party_dims
    c = _coefficient_tensor(scenario)
    obs = _initial_observables(scenario, seeds)
    runs = [None] * len(seeds)
    traces = [[] for _ in seeds]
    active, values = np.arange(len(seeds)), np.full(len(seeds), np.nan)  # NaN: nothing converges at it = 0

    # Reads obs and active as they stand, before the active set shrinks.  The state is copied out
    # contiguous: read through the strided view, the winner's evaluation can round differently.
    def finished(i, w, v):
        return float(w[i, -1]), v[i, :, -1].copy(), tuple(o[i] for o in obs), traces[active[i]]

    # The last pass, it == iterations, only syncs the value with the last observable update.
    for it in range(iterations + 1):
        w, v = np.linalg.eigh(_contract(c[None], obs)[:, 0])  # of the Bell operator of every restart, (R, D, D)
        for row, value in zip(active, w[:, -1]):
            traces[row].append((it, float(value)))
        done = (it == iterations) | (np.abs(w[:, -1] - values) < SEESAW_STOP_TOL)
        for i in np.flatnonzero(done):
            runs[active[i]] = finished(i, w, v)
        if done.all():
            break
        going = ~done
        active, values, states = active[going], w[going, -1], v[going, :, -1]
        obs = _sweep(c, [o[going] for o in obs], states, dims)
    return runs


def optimize_bell(scenario: BellScenario, seeds, iterations: int = 100) -> BellResult:
    """Maximize the Bell value by see-saw alternation, one restart per seed of the sequence seeds, a range say.

    For fixed observables the best state is the top eigenvector of the Bell operator; for a fixed state the
    best observable per setting is the sign rounding of its effective operator.  All restarts advance together
    on stacked arrays, in chunks whose every array holds at most DEFAULT_MAX_DIM**2 entries, as do the states
    and observables kept until the winner is chosen.  Before any seed is read, the largest array of one restart
    is checked against that cap, and then the restart count.  It is the largest of the dense coefficient table
    of prod(S_j) entries, the Bell operator of D**2 entries with D = prod(d_j), and party j's S_j effective
    operators of (D / d_j)**2 entries each; _contract's intermediates hold no more.  Deterministic given the
    seed list.
    """
    dims, settings = scenario.party_dims, scenario.settings_per_party
    size = math.prod(dims)
    largest = max(math.prod(settings), size ** 2, *(s * (size // d) ** 2 for d, s in zip(dims, settings)))
    if largest > DEFAULT_MAX_DIM ** 2:
        raise ValueError(f"see-saw arrays of {largest} entries per restart for party dimensions {dims}, "
                         f"settings {settings} exceed the size cap {DEFAULT_MAX_DIM ** 2}")
    most = DEFAULT_MAX_DIM ** 2 // (size + sum(o.size for o in scenario.observables))
    if len(seeds[most:most + 1]):  # len(seeds) would overflow for a range past sys.maxsize
        raise ValueError(f"restarts must be at most {most} for party dimensions {dims}, settings {settings}")
    seeds = [as_int(s, "seed") for s in seeds]
    if not seeds:
        raise ValueError("optimize_bell needs at least one seed")
    if min(seeds) < 0:
        raise ValueError(f"seed must be non-negative, got {min(seeds)}")
    iterations = as_int(iterations, "iterations")
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    chunk = DEFAULT_MAX_DIM ** 2 // largest
    runs = []
    for start in range(0, len(seeds), chunk):
        runs.extend(_seesaw(scenario, seeds[start:start + chunk], iterations))
    best = int(np.argmax([run[0] for run in runs]))
    _, state, obs, trace = runs[best]
    # The winner is computed, not input: it is evaluated as it stands, never admitted again.
    return BellResult(
        _value(scenario.coefficients, obs, state, scenario.party_dims, "complex"),
        _value(scenario.coefficients, obs, state, scenario.party_dims, "real_encoded"),
        tuple((int(i), float(v)) for i, v in trace),
        tuple((seed, value, trace[-1][0]) for seed, (value, _, _, trace) in zip(seeds, runs)),
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
