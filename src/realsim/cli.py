"""Command-line front end: JSON jobs in, deterministic JSON reports out.

Exit codes: 0 when every assertion passes, 1 when an assertion fails,
2 on malformed input (bad JSON, schema violations, bad flags, sizes that cannot be allocated).

Each handler builds a file's container as soon as `formats` has read it, before it reads the next file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import sys

import numpy as np

from . import __version__, formats
from .applications.bell import BellScenario, chsh_scenario, mermin3_scenario, optimize_bell
from .applications.selftest import selftest_counterexample
from .dynamics import Hamiltonian, trajectory
from .encoding import (
    DensityOperator,
    Povm,
    PureState,
    decode_state,
    encode_density,
    encode_state,
    encoded_povm_probabilities,
    povm_probabilities,
)
from .linalg import AGREEMENT_TOL, DEFAULT_MAX_DIM, EXACT_TOL, INPUT_TOL, ORTHOGONALITY_TOL, REACH_TOL
from .multipartite import stabilizer_check


def _leq(name: str, measured, tolerance) -> dict:
    return {
        "name": name,
        "passed": bool(float(measured) <= float(tolerance)),
        "measured": float(measured),
        "tolerance": float(tolerance),
    }


def cmd_encode(args):
    vector, digest = formats.load_json(args.state, formats.parse_vector)
    state = PureState(*vector)
    enc = encode_state(state, args.k)
    decoded = decode_state(enc, args.k)
    results = {
        "source_dims": state.factor_dims,
        "layout_k": args.k,
        "encoded_amplitudes": enc,
    }
    assertions = [
        _leq("norm_preserved", abs(float(np.linalg.norm(enc)) - float(np.linalg.norm(state.amplitudes))),
             EXACT_TOL),
        _leq("round_trip", float(np.max(np.abs(decoded - state.amplitudes))), EXACT_TOL),
    ]
    return results, assertions, [digest]


def cmd_evolve(args):
    matrix, h_digest = formats.load_json(args.hamiltonian, formats.parse_matrix)
    h = Hamiltonian(matrix)
    vector, state_digest = formats.load_json(args.state, formats.parse_vector)
    state = PureState(*vector)
    sign = 1 if args.sign == "plus" else -1
    res = trajectory(h, state, args.t_max, args.steps, args.k, sign)
    results = {
        "times": res.times,
        "orthogonality_error": res.orthogonality_error,
        "max_deviation": res.max_deviation,
        "expm_error": res.expm_error,
        "final_complex": res.complex_states[-1],
        "final_encoded": res.encoded_states[-1],
    }
    assertions = [
        _leq("propagator_orthogonal", res.orthogonality_error, ORTHOGONALITY_TOL),
        _leq("matches_complex_evolution", res.max_deviation, AGREEMENT_TOL),
        _leq("matches_dense_expm", res.expm_error, AGREEMENT_TOL),
    ]
    return results, assertions, [h_digest, state_digest]


def cmd_measure(args):
    parsed, state_digest = formats.load_json(args.state, formats.parse_state)
    state = PureState(*parsed) if isinstance(parsed, tuple) else DensityOperator(parsed)
    elements, povm_digest = formats.load_json(args.povm, formats.parse_povm)
    povm = Povm(elements)
    probs = povm_probabilities(state, povm)
    # Probabilities sum to <psi|sum E|psi> or Re tr(sum E rho): the input's normalization and the POVM's
    # completeness may each differ from 1 by up to INPUT_TOL, and the sum is measured against both.
    completeness = povm.elements.sum(axis=0)
    if isinstance(state, DensityOperator):
        encoded_probs = encoded_povm_probabilities(encode_density(state), povm)
        total = float(np.trace(completeness @ state.matrix).real)
    else:
        encoded_probs = encoded_povm_probabilities(encode_state(state), povm)
        total = float(np.vdot(state.amplitudes, completeness @ state.amplitudes).real)
    results = {"probabilities": probs, "encoded_probabilities": encoded_probs}
    assertions = [
        _leq("encoded_matches_complex", float(np.max(np.abs(probs - encoded_probs))), EXACT_TOL),
        _leq("complex_normalized", abs(float(np.sum(probs)) - total), INPUT_TOL),
        _leq("encoded_normalized", abs(float(np.sum(encoded_probs)) - total), INPUT_TOL),
    ]
    return results, assertions, [state_digest, povm_digest]


_SCENARIOS = {"chsh": chsh_scenario, "mermin3": mermin3_scenario}


def cmd_bell(args):
    if args.seed is None:
        raise ValueError("--seed is required: bell restarts are stochastic and never seeded from the clock")
    if args.restarts < 1:
        raise ValueError(f"--restarts must be at least 1, got {args.restarts}")
    digests = []
    if args.scenario_file is not None:
        fields, digest = formats.load_json(args.scenario_file, formats.parse_scenario)
        scenario = BellScenario(*fields)
        digests.append(digest)
        # The digest hashes the file's content; the path and the overridden scenario name enter as null.
        args.scenario = args.scenario_file = None
    else:
        scenario = _SCENARIOS[args.scenario]()
    result = optimize_bell(scenario, range(args.seed, args.seed + args.restarts), args.iterations)
    target = scenario.quantum_target
    results = {"classical_bound": scenario.classical_bound}
    if target is not None:
        results["quantum_target"] = target
    results.update(result._asdict())  # value_complex, value_real_encoded, optimizer_trace, restarts
    assertions = [_leq("modes_agree", abs(result.value_complex - result.value_real_encoded), AGREEMENT_TOL)]
    if target is not None:
        assertions += [_leq("reaches_target_complex", target - result.value_complex, REACH_TOL),
                       _leq("reaches_target_real_encoded", target - result.value_real_encoded, REACH_TOL)]
    return results, assertions, digests


def cmd_selftest(args):
    digests = []
    gate = None
    if args.gate is not None:
        gate, digest = formats.load_json(args.gate, formats.parse_matrix)
        digests.append(digest)
    transcript = selftest_counterexample(gate)
    assertions = [_leq("statistics_match", transcript.max_stat_gap, EXACT_TOL)]
    return transcript._asdict(), assertions, digests


def cmd_stabilizer(args):
    report = stabilizer_check(args.k)
    assertions = [
        _leq("generator_action", report.generator_error, EXACT_TOL),
        _leq("codespace_dimension_is_2", abs(report.fixed_subspace_dim - 2), 0.0),
    ]
    return {"k": args.k, **report._asdict()}, assertions, []


_COMMANDS = {"encode": cmd_encode, "evolve": cmd_evolve, "measure": cmd_measure, "bell": cmd_bell,
             "selftest": cmd_selftest, "stabilizer": cmd_stabilizer}
# Every other parsed argument enters the digest as an option.  Input files enter by the hash of their bytes.
_NOT_OPTIONS = frozenset({"command", "verbose", "state", "hamiltonian", "povm", "gate"})


@functools.cache  # the parser never changes, and each parse_args call returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realsim",
        description="Simulate complex-amplitude quantum mechanics with real amplitudes only.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One spelling per flag: argparse would read any unambiguous prefix, such as --t-m, as the flag.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add("encode", help="encode a complex state file into real amplitudes")
    sp.add_argument("state", help="complex vector JSON file")
    sp.add_argument("--k", type=int, default=1, help="ancilla qubits, 1 to 12, one per party when > 1 (default 1)")

    sp = add("evolve", help="evolve a state under a Hamiltonian on both sides")
    sp.add_argument("hamiltonian", help="Hermitian matrix JSON file")
    sp.add_argument("state", help="complex vector JSON file")
    sp.add_argument("--t-max", type=float, default=1.0, help="end of the time grid (default 1.0)")
    sp.add_argument("--steps", type=int, default=64,
                    help=f"grid points, at most {DEFAULT_MAX_DIM ** 2} encoded amplitudes in all (default 64)")
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus",
                    help="sign convention: plus evolves with exp(+iHt), minus with exp(-iHt) (default plus)")
    sp.add_argument("--k", type=int, default=1, help="ancilla qubits, 1 to 12, one per party when > 1 (default 1)")

    sp = add("measure", help="POVM statistics, complex versus encoded")
    sp.add_argument("state", help="complex vector or density matrix JSON file")
    sp.add_argument("povm", help="POVM JSON file ({\"elements\": [matrix, ...]})")

    sp = add("bell", help="optimize a Bell expression by seeded see-saw restarts")
    sp.add_argument("--scenario", choices=tuple(_SCENARIOS), default="chsh",
                    help="built-in scenario (default chsh)")
    sp.add_argument("--scenario-file", default=None, help="scenario JSON file, overrides --scenario")
    sp.add_argument("--restarts", type=int, default=20,
                    help=f"optimizer restarts, whose states and observables hold at most {DEFAULT_MAX_DIM ** 2} entries"
                         " (default 20)")
    sp.add_argument("--seed", type=int, default=None, help="base seed, required (restart r uses seed + r)")
    sp.add_argument("--iterations", type=int, default=100, help="see-saw iterations per restart (default 100)")

    sp = add("selftest", help="statistics-preserving real simulation of a gate protocol")
    sp.add_argument("gate", nargs="?", default=None,
                    help="2x2 unitary JSON file (default diag(1, i))")

    sp = add("stabilizer", help="check the logical ancilla codespace on k qubits")
    sp.add_argument("--k", type=int, required=True, help="ancilla qubits, 2 to 6")

    for sp in sub.choices.values():
        sp.add_argument("--verbose", action="store_true", help="also print an assertion table to stderr")
    return parser


def _digest(command: str, options: dict, file_hashes: list) -> str:
    """sha256 of the command, its options and the sha256 of each input file's bytes, as formats read them."""
    payload = formats.dumps({"command": command, "options": dict(sorted(options.items())), "files": file_hashes})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _attach_float_values(argv: list) -> list:
    """Join --t-max and a value such as -1e-3 or -inf, which argparse reads as an option after a space.

    argparse reads only plain decimals such as -1 or -0.5 as negative numbers; --t-max=-1e-3 is its form for the rest.
    """
    out = []
    for token in argv:
        out.append(token)
        if len(out) > 1 and out[-2] == "--t-max" and token.startswith("-"):
            with contextlib.suppress(ValueError):  # float() rejects the token: argparse judges it as it stands
                float(token)
                out[-2:] = [f"{out[-2]}={token}"]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        results, assertions, file_hashes = _COMMANDS[args.command](args)
        digest = _digest(args.command, {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}, file_hashes)
        text = formats.dumps({
            "command": args.command,
            "inputs_digest": digest,
            "results": results,
            "assertions": assertions,
            "versions": __version__,
        })
    except (ValueError, OSError, MemoryError) as e:  # MemoryError: a size numpy cannot allocate, such as --steps 1e15
        if isinstance(e, MemoryError) and not str(e):  # raised bare, as by a list too long to build
            e = f"{args.command} ran out of memory"
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    if args.verbose:
        width = max(len(a["name"]) for a in assertions) if assertions else 4
        for a in assertions:
            status = "PASS" if a["passed"] else "FAIL"
            print(f"{a['name']:<{width}}  {status}  measured={a['measured']:.3e}  tolerance={a['tolerance']:.3e}",
                  file=sys.stderr)
    return 0 if all(a["passed"] for a in assertions) else 1


def entrypoint() -> None:
    raise SystemExit(main())
