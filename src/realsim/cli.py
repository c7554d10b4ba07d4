"""Command-line front end: JSON jobs in, deterministic JSON reports out.

Exit codes: 0 when every assertion passes, 1 when an assertion fails,
2 on malformed input (bad JSON, schema violations, bad flags, sizes that cannot be allocated).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import sys

import numpy as np

from . import __version__, formats
from .applications.bell import MODES, chsh_scenario, mermin3_scenario, optimize_bell
from .applications.selftest import selftest_counterexample
from .dynamics import Hamiltonian, trajectory
from .encoding import (
    DensityOperator,
    decode_state,
    encode_density,
    encode_state,
    encoded_povm_probabilities,
    povm_probabilities,
)
from .linalg import AGREEMENT_TOL, DEFAULT_MAX_DIM, EXACT_TOL, INPUT_TOL, ORTHOGONALITY_TOL, REACH_TOL, as_float
from .multipartite import stabilizer_check


def _leq(name: str, measured, tolerance) -> dict:
    return {
        "name": name,
        "passed": bool(float(measured) <= float(tolerance)),
        "measured": float(measured),
        "tolerance": float(tolerance),
    }


def cmd_encode(args):
    state, digest = formats.load_state(args.state)
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
    tol = as_float(args.tol, "--tol")
    matrix, h_digest = formats.load_matrix(args.hamiltonian)
    h = Hamiltonian(matrix)
    state, state_digest = formats.load_state(args.state)
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
        _leq("matches_complex_evolution", res.max_deviation, tol),
        _leq("matches_dense_expm", res.expm_error, tol),
    ]
    return results, assertions, [h_digest, state_digest]


def cmd_measure(args):
    state, state_digest = formats.load_state_or_density(args.state)
    povm, povm_digest = formats.load_povm(args.povm)
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
        scenario, digest = formats.load_scenario(args.scenario_file)
        digests.append(digest)
        # The digest hashes the file's content; the path and the overridden scenario name enter as null.
        args.scenario = args.scenario_file = None
    else:
        scenario = _SCENARIOS[args.scenario]()
    seeds = [args.seed + i for i in range(args.restarts)]
    result = optimize_bell(scenario, seeds, args.iterations)
    values = {mode: getattr(result, f"value_{mode}") for mode in MODES if args.mode in (mode, "both")}
    results = {"classical_bound": scenario.classical_bound}
    if scenario.quantum_target is not None:
        results["quantum_target"] = scenario.quantum_target
    results.update((f"value_{mode}", value) for mode, value in values.items())
    results["optimizer_trace"] = result.optimizer_trace
    results["restarts"] = result.restarts
    assertions = []
    if len(values) == 2:
        assertions.append(_leq("modes_agree", abs(values["complex"] - values["real_encoded"]), AGREEMENT_TOL))
    if scenario.quantum_target is not None:
        assertions += [_leq(f"reaches_target_{mode}", scenario.quantum_target - value, REACH_TOL)
                       for mode, value in values.items()]
    return results, assertions, digests


def cmd_selftest(args):
    digests = []
    gate = None
    if args.gate is not None:
        gate, digest = formats.load_matrix(args.gate)
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


_COMMANDS = {
    "encode": (cmd_encode, ("k",)),
    "evolve": (cmd_evolve, ("t_max", "steps", "sign", "k", "tol")),
    "measure": (cmd_measure, ()),
    "bell": (cmd_bell, ("scenario", "scenario_file", "mode", "restarts", "seed", "iterations")),
    "selftest": (cmd_selftest, ()),
    "stabilizer": (cmd_stabilizer, ("k",)),
}


@functools.cache  # the parser never changes, and each parse_args call returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realsim",
        description="Simulate complex-amplitude quantum mechanics with real amplitudes only.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("encode", help="encode a complex state file into real amplitudes")
    sp.add_argument("state", help="complex vector JSON file")
    sp.add_argument("--k", type=int, default=1, help="ancilla qubits, 1 to 12, one per party when > 1 (default 1)")

    sp = sub.add_parser("evolve", help="evolve a state under a Hamiltonian on both sides")
    sp.add_argument("hamiltonian", help="Hermitian matrix JSON file")
    sp.add_argument("state", help="complex vector JSON file")
    sp.add_argument("--t-max", type=float, default=1.0, help="end of the time grid (default 1.0)")
    sp.add_argument("--steps", type=int, default=64,
                    help=f"grid points, at most {DEFAULT_MAX_DIM ** 2} encoded amplitudes in all (default 64)")
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus",
                    help="sign convention: plus evolves with exp(+iHt), minus with exp(-iHt) (default plus)")
    sp.add_argument("--k", type=int, default=1, help="ancilla qubits, 1 to 12, one per party when > 1 (default 1)")
    sp.add_argument("--tol", type=float, default=AGREEMENT_TOL,
                    help="tolerance of the matches_complex_evolution and matches_dense_expm assertions"
                         f" (default {AGREEMENT_TOL:g}); propagator_orthogonal keeps {ORTHOGONALITY_TOL:g}")

    sp = sub.add_parser("measure", help="POVM statistics, complex versus encoded")
    sp.add_argument("state", help="complex vector or density matrix JSON file")
    sp.add_argument("povm", help="POVM JSON file ({\"elements\": [matrix, ...]})")

    sp = sub.add_parser("bell", help="optimize a Bell expression by seeded see-saw restarts")
    sp.add_argument("--scenario", choices=tuple(_SCENARIOS), default="chsh",
                    help="built-in scenario (default chsh)")
    sp.add_argument("--scenario-file", default=None, help="scenario JSON file, overrides --scenario")
    sp.add_argument("--mode", choices=("complex", "real_encoded", "both"), default="both",
                    help="which values the report carries and which assertions run; both sides are always"
                         " evaluated (default both)")
    sp.add_argument("--restarts", type=int, default=20, help="optimizer restarts (default 20)")
    sp.add_argument("--seed", type=int, default=None, help="base seed, required (restart r uses seed + r)")
    sp.add_argument("--iterations", type=int, default=100, help="see-saw iterations per restart (default 100)")

    sp = sub.add_parser("selftest", help="statistics-preserving real simulation of a gate protocol")
    sp.add_argument("gate", nargs="?", default=None,
                    help="2x2 unitary JSON file (default diag(1, i))")

    sp = sub.add_parser("stabilizer", help="check the logical ancilla codespace on k qubits")
    sp.add_argument("--k", type=int, required=True, help="ancilla qubits, 2 to 6")

    for sp in sub.choices.values():
        sp.add_argument("--verbose", action="store_true", help="also print an assertion table to stderr")
    return parser


def _digest(command: str, options: dict, file_hashes: list) -> str:
    """sha256 of the command, its options and the sha256 of each input file's bytes, as formats read them."""
    payload = formats.dumps({"command": command, "options": dict(sorted(options.items())), "files": file_hashes})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _attach_float_values(argv: list) -> list:
    """Join --t-max or --tol and a value such as -1e-3 or -inf, which argparse reads as an option after a space.

    argparse reads only plain decimals such as -1 or -0.5 as negative numbers; --t-max=-1e-3 is its form for the rest.
    """
    out = []
    for token in argv:
        out.append(token)
        if len(out) > 1 and out[-2] in ("--t-max", "--tol") and token.startswith("-"):
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
    handler, option_keys = _COMMANDS[args.command]
    try:
        results, assertions, file_hashes = handler(args)
        digest = _digest(args.command, {k: getattr(args, k) for k in option_keys}, file_hashes)
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
