"""Independent numpy oracle for benchmark job reports.

Every check recomputes the answer from the job's own inputs with plain
numpy and never imports realsim: evolution through an eigendecomposition
of H, POVM probabilities by direct traces, the encoding by index, the
logical ancilla from its closed form, and Bell values against the known
quantum maxima.  `check` returns None for a correct report and a one-line
reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np

AMPLITUDE_TOL = 1e-9      # evolve final states and self-test statistics
PROBABILITY_TOL = 1e-10   # POVM outcome probabilities
ENCODE_TOL = 1e-15        # the encoding copies numbers, so it is exact
BELL_REACH_TOL = 1e-6     # how far below the quantum maximum a value may stop
BELL_EXCESS_TOL = 1e-9    # how far above the quantum maximum a value may go

_S2 = np.sqrt(0.5)
_PROBES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_S2, _S2], dtype=complex),
    np.array([_S2, -_S2], dtype=complex),
    np.array([_S2, 1j * _S2]),
    np.array([_S2, -1j * _S2]),
)


class Mismatch(Exception):
    """A report disagrees with the oracle."""


def logical_basis(k: int) -> tuple:
    """Logical |0>, |1> on k ancilla qubits: even and odd Hamming weight h
    with amplitudes (-1)^(h/2) and (-1)^((h-1)/2), over sqrt(2^(k-1))."""
    zero = np.zeros(2 ** k)
    one = np.zeros(2 ** k)
    for y in range(2 ** k):
        h = bin(y).count("1")
        if h % 2 == 0:
            zero[y] = (-1.0) ** (h // 2)
        else:
            one[y] = (-1.0) ** ((h - 1) // 2)
    norm = np.sqrt(2.0 ** (k - 1))
    return zero / norm, one / norm


def encode(v: np.ndarray, k: int) -> np.ndarray:
    """Real image of a complex vector with k ancilla qubits appended."""
    if k == 1:
        out = np.empty(2 * v.size)
        out[0::2] = v.real
        out[1::2] = v.imag
        return out
    zero, one = logical_basis(k)
    return np.kron(v.real, zero) + np.kron(v.imag, one)


def _close(name: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape}, expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise Mismatch(f"{name}: non-finite entries")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        raise Mismatch(f"{name}: off by {err:.3e} (tolerance {tol:.0e})")


def _pairs(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _evolve(expect: dict, res: dict) -> None:
    h, psi, k = expect["h"], expect["psi"], expect["k"]
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * expect["sign"] * w * expect["t_max"])
    final = v @ (phase * (v.conj().T @ psi))
    _close("times", res["times"], np.linspace(0.0, expect["t_max"], expect["steps"]), 1e-15)
    _close("final_complex", _pairs(res["final_complex"]).view(float), final.view(float), AMPLITUDE_TOL)
    _close("final_encoded", res["final_encoded"], encode(final, k), AMPLITUDE_TOL)


def _measure(expect: dict, res: dict) -> None:
    psi = expect["psi"]
    rho = np.outer(psi, psi.conj())
    probs = np.array([np.trace(e @ rho).real for e in expect["elements"]])
    _close("probabilities", res["probabilities"], probs, PROBABILITY_TOL)
    _close("encoded_probabilities", res["encoded_probabilities"], probs, PROBABILITY_TOL)


def _encode(expect: dict, res: dict) -> None:
    psi = expect["psi"]
    if res["source_dims"] != [psi.size] or res["layout_k"] != 1:
        raise Mismatch(f"layout: dims {res['source_dims']} k {res['layout_k']}, expected [{psi.size}] k 1")
    _close("encoded_amplitudes", res["encoded_amplitudes"], encode(psi, 1), ENCODE_TOL)


def _bell(expect: dict, res: dict) -> None:
    target = expect["target"]
    _close("classical_bound", res["classical_bound"], expect["classical"], 0.0)
    _close("quantum_target", res["quantum_target"], target, 1e-12)
    for key in ("value_complex", "value_real_encoded"):
        value = float(res[key])
        if not target - BELL_REACH_TOL <= value <= target + BELL_EXCESS_TOL:
            raise Mismatch(f"{key}: {value!r} is not the quantum maximum {target!r}")
    trace = [float(v) for _, v in res["optimizer_trace"]]
    if not trace or max(trace) > target + BELL_EXCESS_TOL:
        raise Mismatch("optimizer_trace is empty or exceeds the quantum maximum")
    _close("optimizer_trace[-1]", trace[-1], res["value_complex"], BELL_EXCESS_TOL)


def _selftest(expect: dict, res: dict) -> None:
    t = expect["gate"]
    phi = np.array([_S2, 0.0, 0.0, _S2], dtype=complex)
    stages = [phi, np.kron(t, np.eye(2)) @ phi, np.kron(t, t.conj()) @ phi]
    povm = [np.outer(p, p.conj()) / 3.0 for p in _PROBES]
    stats = np.array([[[np.vdot(z, np.kron(a, b) @ z).real for b in povm] for a in povm] for z in stages])
    _close("statistics_logical", res["statistics_logical"], stats, AMPLITUDE_TOL)
    _close("statistics_simulated", res["statistics_simulated"], stats, AMPLITUDE_TOL)
    plus = np.array([_S2, _S2], dtype=complex)
    overlap = np.vdot(plus, t @ plus)
    _close("witness_state_a", _pairs(res["witness_state_a"]).view(float), plus.view(float), AMPLITUDE_TOL)
    _close("witness_state_b", _pairs(res["witness_state_b"]).view(float), (t @ plus).view(float), AMPLITUDE_TOL)
    _close("witness_real_part", res["witness_real_part"], overlap.real, AMPLITUDE_TOL)
    _close("witness_modulus", res["witness_modulus"], abs(overlap), AMPLITUDE_TOL)
    tails = [np.sqrt(np.sum(np.linalg.svd(encode(z, 2).reshape(4, 4), compute_uv=False)[1:] ** 2))
             for z in stages]
    _close("product_state_gap", res["product_state_gap"], max(tails), AMPLITUDE_TOL)


def _stabilizer(expect: dict, res: dict) -> None:
    if res["k"] != expect["k"] or res["fixed_subspace_dim"] != 2:
        raise Mismatch(f"k {res['k']} with codespace dimension {res['fixed_subspace_dim']}, expected k {expect['k']} and 2")


_CHECKS = {
    "evolve": _evolve,
    "measure": _measure,
    "encode": _encode,
    "bell": _bell,
    "selftest": _selftest,
    "stabilizer": _stabilizer,
}


def check(job, stdout: str, rc) -> str | None:
    """None when the report is right, else why it is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
        command = job.argv[0]
        if report.get("command") != command:
            raise Mismatch(f"report is for {report.get('command')!r}, expected {command!r}")
        failed = [a["name"] for a in report["assertions"] if not a["passed"]]
        if failed:
            raise Mismatch(f"assertions failed: {failed}")
        _CHECKS[command](job.expect, report["results"])
    except Mismatch as e:
        return str(e)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed report: {type(e).__name__}: {e}"
    return None
