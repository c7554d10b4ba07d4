"""Seeded job-file generator for the realsim benchmark.

A workload is a cycle of distinct jobs.  Each job is one `realsim`
command line plus the JSON input files it names; the benchmark repeats
the cycle in a closed loop.  Everything is drawn from the workload seed,
so one seed always gives byte-identical files and command lines.  The
program under test only ever sees the files.

Each job also carries `expect`: the inputs as numbers, which the oracle
uses to recompute the answer without importing realsim.  The files hold
every float in its shortest round-trip form, so a reader of a file sees
exactly these numbers.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# (job kind, count per cycle).  The counts keep each run's median and
# 90th-percentile job inside one kind instead of on a boundary between
# two kinds, so the percentiles do not jump between runs, and inside a kind
# whose jobs all cost the same: a bell job's cost depends on how fast its
# seeded restarts converge.
CYCLES = {
    "evolve_seesaw": (("evolve_n32", 14), ("evolve_n64", 8), ("evolve_k2_8x8", 1),
                      ("bell_chsh", 8), ("bell_mermin3", 8), ("selftest_gate", 8)),
    "wide_io": (("bell_mermin5", 3), ("bell_mermin4", 4), ("stabilizer_k6", 30), ("encode_n1024", 56),
                ("measure_n128", 10)),
}

# Kind of the untimed first job each fresh process runs before it reports ready.
WARMUP = {"evolve_seesaw": "evolve_n32", "wide_io": "bell_mermin4"}

WORKLOADS = tuple(CYCLES)

EVOLVE_STEPS = 32
EVOLVE_T_MAX = 1.0
POVM_ELEMENTS = 4


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    expect: dict


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).reshape(-1)]


def _vector(v: np.ndarray, dims) -> dict:
    return {"dims": [int(d) for d in dims], "amplitudes": _complex_pairs(v)}


def _matrix(m: np.ndarray) -> dict:
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _complex_pairs(m)}


def _write(outdir: str, name: str, obj) -> str:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")))
    return name


def _state(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _mermin(n: int, rotations) -> dict:
    """Mermin expression Re prod_j (X_j + i Y_j) with each party's pair
    turned by its own unitary; the quantum maximum stays 2^(n-1)."""
    families = []
    for u in rotations:
        families.append([_matrix(u @ o @ u.conj().T) for o in (_X, _Y)])
    coefficients = []
    for settings in itertools.product((0, 1), repeat=n):
        ys = sum(settings)
        if ys % 2 == 0:
            coefficients.append({"settings": list(settings), "value": float((-1) ** (ys // 2))})
    return {
        "parties": n,
        "settings_per_party": [2] * n,
        "observables": families,
        "coefficients": coefficients,
        "classical_bound": float(2 ** (n // 2)),
        "quantum_target": float(2 ** (n - 1)),
    }


def _make(kind: str, rng, outdir: str, tag: str) -> tuple:
    """Write one job's files; return (argv, expect)."""
    if kind.startswith("evolve_"):
        dims, k = {"evolve_n32": ((32,), 1), "evolve_n64": ((64,), 1), "evolve_k2_8x8": ((8, 8), 2)}[kind]
        n = int(np.prod(dims))
        h = _hermitian(rng, n)
        psi = _state(rng, n)
        sign = ("plus", "minus")[int(rng.integers(2))]
        argv = ["evolve", _write(outdir, f"{tag}-h.json", _matrix(h)),
                _write(outdir, f"{tag}-psi.json", _vector(psi, dims)),
                "--t-max", repr(EVOLVE_T_MAX), "--steps", str(EVOLVE_STEPS), "--sign", sign, "--k", str(k)]
        expect = {"h": h, "psi": psi, "k": k, "sign": 1 if sign == "plus" else -1,
                  "t_max": EVOLVE_T_MAX, "steps": EVOLVE_STEPS}
        return argv, expect
    if kind in ("bell_chsh", "bell_mermin3"):
        name = kind[len("bell_"):]
        target, classical = {"chsh": (2.0 * np.sqrt(2.0), 2.0), "mermin3": (4.0, 2.0)}[name]
        argv = ["bell", "--scenario", name, "--seed", str(int(rng.integers(2 ** 31)))]
        return argv, {"target": target, "classical": classical}
    if kind in ("bell_mermin4", "bell_mermin5"):
        n = int(kind[-1])
        scenario = _mermin(n, [_unitary(rng, 2) for _ in range(n)])
        argv = ["bell", "--scenario-file", _write(outdir, f"{tag}-scenario.json", scenario),
                "--seed", str(int(rng.integers(2 ** 31)))]
        return argv, {"target": scenario["quantum_target"], "classical": scenario["classical_bound"]}
    if kind == "selftest_gate":
        gate = _unitary(rng, 2)
        argv = ["selftest", _write(outdir, f"{tag}-gate.json", _matrix(gate))]
        return argv, {"gate": gate}
    if kind == "stabilizer_k6":
        return ["stabilizer", "--k", "6"], {"k": 6}
    if kind == "encode_n1024":
        psi = _state(rng, 1024)
        argv = ["encode", _write(outdir, f"{tag}-psi.json", _vector(psi, (1024,)))]
        return argv, {"psi": psi}
    if kind == "measure_n128":
        n = 128
        psi = _state(rng, n)
        basis = _unitary(rng, n)
        weights = rng.dirichlet(np.ones(POVM_ELEMENTS), size=n)
        elements = [(basis * weights[:, i]) @ basis.conj().T for i in range(POVM_ELEMENTS)]
        elements = [(e + e.conj().T) / 2.0 for e in elements]
        argv = ["measure", _write(outdir, f"{tag}-psi.json", _vector(psi, (n,))),
                _write(outdir, f"{tag}-povm.json", {"elements": [_matrix(e) for e in elements]})]
        return argv, {"psi": psi, "elements": elements}
    raise ValueError(f"unknown job kind {kind!r}")


def build(workload: str, seed: int, outdir: str) -> tuple:
    """Write the workload's files into outdir; return (warm-up job, cycle).

    File names in the command lines are relative to outdir, which is
    where the jobs run.
    """
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    kinds = [kind for kind, count in CYCLES[workload] for _ in range(count)]
    root = np.random.SeedSequence(seed)
    order_ss, warm_ss, *job_ss = root.spawn(len(kinds) + 2)
    order = np.random.default_rng(order_ss).permutation(len(kinds))

    argv, expect = _make(WARMUP[workload], np.random.default_rng(warm_ss), outdir, "warmup")
    warmup = Job(f"{workload}:{seed}:warmup", WARMUP[workload], argv, expect)
    cycle = []
    for i, kind_index in enumerate(order):
        kind = kinds[int(kind_index)]
        argv, expect = _make(kind, np.random.default_rng(job_ss[i]), outdir, f"{i:02d}")
        cycle.append(Job(f"{workload}:{seed}:{i}", kind, argv, expect))
    return warmup, cycle
