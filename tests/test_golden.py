"""Golden reports: the sha256 of stdout for small fixed command-line jobs.

A refactor that keeps the mathematics must keep every report byte for
byte.  The inputs are written fresh in a temporary directory; the report
digest hashes file contents, not paths, so the stored hashes do not
depend on where the files live.
"""

import hashlib
import json

import numpy as np
import pytest

from realsim.cli import main

S = 0.7071067811865476
H = 0.5


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def matrix_obj(m):
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


FILES = {
    "qubit.json": {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]},
    "pair.json": {"dims": [2, 2], "amplitudes": [[H, 0.0], [0.0, H], [0.0, -H], [H, 0.0]]},
    "ham_y.json": matrix_obj([[0.0, -1.0j], [1.0j, 0.0]]),
    "ham_pair.json": matrix_obj(np.kron([[0.0, -1.0j], [1.0j, 0.0]], np.eye(2))
                                + np.kron(np.eye(2), [[1.0, 0.0], [0.0, -1.0]])),
    "rho.json": matrix_obj([[0.75, 0.25j], [-0.25j, 0.25]]),
    "povm.json": {"elements": [matrix_obj([[H, H], [H, H]]), matrix_obj([[H, -H], [-H, H]])]},
}

JOBS = {
    "encode_k1": (["encode", "qubit.json"],
                  "28864406a6919f734c1e23af0d615643e5ce59e7802a4bd0152e3346c6fa706e"),
    "encode_k2": (["encode", "pair.json", "--k", "2"],
                  "48f4422ec2a5468d11d9514efc348fd76587babf732df800aeaaf5846e4823fe"),
    "evolve_k1": (["evolve", "ham_y.json", "qubit.json", "--t-max", "1.5", "--steps", "5"],
                  "b74beb21f11de0347a65ccfcfca136fb6ebc7ca7c86142bc7fd95ea7f95e256f"),
    "evolve_k2": (["evolve", "ham_pair.json", "pair.json", "--t-max", "0.5", "--steps", "4", "--k", "2"],
                  "bd10a528bbb5e3d74677863e4c23cd4c494609e92780347d40d23cd49990e990"),
    "measure_pure": (["measure", "qubit.json", "povm.json"],
                     "21a2ac77893aab43fb8dcaeadd49fa5aecbde29f03ae9be88e4c89f0bb1a6318"),
    "measure_density": (["measure", "rho.json", "povm.json"],
                        "8d399106138dd16b577b0b87e846372ab7a39e887b0d1edebeefdbb2fd943820"),
    "bell_chsh": (["bell", "--scenario", "chsh", "--restarts", "2", "--seed", "3"],
                  "e0bb23d8208f42e044303b773328a22da0ec39ffa4b8851be52010de9a8323d2"),
    "selftest": (["selftest"],
                 "550d2ee7e9da57001d44e102dbf834b6a2efd5efc362daa857f399a607dfa4e6"),
    "stabilizer_k3": (["stabilizer", "--k", "3"],
                      "914209a3c8f78afb82e66438fe89212ae838e62f0d739d1f680c477ee1b5d9a4"),
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_bytes_are_unchanged(name, capsys, tmp_path, monkeypatch):
    for file_name, obj in FILES.items():
        write(tmp_path, file_name, obj)
    monkeypatch.chdir(tmp_path)
    argv, expected = JOBS[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected
