"""Golden reports: the sha256 of stdout for small fixed command-line jobs.

A refactor that keeps the mathematics must keep every report byte for
byte.  The inputs are written fresh in a temporary directory; the report
digest hashes file contents, not paths, so the stored hashes do not
depend on where the files live.  Each report is also stored in
golden/<job>.json, so a mismatch names the first field that differs and
the largest numeric difference: a last-bit slip of 1e-15 reads apart
from a real change of 0.41.  The stored reports are also checked by
value against plain numpy, so a mistake that the hashes pinned when
they were recorded does not stay pinned unseen.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from helpers import S, check_report, matrix_obj
from realsim import cli, formats
from realsim.cli import main
from realsim.encoding import Povm

H = 0.5
GOLDEN = pathlib.Path(__file__).parent / "golden"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def seeded_state(seed, n):
    # Normalized with math.fsum on Python floats, so the file bytes do not depend on the BLAS build.
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(n).tolist(), rng.standard_normal(n).tolist()
    norm = math.sqrt(math.fsum(x * x for x in re + im))
    return {"dims": [n], "amplitudes": [[x / norm, y / norm] for x, y in zip(re, im)]}


def seeded_hamiltonian(seed, n):
    # (G + G^dagger) / 2 entry by entry: a sum and an exact halving, so the file bytes do not depend on the BLAS build.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return matrix_obj((g + g.conj().T) / 2.0)


def seeded_povm(seed, n, count):
    # E_i = U diag(w_i) U^dagger with U a Householder reflection and each weight row summing to 1.
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = np.eye(n) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    weights = rng.dirichlet(np.ones(count), size=n)
    elements = [(u * weights[:, i]) @ u.conj().T for i in range(count)]
    return {"elements": [matrix_obj((e + e.conj().T) / 2.0) for e in elements]}


FILES = {
    "qubit.json": {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]},
    "pair.json": {"dims": [2, 2], "amplitudes": [[H, 0.0], [0.0, H], [0.0, -H], [H, 0.0]]},
    "ham_y.json": matrix_obj([[0.0, -1.0j], [1.0j, 0.0]]),
    "ham_pair.json": matrix_obj(np.kron([[0.0, -1.0j], [1.0j, 0.0]], np.eye(2))
                                + np.kron(np.eye(2), [[1.0, 0.0], [0.0, -1.0]])),
    "rho.json": matrix_obj([[0.75, 0.25j], [-0.25j, 0.25]]),
    "povm.json": {"elements": [matrix_obj([[H, H], [H, H]]), matrix_obj([[H, -H], [-H, H]])]},
    # Long [re, im] and float lists: a bulk parser or writer fault that spares short lists still moves a hash.
    "state_n256.json": seeded_state(5, 256),
    "state_n8.json": seeded_state(6, 8),
    "povm_8x8.json": seeded_povm(7, 8, 4),
    # A dense H: every entry of U(t_max) and of the generator is nonzero.
    "ham_8x8.json": seeded_hamiltonian(8, 8),
    # A gate with complex entries: the witness real part falls short of its modulus.
    "gate_complex.json": matrix_obj([[S, S * 1j], [S * 1j, S]]),
}

JOBS = {
    "encode_k1": (["encode", "qubit.json"],
                  "974f50e0d4147f6bedf5b073898961c876ba981a98a4feb81498a809e48bb454"),
    "encode_n256": (["encode", "state_n256.json"],
                    "f9fb81f5ac6d283f984d98d6603062346c92248c7aa6b5126a25757ee750adc4"),
    "encode_k2": (["encode", "pair.json", "--k", "2"],
                  "bf31e417672681f6c9194ebb9c017801e553adcac41fa2b531f557f926ac13db"),
    "evolve_k1": (["evolve", "ham_y.json", "qubit.json", "--t-max", "1.5", "--steps", "5"],
                  "2f6fcfedefd5efb1bd662f0c3a3aa5899d8d4566e472b930716c61ec79c6d10b"),
    "evolve_k2": (["evolve", "ham_pair.json", "pair.json", "--t-max", "0.5", "--steps", "4", "--k", "2"],
                  "2158f818eb1c809cf80377fb70790d21be06cc19c8f19d97468da68e62f49538"),
    "evolve_minus_8x8": (["evolve", "ham_8x8.json", "state_n8.json", "--sign", "minus", "--steps", "5"],
                         "e799ca4be78908761f50b938007544690d4c565b414e7a9c7634be2d16a8e428"),
    "measure_pure": (["measure", "qubit.json", "povm.json"],
                     "26da12a800521f05abdb6a823efbea42d42bdf32aa1ee1a682b111e7da55a96b"),
    "measure_povm_8x8": (["measure", "state_n8.json", "povm_8x8.json"],
                         "8f2558a7d7f87098bf99fc772a90670339fcb5b89117ce6a47535ba8883385e7"),
    "measure_density": (["measure", "rho.json", "povm.json"],
                        "282233891220a1a1af622daa69707bb6e643abf07d9ab9caf425bb286b86b2ca"),
    "bell_chsh": (["bell", "--scenario", "chsh", "--restarts", "2", "--seed", "3"],
                  "45d520499e89a30706b8e79fb08e5976e0dc74c4ee7d435fb136d28aabed6496"),
    "selftest": (["selftest"],
                 "492c7f13a99a3cddf96ec5f04b08163d5558aac0a8b53bc8ef1dfcb759e0c8d4"),
    "selftest_complex_gate": (["selftest", "gate_complex.json"],
                              "e3b027110035a605d353136700d0514fc876912fe375ad05c1512d5b22ada56d"),
    "stabilizer_k3": (["stabilizer", "--k", "3"],
                      "5f506e7603e6408ea81252cfe80df0f981a37aad3e359601b168028ad88e4f42"),
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stored_report(name):
    return (GOLDEN / f"{name}.json").read_bytes().decode("utf-8")


def leaves(node, path="report"):
    """(path, value) of every scalar of a parsed report, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def explain(want_text, got_text):
    """The first field of the stored report that the new one changes or drops (else the first it adds), and the
    largest difference between numbers that both reports hold at one path."""
    want, got = dict(leaves(json.loads(want_text))), dict(leaves(json.loads(got_text)))
    missing = object()
    changed = [p for p, v in want.items() if got.get(p, missing) != v or type(got[p]) is not type(v)]
    changed += [p for p in got if p not in want]
    if not changed:
        return "the reports parse to the same values; they differ in formatting only"
    first = changed[0]
    message = f"first differing field {first}: {want.get(first, '(absent)')!r} -> {got.get(first, '(absent)')!r}"
    numeric = [(abs(got[p] - want[p]), p) for p in changed if p in want and p in got
               and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (want[p], got[p]))]
    if numeric:
        size, where = max(numeric)
        message += f"; largest numeric difference {size:.3g} at {where}"
    return message


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_bytes_are_unchanged(name, capsys, tmp_path, monkeypatch):
    for file_name, obj in FILES.items():
        write(tmp_path, file_name, obj)
    monkeypatch.chdir(tmp_path)
    argv, expected = JOBS[name]
    stored = stored_report(name)
    assert sha256(stored) == expected, f"golden/{name}.json is not the report its hash pins"
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out) == expected, explain(stored, out)


def test_a_mismatch_names_the_field_and_the_size_of_the_change():
    stored = stored_report("evolve_k1")
    report = json.loads(stored)
    first = report["results"]["final_encoded"][1]
    report["results"]["final_encoded"][1] = math.nextafter(first, math.inf)
    assert explain(stored, json.dumps(report)) == (
        f"first differing field report.results.final_encoded[1]: {first!r} -> {math.nextafter(first, math.inf)!r}"
        f"; largest numeric difference {math.nextafter(first, math.inf) - first:.3g} at report.results.final_encoded[1]")
    report["results"]["max_deviation"] += 0.41
    report["assertions"].pop()
    message = explain(stored, json.dumps(report))
    assert message.startswith("first differing field report.results.max_deviation: ")
    assert message.endswith("; largest numeric difference 0.41 at report.results.max_deviation")
    assert explain(stored, json.dumps(json.loads(stored), indent=1)).endswith("formatting only")


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stored_report_holds_what_plain_numpy_computes(name):
    # test_report_bytes_are_unchanged ties each job's output to its stored report; this ties the stored
    # report to the mathematics, recomputed from the job's input files without the package.
    argv, _ = JOBS[name]
    report = json.loads(stored_report(name))
    assert [a["name"] for a in report["assertions"] if not a["passed"]] == []
    check_report(report, FILES, argv)


def transposed_matrices(monkeypatch):
    parse = formats.parse_matrix
    monkeypatch.setattr(formats, "parse_matrix", lambda obj, where="matrix": parse(obj, where).T)


def plus_runs_minus(monkeypatch):
    run = cli.trajectory
    monkeypatch.setattr(cli, "trajectory", lambda h, psi, t_max, steps, k, sign: run(h, psi, t_max, steps, k, -sign))


def transposed_povm_elements(monkeypatch):
    init = Povm.__init__

    def transposing(self, elements):
        init(self, elements)
        self.elements = np.ascontiguousarray(np.swapaxes(self.elements, 1, 2))
        self.elements.setflags(write=False)

    monkeypatch.setattr(Povm, "__init__", transposing)


# A mistake made the same way on both sides passes every assertion of the report; the value check names it.
MISTAKES = {
    "transposed_matrices": (transposed_matrices, {"evolve_k1": "final_complex", "evolve_k2": "final_complex",
                                                  "evolve_minus_8x8": "final_complex",
                                                  "measure_povm_8x8": "probabilities"}),
    "plus_runs_minus": (plus_runs_minus, {"evolve_k1": "final_complex", "evolve_k2": "final_complex",
                                          "evolve_minus_8x8": "final_complex"}),
    "transposed_povm_elements": (transposed_povm_elements, {"measure_povm_8x8": "probabilities"}),
}


@pytest.mark.parametrize("mistake", sorted(MISTAKES))
def test_a_mistake_made_on_both_sides_fails_the_value_check_by_field(mistake, capsys, tmp_path, monkeypatch):
    for file_name, obj in FILES.items():
        write(tmp_path, file_name, obj)
    monkeypatch.chdir(tmp_path)
    apply, fields = MISTAKES[mistake]
    apply(monkeypatch)
    for name in sorted(JOBS):
        argv, expected = JOBS[name]
        assert main(argv) == 0, name
        out = capsys.readouterr().out
        report = json.loads(out)
        assert [a["name"] for a in report["assertions"] if not a["passed"]] == [], name
        if name not in fields:
            assert sha256(out) == expected, f"{mistake} moves {name} too: {explain(stored_report(name), out)}"
            continue
        assert sha256(out) != expected, name
        with pytest.raises(AssertionError, match=rf"^{fields[name]}: off by \d"):
            check_report(report, FILES, argv)
