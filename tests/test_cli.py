"""End-to-end command-line runs against temporary job files."""

import ast
import contextlib
import copy
import functools
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_obj, perturbed_eigh, random_hermitian
import realsim
from realsim import cli, dynamics, encoding, linalg, multipartite
from realsim.applications import bell, selftest
from realsim.cli import main

S = 0.7071067811865476


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def at_bound_state():
    """A seeded four-amplitude state of norm 1 + INPUT_TOL, which PureState admits."""
    rng = np.random.default_rng(1)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = z / np.linalg.norm(z) * (1.0 + linalg.INPUT_TOL)
    return {"dims": [4], "amplitudes": [[a.real, a.imag] for a in v.tolist()]}


@pytest.fixture
def circular_state(tmp_path):
    return write(tmp_path, "state.json", {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]})


@pytest.fixture
def z_basis_povm(tmp_path):
    return write(
        tmp_path,
        "povm.json",
        {"elements": [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0]))]},
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    report = json.loads(out)
    assert set(report) == {"command", "inputs_digest", "results", "assertions", "versions"}
    return report


def failed_assertions(out):
    return {a["name"] for a in report_of(out)["assertions"] if not a["passed"]}


class TestEncode:
    def test_round_trip_report(self, capsys, circular_state):
        code, out, _ = run(capsys, ["encode", circular_state])
        assert code == 0
        report = report_of(out)
        assert report["command"] == "encode"
        assert np.allclose(report["results"]["encoded_amplitudes"], [S, 0.0, 0.0, S], atol=1e-15)
        assert all(a["passed"] for a in report["assertions"])

    def test_unnormalized_state_is_schema_error(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.json", {"dims": [2], "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})
        code, out, err = run(capsys, ["encode", bad])
        assert code == 2
        assert out == ""
        assert "error:" in err and "never renormalized" in err

    @pytest.mark.parametrize("dims", [[], [0]], ids=["empty", "zero"])
    def test_dims_that_are_not_positive_are_rejected_by_name(self, capsys, tmp_path, dims):
        path = write(tmp_path, "psi.json", {"dims": dims, "amplitudes": [[1.0, 0.0]]})
        code, out, err = run(capsys, ["encode", path])
        assert (code, out, err) == (2, "", f"error: {path}.dims must be a nonempty list of positive integers\n")

    def test_malformed_json_names_the_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2,}')
        code, _, err = run(capsys, ["encode", str(path)])
        assert code == 2
        assert "line 1 column" in err

    def test_unknown_flag_is_usage_error(self, capsys, circular_state):
        code, _, _ = run(capsys, ["encode", circular_state, "--bogus"])
        assert code == 2

    @pytest.mark.parametrize("command", ["encode", "evolve"])
    @pytest.mark.parametrize("k", ["0", "-3", "13"])
    def test_out_of_range_k_rejected(self, capsys, tmp_path, circular_state, command, k):
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        files = [circular_state] if command == "encode" else [ham, circular_state]
        code, out, err = run(capsys, [command, *files, "--k", k])
        assert code == 2
        assert out == ""
        assert "out of range" in err

    def test_input_norm_off_one_passes_norm_preserved(self, capsys, tmp_path):
        # Ten-digit amplitudes give norm 1 + 1.9e-11, admitted within 1e-10; the encoding keeps that norm.
        psi = write(tmp_path, "state.json", {"dims": [2], "amplitudes": [[0.7071067812, 0.0], [0.7071067812, 0.0]]})
        code, out, _ = run(capsys, ["encode", psi])
        assert code == 0
        norm = {a["name"]: a for a in report_of(out)["assertions"]}["norm_preserved"]
        assert norm["passed"] and norm["measured"] <= 1e-15 and norm["tolerance"] == 1e-12

    def test_input_norm_at_the_admission_bound_is_encoded(self, capsys, tmp_path):
        # The state is admitted once; its encoding is computed, not admitted again at the same bound.
        psi = write(tmp_path, "psi.json", at_bound_state())
        code, out, err = run(capsys, ["encode", psi, "--k", "1"])
        assert (code, err) == (0, "")
        assert not failed_assertions(out)

    def test_signed_zero_survives_into_the_report(self, capsys, tmp_path):
        psi = write(tmp_path, "psi.json", {"dims": [2], "amplitudes": [[-0.0, -0.6], [0.8, 0.0]]})
        code, out, err = run(capsys, ["encode", psi])
        assert (code, err) == (0, "")
        assert '"encoded_amplitudes":[-0,-0.59999999999999998,0.80000000000000004,0]' in out

    def test_digest_tracks_input_content(self, capsys, tmp_path, circular_state):
        other = write(tmp_path, "other.json", {"dims": [2], "amplitudes": [[0.0, S], [S, 0.0]]})
        _, out1, _ = run(capsys, ["encode", circular_state])
        _, out2, _ = run(capsys, ["encode", circular_state])
        _, out3, _ = run(capsys, ["encode", other])
        assert report_of(out1)["inputs_digest"] == report_of(out2)["inputs_digest"]
        assert report_of(out1)["inputs_digest"] != report_of(out3)["inputs_digest"]


class TestEvolve:
    def test_both_sides_agree(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj([[0.0, -1.0j], [1.0j, 0.0]]))
        code, out, _ = run(capsys, ["evolve", ham, circular_state, "--t-max", "1.7", "--steps", "9"])
        assert code == 0
        report = report_of(out)
        assert report["results"]["max_deviation"] <= 1e-10
        assert len(report["results"]["times"]) == 9

    def test_minus_sign(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        code, _, _ = run(capsys, ["evolve", ham, circular_state, "--sign", "minus"])
        assert code == 0

    def test_zero_tolerance_fails_the_assertion(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj([[0.0, -1.0j], [1.0j, 0.0]]))
        code, out, _ = run(capsys, ["evolve", ham, circular_state, "--t-max", "1.7", "--tol", "0.0"])
        assert code == 1
        report = report_of(out)
        failed = {a["name"] for a in report["assertions"] if not a["passed"]}
        assert failed and failed <= {"matches_complex_evolution", "matches_dense_expm"}

    @pytest.mark.parametrize("steps, k", [(4194305, 1), (10 ** 15, 1), (1048577, 3), (10 ** 400, 12)])
    def test_grid_past_the_entry_bound_is_rejected_by_name(self, capsys, tmp_path, monkeypatch, steps, k):
        # steps x n 2^k encoded amplitudes above DEFAULT_MAX_DIM^2 = 2^24 (the bound optimize_bell's chunks keep):
        # 10^15 points once ran into numpy's allocation error and a huge count a little below that ran for
        # minutes before running out of memory.  trajectory rejects it by name before any eigh, exponential or grid.
        def ran(*args, **kwargs):
            raise AssertionError("evolve started work on a grid past the bound")

        for owner, name in [(np.linalg, "eigh"), (dynamics, "matexp"), (np, "linspace")]:
            monkeypatch.setattr(owner, name, ran)
        dims = [2] + [1] * (k - 1)
        psi = write(tmp_path, "psi.json", {"dims": dims, "amplitudes": [[S, 0.0], [0.0, S]]})
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        code, out, err = run(capsys, ["evolve", ham, psi, "--steps", str(steps), "--k", str(k)])
        most = 2 ** 24 // (2 * 2 ** k)
        assert (code, out) == (2, "")
        assert err == f"error: steps must be at most {most} for 2 amplitudes at k={k}, got {steps}\n"

    def test_grid_at_the_entry_bound_is_not_rejected_by_its_size(self, capsys, tmp_path, monkeypatch, circular_state):
        # The largest admitted count passes the bound and reaches the grid; the stand-in allocates nothing.
        seen = []

        def stand_in(start, stop, num):
            seen.append(num)
            raise ValueError("stand-in")

        monkeypatch.setattr(np, "linspace", stand_in)
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        assert run(capsys, ["evolve", ham, circular_state, "--steps", "4194304"]) == (2, "", "error: stand-in\n")
        assert seen == [4194304]

    def test_k_out_of_range_is_named_before_the_steps_bound(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        code, out, err = run(capsys, ["evolve", ham, circular_state, "--steps", "4194305", "--k", str(10 ** 9)])
        assert (code, out, err) == (2, "", f"error: ancilla count k={10 ** 9} out of range [1, 12]\n")

    @pytest.mark.parametrize("dims", [[2] + [1] * 11, [1] * 10], ids=["k12", "k10_dimension_1"])
    def test_many_ancilla_qubits_evolve_through_the_single_ancilla_propagator(self, capsys, tmp_path, dims):
        # Only ancilla qubit 0 carries i, so the propagator is U_1 (x) I and no n 2^k square matrix is built:
        # at k = 12 the k-qubit H' alone would be 8192 x 8192, past kron's size cap.
        n, k = int(np.prod(dims)), len(dims)
        rng = np.random.default_rng(k)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        psi = write(tmp_path, "psi.json", {"dims": dims, "amplitudes": [[z.real, z.imag] for z in v.tolist()]})
        ham = write(tmp_path, "ham.json", matrix_obj(random_hermitian(n, seed=k)))
        code, out, err = run(capsys, ["evolve", ham, psi, "--steps", "5", "--k", str(k)])
        assert (code, err) == (0, "")
        assert not failed_assertions(out)
        assert len(report_of(out)["results"]["final_encoded"]) == n * 2 ** k

    def test_report_names_the_propagator_checks(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj([[0.0, -1.0j], [1.0j, 0.0]]))
        code, out, _ = run(capsys, ["evolve", ham, circular_state, "--steps", "3"])
        assert code == 0
        report = report_of(out)
        assert [a["name"] for a in report["assertions"]] == [
            "propagator_orthogonal", "matches_complex_evolution", "matches_dense_expm"]
        assert report["assertions"][0]["tolerance"] == 1e-11
        assert report["results"]["orthogonality_error"] <= 1e-11
        assert report["results"]["expm_error"] <= 1e-10

    def test_perturbed_eigenvectors_fail_the_orthogonality_check(self, capsys, tmp_path, circular_state,
                                                                  monkeypatch):
        # Scaling the eigenvectors of H' by 1 + 2e-11 where the worker thread decomposes it moves U^T U off
        # the identity by about 8e-11, while the states and the dense comparison stay within the 1e-10
        # default tolerance.
        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        ham = write(tmp_path, "ham.json", matrix_obj([[0.3, -1.0j], [1.0j, -0.2]]))
        code, out, _ = run(capsys, ["evolve", ham, circular_state, "--steps", "5"])
        assert code == 1
        failed = {a["name"] for a in report_of(out)["assertions"] if not a["passed"]}
        assert failed == {"propagator_orthogonal"}

    def test_input_norm_off_one_passes_the_orthogonality_check(self, capsys, tmp_path):
        # Ten-digit amplitudes give norm 1 + 1.9e-11: accepted as a state (within 1e-10), and the
        # propagator keeps that norm, so the 1e-11 orthogonality gate must not count it.
        psi = write(tmp_path, "state.json", {"dims": [2], "amplitudes": [[0.7071067812, 0.0], [0.7071067812, 0.0]]})
        ham = write(tmp_path, "ham.json", matrix_obj([[0.3, -1.0j], [1.0j, -0.2]]))
        code, out, _ = run(capsys, ["evolve", ham, psi, "--steps", "5"])
        assert code == 0
        assert report_of(out)["results"]["orthogonality_error"] <= 1e-11

    def test_input_norm_at_the_admission_bound_evolves(self, capsys, tmp_path):
        # A norm of 1 + 1e-10 - 2e-16 is admitted; the evolved states are computed, not admitted
        # again, so rounding past the bound cannot turn an input `encode` accepts into exit 2.
        rng = np.random.default_rng(6)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v *= (1.0 + 1e-10 - 2e-16) / np.linalg.norm(v)
        psi = write(tmp_path, "psi.json", {"dims": [8], "amplitudes": [[z.real, z.imag] for z in v.tolist()]})
        ham = write(tmp_path, "h.json", matrix_obj(random_hermitian(8, seed=1006)))
        assert run(capsys, ["encode", psi])[0] == 0
        code, out, err = run(capsys, ["evolve", ham, psi, "--steps", "16"])
        assert (code, err) == (0, "")
        assert not failed_assertions(out)

    @pytest.mark.parametrize("t_max", ["1", "10", "100"])
    @pytest.mark.parametrize("h", [
        [[0.3, -1.0j], [1.0j, -0.2]],
        [[0.3 + 0.49e-10j, 1.0], [1.0, -0.2 - 0.49e-10j]],
        [[0.3, 1.0 + 0.99e-10], [1.0, -0.2]],
    ], ids=["hermitian", "imaginary_diagonal", "one_sided_off_diagonal"])
    def test_admitted_hamiltonian_passes_every_assertion(self, capsys, tmp_path, circular_state, h, t_max):
        # Hermitian, or Hermitian within INPUT_TOL, so admitted.  Both sides simulate the Hermitian
        # matrix that eigh reads of H; encoding H itself failed propagator_orthogonal (imaginary
        # diagonal, from t = 1) or matches_dense_expm (one-sided off-diagonal, from t = 10).
        ham = write(tmp_path, "ham.json", matrix_obj(h))
        code, out, err = run(capsys, ["evolve", ham, circular_state, "--t-max", t_max])
        assert (code, err) == (0, "")
        assert not failed_assertions(out)

    def test_overflowing_hamiltonian_is_rejected_without_a_traceback(self, tmp_path, circular_state):
        # A finite H = diag(1e300, -1e300) overflows the squarings of the dense exponential.
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1e300, -1e300])))
        proc = subprocess.run(
            [sys.executable, "-m", "realsim", "evolve", ham, circular_state, "--steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: dynamics: dense exponential of the generator is not finite at t=1.0\n"

    @pytest.mark.parametrize("t_max", ["inf", "-inf", "nan"])
    def test_non_finite_t_max_is_rejected_by_dynamics(self, capsys, tmp_path, circular_state, t_max):
        # Rejected before the time grid is built, where numpy would warn of inf * 0.
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, ["evolve", ham, circular_state, f"--t-max={t_max}"])
        assert (code, out) == (2, "")
        assert err == f"error: t_max must be finite, got {t_max}\n"

    # A negative tolerance fails the two assertions it bounds; a non-finite one is rejected as input.
    @pytest.mark.parametrize("option, value, code, message", [
        ("--t-max", "-1e-3", 0, ""), ("--t-max", "-1e5", 0, ""), ("--tol", "-1e-3", 1, ""),
        ("--t-max", "-inf", 2, "error: t_max must be finite, got -inf\n"),
        ("--tol", "-inf", 2, "error: --tol must be finite, got -inf\n"),
    ])
    def test_negative_value_after_a_space_reads_as_after_equals(self, capsys, tmp_path, circular_state, option,
                                                               value, code, message):
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        spaced = run(capsys, ["evolve", ham, circular_state, "--steps", "3", option, value])
        joined = run(capsys, ["evolve", ham, circular_state, "--steps", "3", f"{option}={value}"])
        assert spaced == joined
        assert spaced[0] == code
        assert spaced[2] == message

    def test_non_hermitian_rejected(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj([[0.0, 1.0], [0.0, 0.0]]))
        code, _, err = run(capsys, ["evolve", ham, circular_state])
        assert code == 2
        assert "Hermitian" in err


class TestMeasure:
    def test_pure_state_statistics(self, capsys, circular_state, z_basis_povm):
        code, out, _ = run(capsys, ["measure", circular_state, z_basis_povm])
        assert code == 0
        report = report_of(out)
        assert np.allclose(report["results"]["probabilities"], [0.5, 0.5], atol=1e-12)
        assert np.allclose(report["results"]["encoded_probabilities"], [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_povm_entry_rejected(self, capsys, tmp_path, circular_state, literal):
        path = tmp_path / "povm.json"
        text = json.dumps({"elements": [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0]))]})
        path.write_text(text.replace("[0.0, 0.0]", f"[{literal}, 0.0]", 1))
        code, out, err = run(capsys, ["measure", circular_state, str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: non-finite number {literal} is not allowed\n"

    @pytest.mark.parametrize("state", [
        {"dims": [2], "amplitudes": [[0.6, 0.0], [0.0, 0.80000000006]]},  # <psi|psi> = 1 + 9.6e-11
        matrix_obj([[0.5 + 9e-11, 0.25j], [-0.25j, 0.5]]),                 # tr rho = 1 + 9e-11
        at_bound_state(),                                                   # ||psi|| = 1 + INPUT_TOL
    ])
    def test_input_norm_off_one_passes_the_normalization_checks(self, capsys, tmp_path, state):
        # The probabilities sum to the admitted input's own normalization, not to 1.
        n = state["dims"][0] if "dims" in state else state["rows"]
        low = np.arange(n) < n // 2
        povm = write(tmp_path, "povm.json", {"elements": [matrix_obj(np.diag(low)), matrix_obj(np.diag(~low))]})
        path = write(tmp_path, "psi.json", state)
        code, out, _ = run(capsys, ["measure", path, povm])
        assert code == 0
        checks = {a["name"]: a for a in report_of(out)["assertions"]}
        for name in ("complex_normalized", "encoded_normalized"):
            assert checks[name]["measured"] <= 1e-15 and checks[name]["tolerance"] == 1e-10

    @pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
    def test_povm_at_the_completeness_bound_passes_the_normalization_checks(self, capsys, tmp_path, density):
        # E0 + E1 = I + 0.9e-10 J (J all ones) is admitted, and psi = 1/sqrt(128) lies along J: the
        # probabilities sum to 1 + 1.15e-8, which is <psi|(E0 + E1)|psi>, not <psi|psi>.
        n = 128
        povm = write(tmp_path, "povm.json", {"elements": [matrix_obj(np.eye(n) / 2 + 0.9e-10 * np.ones((n, n))),
                                                          matrix_obj(np.eye(n) / 2)]})
        state = matrix_obj(np.ones((n, n)) / n) if density else {"dims": [n], "amplitudes": [[n ** -0.5, 0.0]] * n}
        code, out, err = run(capsys, ["measure", write(tmp_path, "state.json", state), povm])
        assert (code, err) == (0, "")
        checks = {a["name"]: a for a in report_of(out)["assertions"]}
        for name in ("complex_normalized", "encoded_normalized"):
            assert checks[name]["measured"] <= 1e-14 and checks[name]["tolerance"] == 1e-10

    def test_ragged_povm_is_rejected_naming_the_family(self, capsys, tmp_path, circular_state):
        elements = [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0, 1.0]))]
        povm = write(tmp_path, "p.json", {"elements": elements})
        code, out, err = run(capsys, ["measure", circular_state, povm])
        assert (code, out) == (2, "")
        assert err == "error: POVM elements must share one dimension, got 2 and 3\n"

    def test_state_and_povm_of_different_dimensions_are_rejected(self, capsys, tmp_path, z_basis_povm):
        psi = write(tmp_path, "psi.json", {"dims": [3], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
        code, out, err = run(capsys, ["measure", psi, z_basis_povm])
        assert (code, out, err) == (2, "", "error: state dimension 3 does not match POVM dimension 2\n")

    def test_density_matrix_statistics(self, capsys, tmp_path, z_basis_povm):
        rho = write(tmp_path, "rho.json", matrix_obj([[0.75, 0.0], [0.0, 0.25]]))
        code, out, _ = run(capsys, ["measure", rho, z_basis_povm])
        assert code == 0
        report = report_of(out)
        assert np.allclose(report["results"]["probabilities"], [0.75, 0.25], atol=1e-12)


class TestBell:
    def test_chsh_reaches_target(self, capsys):
        code, out, _ = run(capsys, ["bell", "--scenario", "chsh", "--seed", "7", "--restarts", "5"])
        assert code == 0
        report = report_of(out)
        assert abs(report["results"]["value_complex"] - 2.8284271247461903) <= 1e-6
        assert abs(report["results"]["value_real_encoded"] - 2.8284271247461903) <= 1e-6

    def test_runs_are_byte_identical(self, capsys):
        argv = ["bell", "--scenario", "chsh", "--seed", "11", "--restarts", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_bare_memory_error_names_the_command(self, capsys, monkeypatch):
        # A MemoryError raised without a message, as by a seed list too long to build, would print a bare "error: ".
        def run_out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "optimize_bell", run_out_of_memory)
        code, out, err = run(capsys, ["bell", "--seed", "1", "--restarts", "2"])
        assert (code, out, err) == (2, "", "error: bell ran out of memory\n")

    def test_report_lists_every_restart_after_the_trace(self, capsys):
        code, out, _ = run(capsys, ["bell", "--scenario", "mermin3", "--seed", "4", "--restarts", "3"])
        assert code == 0
        results = report_of(out)["results"]
        assert list(results)[-2:] == ["optimizer_trace", "restarts"]
        assert [seed for seed, _, _ in results["restarts"]] == [4, 5, 6]
        assert abs(max(v for _, v, _ in results["restarts"]) - results["value_complex"]) <= 1e-9
        assert all(n >= 1 for _, _, n in results["restarts"])

    def test_seed_is_mandatory(self, capsys):
        code, _, err = run(capsys, ["bell", "--scenario", "chsh"])
        assert code == 2
        assert "--seed is required" in err

    @pytest.mark.parametrize("argv", [["--seed", "-5"], ["--seed=-5"], ["--seed", "-5", "--restarts", "8"]])
    def test_negative_seed_is_rejected_by_name(self, capsys, argv):
        # Restart r uses seed + r, so the base seed is the one named even when later restarts are non-negative.
        code, out, err = run(capsys, ["bell", "--scenario", "chsh", *argv])
        assert (code, out, err) == (2, "", "error: seed must be non-negative, got -5\n")

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_fewer_than_one_restart_is_rejected_by_name(self, capsys, restarts):
        code, out, err = run(capsys, ["bell", "--scenario", "chsh", "--seed", "1", "--restarts", restarts])
        assert (code, out, err) == (2, "", f"error: --restarts must be at least 1, got {restarts}\n")

    def test_scenario_file_with_a_party_of_no_settings_is_rejected(self, capsys, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        scenario = write(tmp_path, "scenario.json", {
            "parties": 2, "settings_per_party": [0, 2], "observables": [[], [z, z]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}], "classical_bound": 1.0,
        })
        code, out, err = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "1"])
        assert (code, out, err) == (2, "", "error: settings_per_party must list a positive count per party\n")

    def test_scenario_file(self, capsys, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        scenario = write(
            tmp_path,
            "scenario.json",
            {
                "parties": 2,
                "settings_per_party": [1, 1],
                "observables": [[z], [z]],
                "coefficients": [{"settings": [0, 0], "value": 1.0}],
                "classical_bound": 1.0,
            },
        )
        code, out, _ = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "3", "--restarts", "2"])
        assert code == 0
        report = report_of(out)
        assert abs(report["results"]["value_complex"] - 1.0) <= 1e-9

    def test_scenario_file_digest_hashes_content_not_path(self, capsys, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        obj = {"parties": 2, "settings_per_party": [1, 1], "observables": [[z], [z]],
               "coefficients": [{"settings": [0, 0], "value": 1.0}], "classical_bound": 1.0}
        (tmp_path / "a").mkdir()
        (tmp_path / "b" / "c").mkdir(parents=True)
        first = write(tmp_path / "a", "s.json", obj)
        moved = write(tmp_path / "b" / "c", "s.json", obj)
        obj["coefficients"][0]["value"] = 0.5
        changed = write(tmp_path / "b", "s.json", obj)
        digests = []
        for scenario in (first, moved, changed):
            code, out, _ = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "3", "--restarts", "2"])
            assert code == 0
            digests.append(report_of(out)["inputs_digest"])
        assert digests[0] == digests[1]
        assert digests[2] != digests[0]

    def test_scenario_file_digest_ignores_the_overridden_scenario_name(self, capsys, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        scenario = write(tmp_path, "s.json", {
            "parties": 2, "settings_per_party": [1, 1], "observables": [[z], [z]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}], "classical_bound": 1.0,
        })
        outs = []
        for name in ("chsh", "mermin3"):
            code, out, _ = run(capsys, ["bell", "--scenario", name, "--scenario-file", scenario,
                                        "--seed", "3", "--restarts", "2"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_digest_tells_modes_apart_whatever_the_file_is_named(self, capsys, tmp_path, monkeypatch):
        # The Mermin-3 scenario as a file, saved as "both" and as "complex": a path equal to the --mode value
        # must not make two jobs with different results share a digest.
        x, y = matrix_obj([[0.0, 1.0], [1.0, 0.0]]), matrix_obj([[0.0, -1.0j], [1.0j, 0.0]])
        mermin3 = {"parties": 3, "settings_per_party": [2, 2, 2], "observables": [[x, y]] * 3,
                   "coefficients": [{"settings": s, "value": v} for s, v in
                                    [([0, 0, 1], 1.0), ([0, 1, 0], 1.0), ([1, 0, 0], 1.0), ([1, 1, 1], -1.0)]],
                   "classical_bound": 2.0, "quantum_target": 4.0}
        monkeypatch.chdir(tmp_path)
        reports = []
        for mode in ("both", "complex"):
            write(tmp_path, mode, mermin3)
            code, out, _ = run(capsys, ["bell", "--scenario-file", mode, "--mode", mode, "--seed", "1",
                                        "--restarts", "5"])
            assert code == 0
            reports.append(report_of(out))
        assert reports[0]["results"] != reports[1]["results"]
        assert reports[0]["inputs_digest"] != reports[1]["inputs_digest"]

    def test_repeated_coefficient_settings_exit_2(self, capsys, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        obj = {"parties": 2, "settings_per_party": [1, 1], "observables": [[z], [z]],
               "coefficients": [{"settings": [0, 0], "value": 1.0}, {"settings": [0, 0], "value": 2.0}],
               "classical_bound": 1.0}
        scenario = write(tmp_path, "scenario.json", obj)
        code, out, err = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "3", "--restarts", "2"])
        assert code == 2
        assert out == ""
        assert err == f"error: {scenario}.coefficients[1].settings repeats {scenario}.coefficients[0].settings\n"

    @pytest.mark.parametrize("field,value,named", [
        ("settings_per_party", 5, "settings_per_party"),
        ("coefficients", 5, "coefficients"),
        ("coefficients", [{"settings": 3, "value": 1.0}], "coefficients[0].settings"),
        ("observables", [5, 5], "observables"),
        ("observables", [[{"rows": 2, "cols": 2, "entries": 5}], [{"rows": 2, "cols": 2, "entries": 5}]],
         "observables[0][0].entries"),
    ])
    def test_mistyped_scenario_field_rejected(self, capsys, tmp_path, field, value, named):
        z = matrix_obj(np.diag([1.0, -1.0]))
        obj = {
            "parties": 2,
            "settings_per_party": [1, 1],
            "observables": [[z], [z]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}],
            "classical_bound": 1.0,
        }
        obj[field] = value
        scenario = write(tmp_path, "scenario.json", obj)
        code, out, err = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "3"])
        assert code == 2
        assert out == ""
        assert f"{named} must" in err

    @pytest.mark.parametrize("field,named", [
        ("coefficients", "coefficients[0].value"),
        ("classical_bound", "classical_bound"),
        ("quantum_target", "quantum_target"),
    ])
    def test_non_finite_scenario_number_rejected(self, tmp_path, field, named):
        # The JSON literal 1e400 parses to inf; it must be rejected before the see-saw runs on it.
        z = matrix_obj(np.diag([1.0, -1.0]))
        obj = {
            "parties": 2,
            "settings_per_party": [1, 1],
            "observables": [[z], [z]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}],
            "classical_bound": 1.0,
            "quantum_target": 1.0,
        }
        if field == "coefficients":
            obj["coefficients"][0]["value"] = 12345.5
        else:
            obj[field] = 12345.5
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj).replace("12345.5", "1e400"))
        proc = subprocess.run(
            [sys.executable, "-m", "realsim", "bell", "--scenario-file", str(scenario), "--seed", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{named} must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field,named", [
        ("coefficients", "coefficients[0].value"),
        ("classical_bound", "classical_bound"),
        ("quantum_target", "quantum_target"),
    ])
    def test_integer_beyond_the_double_range_rejected(self, capsys, tmp_path, field, named):
        # 10**400 is a valid JSON integer that no double holds; float() of it raises OverflowError.
        z = matrix_obj(np.diag([1.0, -1.0]))
        obj = {
            "parties": 2,
            "settings_per_party": [1, 1],
            "observables": [[z], [z]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}],
            "classical_bound": 1.0,
            "quantum_target": 1.0,
        }
        if field == "coefficients":
            obj["coefficients"][0]["value"] = 10 ** 400
        else:
            obj[field] = 10 ** 400
        code, out, err = run(capsys, ["bell", "--scenario-file", write(tmp_path, "s.json", obj), "--seed", "3"])
        assert code == 2
        assert out == ""
        assert err == f"error: {tmp_path / 's.json'}.{named} must be finite: an integer beyond the double range\n"

    @pytest.mark.parametrize("mode", ["both", "complex", "real_encoded"])
    def test_one_dimensional_party_rejected_in_every_mode(self, capsys, tmp_path, mode):
        scenario = write(
            tmp_path,
            "scenario.json",
            {
                "parties": 2,
                "settings_per_party": [1, 1],
                "observables": [[matrix_obj(np.diag([1.0, -1.0]))], [matrix_obj([[1.0]])]],
                "coefficients": [{"settings": [0, 0], "value": 1.0}],
                "classical_bound": 1.0,
            },
        )
        code, out, err = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "3", "--mode", mode])
        assert code == 2
        assert out == ""
        assert "party 1 has dimension 1" in err

    def test_ragged_observable_family_is_rejected_naming_the_family(self, capsys, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        scenario = write(tmp_path, "scenario.json", {
            "parties": 2,
            "settings_per_party": [1, 2],
            "observables": [[z], [z, matrix_obj(np.diag([1.0, -1.0, 1.0]))]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}],
            "classical_bound": 1.0,
        })
        code, out, err = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "3"])
        assert (code, out) == (2, "")
        assert err == "error: party 1 observables must share one dimension, got 2 and 3\n"

    def test_seven_party_mermin_reaches_its_target_in_both_modes(self, capsys, tmp_path):
        # Re prod_j (X_j + i Y_j) on seven qubits: quantum maximum 2^6.  The encoded state has
        # 2^14 entries, past the 4096 cap of a dense whole-system lift.
        x = matrix_obj([[0.0, 1.0], [1.0, 0.0]])
        y = matrix_obj([[0.0, -1.0j], [1.0j, 0.0]])
        terms = [s for s in itertools.product((0, 1), repeat=7) if sum(s) % 2 == 0]
        scenario = write(
            tmp_path,
            "mermin7.json",
            {
                "parties": 7,
                "settings_per_party": [2] * 7,
                "observables": [[x, y]] * 7,
                "coefficients": [{"settings": list(s), "value": float((-1) ** (sum(s) // 2))} for s in terms],
                "classical_bound": 8.0,
                "quantum_target": 64.0,
            },
        )
        code, out, _ = run(capsys, ["bell", "--scenario-file", scenario, "--seed", "1", "--restarts", "4"])
        assert code == 0
        report = report_of(out)
        assert {a["name"] for a in report["assertions"] if a["passed"]} == {
            "modes_agree", "reaches_target_complex", "reaches_target_real_encoded"}
        assert abs(report["results"]["value_real_encoded"] - 64.0) <= 1e-6


class TestSelftest:
    def test_default_gate(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        report = report_of(out)
        assert report["results"]["max_stat_gap"] <= 1e-12
        assert abs(report["results"]["witness_real_part"] - 0.5) <= 1e-12
        assert abs(report["results"]["witness_modulus"] - S) <= 1e-12

    def test_gate_file(self, capsys, tmp_path):
        gate = write(tmp_path, "gate.json", matrix_obj([[S, S], [S, -S]]))
        code, out, _ = run(capsys, ["selftest", gate])
        assert code == 0
        assert report_of(out)["results"]["product_state_gap"] <= 1e-10

    def test_non_unitary_gate_rejected(self, capsys, tmp_path):
        gate = write(tmp_path, "gate.json", matrix_obj([[1.0, 0.0], [0.0, 2.0]]))
        code, _, err = run(capsys, ["selftest", gate])
        assert code == 2
        assert "unitary" in err


class TestStabilizer:
    def test_valid_k(self, capsys):
        code, out, _ = run(capsys, ["stabilizer", "--k", "3"])
        assert code == 0
        report = report_of(out)
        assert report["results"]["fixed_subspace_dim"] == 2

    def test_out_of_range_k(self, capsys):
        code, _, err = run(capsys, ["stabilizer", "--k", "9"])
        assert code == 2
        assert "out of range" in err


class TestLiftFaults:
    """A lift kernel that drops Im m fails exactly the assertions that guard each rewritten path."""

    @pytest.fixture
    def real_part_only(self, monkeypatch):
        kernel = encoding.apply_lift

        def dropped(m, x, dims, party):
            return kernel(np.asarray(m).real, x, dims, party)

        for module in (encoding, bell, selftest):
            monkeypatch.setattr(module, "apply_lift", dropped)

    def test_bell(self, capsys, real_part_only):
        code, out, _ = run(capsys, ["bell", "--scenario", "mermin3", "--seed", "4", "--restarts", "3"])
        assert code == 1
        assert failed_assertions(out) == {"modes_agree", "reaches_target_real_encoded"}

    @pytest.mark.parametrize("state", [
        {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]},
        matrix_obj([[0.5, -0.5j], [0.5j, 0.5]]),
    ])
    def test_measure_with_complex_povm(self, capsys, tmp_path, real_part_only, state):
        # Projectors on (|0> +- i|1>)/sqrt2: their real parts are both I/2.
        povm = write(tmp_path, "povm.json", {"elements": [
            matrix_obj([[0.5, -0.5j], [0.5j, 0.5]]), matrix_obj([[0.5, 0.5j], [-0.5j, 0.5]])]})
        code, out, _ = run(capsys, ["measure", write(tmp_path, "state.json", state), povm])
        assert code == 1
        assert failed_assertions(out) == {"encoded_matches_complex"}

    def test_selftest(self, capsys, real_part_only):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert failed_assertions(out) == {"statistics_match"}


class TestAssertionFaults:
    """Faults in one layer each, for the assertions no other test fails."""

    def test_see_saw_that_never_moves_misses_the_complex_target(self, capsys, monkeypatch):
        monkeypatch.setattr(bell, "_sweep", lambda c, obs, states, dims: obs)
        code, out, _ = run(capsys, ["bell", "--scenario", "chsh", "--mode", "complex", "--seed", "3",
                                    "--restarts", "2"])
        assert code == 1
        assert failed_assertions(out) == {"reaches_target_complex"}

    def test_sign_flip_in_the_logical_zero_breaks_the_generator_action(self, capsys, monkeypatch):
        exact = multipartite.logical_states

        def flipped(k):
            basis = exact(k).copy()
            basis[0, np.flatnonzero(basis[0])[-1]] *= -1.0
            return basis

        monkeypatch.setattr(multipartite, "logical_states", flipped)
        code, out, _ = run(capsys, ["stabilizer", "--k", "3"])
        assert code == 1
        assert failed_assertions(out) == {"generator_action"}

    def test_rank_tolerance_above_every_singular_value_breaks_the_codespace_dimension(self, capsys, monkeypatch):
        monkeypatch.setattr(multipartite, "RANK_TOL", 1e3)
        code, out, _ = run(capsys, ["stabilizer", "--k", "3"])
        assert code == 1
        assert failed_assertions(out) == {"codespace_dimension_is_2"}

    @staticmethod
    def patch(monkeypatch, name, fault):
        """Replace an encoding function and the CLI's binding of it."""
        for module in (encoding, cli):
            monkeypatch.setattr(module, name, fault)

    def test_out_of_codespace_leak_breaks_only_norm_preservation(self, capsys, tmp_path, monkeypatch):
        # 5e-6 on |x=0>|00> and on |x=0>|11> is orthogonal to the k = 2 codespace: the norm
        # grows by 2.5e-11, which decoding projects away.
        exact = encoding.encode_state

        def leaky(psi, k=1):
            amps = exact(psi, k).copy()
            amps[[0, 3]] += 5e-6
            return amps

        self.patch(monkeypatch, "encode_state", leaky)
        psi = write(tmp_path, "psi.json", {"dims": [2, 2], "amplitudes": [[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, -0.5]]})
        code, out, _ = run(capsys, ["encode", psi, "--k", "2"])
        assert code == 1
        assert failed_assertions(out) == {"norm_preserved"}

    def test_conjugating_encoder_breaks_only_the_round_trip(self, capsys, circular_state, monkeypatch):
        # Writing -b on the ancilla's |1> encodes conj(psi): same norm, wrong decoding.
        exact = encoding.encode_state

        def conjugating(psi, k=1):
            return exact(psi, k) * np.tile([1.0, -1.0], psi.dim)

        self.patch(monkeypatch, "encode_state", conjugating)
        code, out, _ = run(capsys, ["encode", circular_state])
        assert code == 1
        assert failed_assertions(out) == {"round_trip"}

    def test_complex_probabilities_without_the_conjugate_are_not_normalized(self, capsys, circular_state,
                                                                            z_basis_povm, monkeypatch):
        # psi^T E psi in place of <psi|E|psi> gives +-1/2 on (|0> + i|1>)/sqrt2: a sum of 0.
        def unconjugated(state, povm):
            v = state.amplitudes
            return np.array([float(np.dot(v, e @ v).real) for e in povm.elements])

        self.patch(monkeypatch, "povm_probabilities", unconjugated)
        code, out, _ = run(capsys, ["measure", circular_state, z_basis_povm])
        assert code == 1
        assert failed_assertions(out) == {"encoded_matches_complex", "complex_normalized"}

    def test_encoded_density_without_its_half_is_not_normalized(self, capsys, tmp_path, z_basis_povm,
                                                                  monkeypatch):
        # The operator encoding of rho has trace 2; encode_density halves it.
        self.patch(monkeypatch, "encode_density", lambda rho: encoding.encode_operator(rho.matrix))
        rho = write(tmp_path, "rho.json", matrix_obj([[0.75, 0.25j], [-0.25j, 0.25]]))
        code, out, _ = run(capsys, ["measure", rho, z_basis_povm])
        assert code == 1
        assert failed_assertions(out) == {"encoded_matches_complex", "encoded_normalized"}


class TestOverflowingMatrixEntry:
    """A literal such as 1e400 parses to inf; the parser names its field before any layer sees it."""

    def run_with_overflow(self, tmp_path, argv, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj).replace("12345.5", "1e400"))
        argv = [str(path) if a == name else a for a in argv]
        return subprocess.run([sys.executable, "-m", "realsim", *argv], capture_output=True, text=True)

    def assert_rejected(self, proc, field):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and f"{field} must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_scenario_observable(self, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        bad = matrix_obj(np.diag([12345.5, -1.0]))
        obj = {
            "parties": 2,
            "settings_per_party": [1, 1],
            "observables": [[z], [bad]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}],
            "classical_bound": 1.0,
        }
        proc = self.run_with_overflow(tmp_path, ["bell", "--scenario-file", "s.json", "--seed", "1"], "s.json", obj)
        self.assert_rejected(proc, "s.json.observables[1][0].entries[0]")

    def test_povm_element(self, tmp_path, circular_state):
        obj = {"elements": [matrix_obj(np.diag([1.0, 0.0])), matrix_obj([[0.0, 0.0], [0.0, 1.0 + 12345.5j]])]}
        proc = self.run_with_overflow(tmp_path, ["measure", circular_state, "p.json"], "p.json", obj)
        self.assert_rejected(proc, "p.json.elements[1].entries[3]")

    def test_state_amplitude(self, tmp_path):
        obj = {"dims": [2], "amplitudes": [[S, 0.0], [0.0, 12345.5]]}
        proc = self.run_with_overflow(tmp_path, ["encode", "v.json"], "v.json", obj)
        self.assert_rejected(proc, "v.json.amplitudes[1]")


class TestUnreadableFiles:
    """A file json cannot read as text or as a tree is rejected with one line naming it, in a fresh process."""

    CONTENTS = {
        # json's parser recurses once per nested list, so this many raise RecursionError.
        "deep": ("[" * 100000).encode(),
        "non_utf8": b'{"dims": [1], "amplitudes": [[1.0, 0.0]]}\xff',
    }
    MESSAGES = {"deep": "JSON nested too deeply to parse", "non_utf8": "not UTF-8 text at byte 41: invalid start byte"}

    @pytest.mark.parametrize("content", sorted(CONTENTS))
    @pytest.mark.parametrize("argv", [
        ["encode", "BAD"], ["evolve", "BAD", "STATE"], ["evolve", "HAM", "BAD"], ["measure", "BAD", "POVM"],
        ["measure", "STATE", "BAD"], ["bell", "--scenario-file", "BAD", "--seed", "1"], ["selftest", "BAD"],
    ], ids=lambda argv: "_".join(a.lower().lstrip("-") for a in argv if not a.isdigit()))
    def test_rejected_naming_the_file(self, tmp_path, circular_state, z_basis_povm, content, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.CONTENTS[content])
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        files = {"BAD": str(bad), "STATE": circular_state, "POVM": z_basis_povm, "HAM": ham}
        proc = subprocess.run([sys.executable, "-m", "realsim", *[files.get(a, a) for a in argv]],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {bad}: {self.MESSAGES[content]}\n"


class TestHugeFiniteEntries:
    """Entries near the largest double are finite but overflow a square or a sum; no numpy warning reaches stderr."""

    def run_without_warnings(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run(capsys, argv)

    def test_state_amplitude(self, capsys, tmp_path):
        psi = write(tmp_path, "psi.json", {"dims": [2], "amplitudes": [[1e300, 0.0], [0.5, 0.0]]})
        code, out, err = self.run_without_warnings(capsys, ["encode", psi])
        assert (code, out) == (2, "")
        assert err == "error: state norm inf is not 1 within 1e-10; inputs are never renormalized\n"

    @pytest.mark.parametrize("gate", [[[1e300, 0.0], [0.0, 1.0]], [[-1e300, 1e300], [1e300, 1e300]]])
    def test_selftest_gate(self, capsys, tmp_path, gate):
        code, out, err = self.run_without_warnings(capsys, ["selftest", write(tmp_path, "g.json", matrix_obj(gate))])
        assert (code, out) == (2, "")
        assert "must be unitary" in err

    @pytest.fixture
    def huge_coefficient(self, tmp_path):
        z = matrix_obj(np.diag([1.0, -1.0]))
        return write(tmp_path, "s.json", {
            "parties": 2, "settings_per_party": [1, 1], "observables": [[z], [z]],
            "coefficients": [{"settings": [0, 0], "value": 1e308}], "classical_bound": 1.0,
        })

    def test_bell_coefficient(self, capsys, huge_coefficient):
        # Both modes reach about 1e308.  Whether they differ depends on how the winning restart's
        # observables round, so the outcome depends on the seed: at seed 3 the two modes differ in
        # their last bits, and at that scale the difference dwarfs the absolute agreement tolerance.
        code, out, err = self.run_without_warnings(
            capsys, ["bell", "--scenario-file", huge_coefficient, "--seed", "3", "--restarts", "2"])
        assert (code, err) == (1, "")
        assert failed_assertions(out) == {"modes_agree"}

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_bell_coefficient_fails_at_most_mode_agreement(self, capsys, huge_coefficient, seed):
        code, out, err = self.run_without_warnings(
            capsys, ["bell", "--scenario-file", huge_coefficient, "--seed", str(seed), "--restarts", "2"])
        assert code in (0, 1)
        assert err == ""
        assert failed_assertions(out) <= {"modes_agree"}

    def test_density_trace(self, capsys, tmp_path, z_basis_povm):
        rho = write(tmp_path, "rho.json", matrix_obj(np.diag([1.7e308, 1.7e308])))
        code, out, err = self.run_without_warnings(capsys, ["measure", rho, z_basis_povm])
        assert (code, out) == (2, "")
        assert err == "error: density matrix trace (inf+0j) is not 1\n"

    def test_povm_completeness(self, capsys, tmp_path, circular_state):
        povm = write(tmp_path, "p.json", {"elements": [matrix_obj(np.diag([1.7e308, 0.0]))] * 2})
        code, out, err = self.run_without_warnings(capsys, ["measure", circular_state, povm])
        assert (code, out) == (2, "")
        assert err == "error: POVM elements do not sum to the identity\n"

    @pytest.mark.parametrize("h, argv, message", [
        # eigh returns an infinite eigenvalue, so t*w is NaN at t = 0
        ([[1.7e308, 1.7e308], [1.7e308, 1.7e308]], [], "phases t*w of the spectrum are not finite at t=0.0"),
        # finite eigenvalues, but t*w overflows once t exceeds about 1.06
        (np.diag([1.7e308, -1.7e308]), ["--t-max", "5"], "phases t*w of the spectrum are not finite at t=2.5"),
        # finite phases, but the squarings of the dense exponential of the generator overflow
        (np.full((2, 2), 1e300), ["--t-max", "1"], "dense exponential of the generator is not finite at t=1.0"),
        (np.full((2, 2), 1e300), ["--t-max", "5"], "dense exponential of the generator is not finite at t=5.0"),
    ], ids=["infinite_eigenvalue", "phase_overflow", "dense_overflow_t1", "dense_overflow_t5"])
    def test_evolve_phases(self, capsys, tmp_path, circular_state, h, argv, message):
        ham = write(tmp_path, "h.json", matrix_obj(h))
        code, out, err = self.run_without_warnings(capsys, ["evolve", ham, circular_state, "--steps", "3", *argv])
        assert (code, out) == (2, "")
        assert err == f"error: dynamics: {message}\n"


class TestTolFlag:
    def test_evolve_reports_the_tolerance_it_is_given(self, capsys, tmp_path, circular_state):
        ham = write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        code, out, _ = run(capsys, ["evolve", ham, circular_state, "--steps", "3", "--tol", "1e-9"])
        assert code == 0
        tolerances = {a["name"]: a["tolerance"] for a in report_of(out)["assertions"]}
        assert tolerances == {"propagator_orthogonal": 1e-11, "matches_complex_evolution": 1e-9,
                              "matches_dense_expm": 1e-9}

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("joined", [False, True], ids=["space", "equals"])
    def test_non_finite_tol_is_rejected_before_any_file_is_read(self, capsys, tmp_path, value, joined):
        missing = str(tmp_path / "missing.json")
        tol = [f"--tol={value}"] if joined else ["--tol", value]
        code, out, err = run(capsys, ["evolve", missing, missing, *tol])
        assert (code, out) == (2, "")
        assert err == f"error: --tol must be finite, got {value}\n"

    @pytest.mark.parametrize("argv", [
        ["encode", "STATE"], ["measure", "STATE", "POVM"], ["bell", "--seed", "1"], ["selftest"],
        ["stabilizer", "--k", "3"],
    ])
    def test_no_other_subcommand_takes_tol(self, capsys, circular_state, z_basis_povm, argv):
        argv = [{"STATE": circular_state, "POVM": z_basis_povm}.get(a, a) for a in argv]
        code, out, err = run(capsys, [*argv, "--tol", "1e-9"])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err and "usage:" in err
        assert "Traceback" not in err


class TestDiagnostics:
    def test_verbose_table_goes_to_stderr(self, capsys, circular_state):
        code, out, err = run(capsys, ["encode", circular_state, "--verbose"])
        assert code == 0
        json.loads(out)
        assert "PASS" in err

    def test_module_entry_point(self, tmp_path):
        state = write(tmp_path, "state.json", {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]})
        proc = subprocess.run(
            [sys.executable, "-m", "realsim", "encode", state],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "encode"

    def test_reused_parser_prints_what_fresh_processes_print(self, tmp_path, monkeypatch, capsys):
        state = write(tmp_path, "state.json", {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]})
        missing = str(tmp_path / "missing.json")
        sequence = [
            ["--no-such-flag"],
            ["--help"],
            ["evolve", "--help"],
            ["encode", missing],
            ["bell"],
            ["stabilizer", "--k", "9"],
            ["encode", state],
            ["stabilizer", "--k", "3"],
            ["--no-such-flag"],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        in_process = [run(capsys, argv) for argv in sequence]
        assert cli.build_parser() is cli.build_parser()

        src = pathlib.Path(realsim.__file__).parents[1]
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        for argv, (code, out, err) in zip(sequence, in_process):
            proc = subprocess.run([sys.executable, "-m", "realsim", *argv], capture_output=True, text=True, env=env)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert [code for code, _, _ in in_process] == [2, 0, 0, 2, 2, 2, 0, 0, 2]

    def test_no_command_imports_scipy(self, tmp_path):
        write(tmp_path, "state.json", {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]})
        write(tmp_path, "povm.json", {"elements": [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0]))]})
        write(tmp_path, "ham.json", matrix_obj(np.diag([1.0, -1.0])))
        script = """
import contextlib, io, json, sys
import realsim
from realsim.cli import main

def loaded():
    return [name for name in ("scipy", "dataclasses") if name in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    return loaded()

jobs = [["encode", "state.json"], ["measure", "state.json", "povm.json"], ["bell", "--seed", "1", "--restarts", "2"],
        ["selftest"], ["stabilizer", "--k", "3"]]
print(json.dumps([loaded()] + [run(argv) for argv in jobs] + [run(["evolve", "ham.json", "state.json", "--steps", "3"])]))
"""
        src = pathlib.Path(realsim.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        # scipy is the tests' oracle only; evolve's dense expm check is the package's own.  The records and
        # containers are plain classes and named tuples, so no import or command loads dataclasses either.
        assert json.loads(proc.stdout) == [[]] * 7



def _operator(rng, n, kind):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        return (g + g.conj().T) / 2.0
    u = np.linalg.qr(g)[0]
    if kind == "unitary":
        return u
    if kind == "observable":
        return (u * rng.choice([-1.0, 1.0], n)) @ u.conj().T
    return g


def _vector_obj(rng, dims):
    v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    v = v / np.linalg.norm(v)
    return {"dims": list(dims), "amplitudes": [[float(z.real), float(z.imag)] for z in v]}


def kind(usual):
    """Mostly the kind of matrix the file needs, sometimes another."""
    return st.one_of(st.just(usual), st.sampled_from(["hermitian", "unitary", "observable", "arbitrary"]))


EXTREMES = st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308, 10 ** 400, -(10 ** 400), 5e-324, 2 ** 63])
JUNK = st.one_of(
    EXTREMES,
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0), st.text(max_size=2),
    st.sampled_from([[], {}, [0.5], [[0.5, 0.0]], float("nan")]),
)


@st.composite
def job_files(draw, command):
    """Well-formed job files for one command (mostly), and its command line."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = draw(st.sampled_from([[1], [2], [3], [4], [2, 2]]))
    n = int(np.prod(dims))
    k = ["--k", str(draw(st.integers(1, 2)))]
    if command == "encode":
        return {"state.json": _vector_obj(rng, dims)}, ["encode", "state.json", *k]
    if command == "evolve":
        h = _operator(rng, draw(st.one_of(st.just(n), st.integers(1, 4))), draw(kind("hermitian")))
        files = {"h.json": matrix_obj(h), "state.json": _vector_obj(rng, dims)}
        options = []
        for flag, values in (("--t-max", ["1", "5", "-1e-3", "inf", "-inf", "nan"]),
                             ("--tol", ["1e-10", "0", "-1e-3", "inf", "-inf", "nan"])):
            value = draw(st.sampled_from(values))
            options += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
        return files, ["evolve", "h.json", "state.json", "--steps", "3", *options, *k]
    if command == "measure":
        if draw(st.booleans()):
            state = _vector_obj(rng, dims)
        else:
            g = _operator(rng, n, draw(kind("arbitrary")))
            state = matrix_obj(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        u = _operator(rng, n, draw(kind("unitary")))
        povm = {"elements": [matrix_obj(np.outer(u[:, i], u[:, i].conj())) for i in range(n)]}
        return {"state.json": state, "povm.json": povm}, ["measure", "state.json", "povm.json"]
    if command == "bell":
        settings_per_party = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        scenario = {
            "parties": len(settings_per_party),
            "settings_per_party": settings_per_party,
            "observables": [[matrix_obj(_operator(rng, 2, draw(kind("observable")))) for _ in range(s)]
                            for s in settings_per_party],
            "coefficients": [{"settings": [0] * len(settings_per_party), "value": draw(st.floats(-2.0, 2.0))}],
            "classical_bound": 1.0,
            "quantum_target": 1.0,
        }
        return {"scenario.json": scenario}, ["bell", "--scenario-file", "scenario.json", "--seed", "1",
                                            "--restarts", "2", "--iterations", "4"]
    gate = _operator(rng, draw(st.sampled_from([2, 2, 1, 3])), draw(kind("unitary")))
    return {"gate.json": matrix_obj(gate)}, ["selftest", "gate.json"]


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def malformed(draw, files):
    """The files with up to three keys or list items deleted, added or given junk values."""
    files = copy.deepcopy(files)

    def junk():  # a copy: sampled_from hands out the same list each time, and it may be mutated below
        return copy.deepcopy(draw(JUNK))

    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(files)))
        path = draw(st.sampled_from(list(_paths(files[name]))))
        if not path:
            files[name] = junk()
            continue
        parent = files[name]
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "replace", "insert"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "replace":
            parent[path[-1]] = junk()
        elif isinstance(parent, dict):
            parent["extra"] = junk()
        else:
            parent.insert(path[-1], junk())
    return files


EDGE = 0.99 * linalg.INPUT_TOL  # just inside the admission bound, with room for the rounding of the checks
PSD_EDGE = 0.99 * linalg.PSD_TOL  # an eigenvalue this far below 0 is just inside the PSD floor


@st.composite
def at_the_admission_edge(draw, command):
    """Job files just inside every admission bound, each off in the direction that moves what is checked most.

    State norms and density traces are 1 +- EDGE.  A Hamiltonian has imaginary diagonal entries at the
    Hermiticity bound and slack on one side of its diagonal only.  A POVM's completeness is off by a
    rank-one term along the state, whose largest entry is EDGE, so the probabilities sum to 1 + EDGE n
    for a uniform state of dimension n.  From dimension 2 up, a density matrix or a POVM element may
    have an eigenvalue of -PSD_EDGE, the trace or completeness kept.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = draw(st.sampled_from([[1], [2], [3], [4], [2, 2], [2, 1, 2]]))
    n = int(np.prod(dims))
    scale = 1.0 + draw(st.sampled_from([-EDGE, EDGE]))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    state = {"dims": dims, "amplitudes": [[z.real, z.imag] for z in (scale * v).tolist()]}
    k = ["--k", str(draw(st.sampled_from(sorted({1, len(dims)}))))]
    if command == "encode":
        return {"state.json": state}, ["encode", "state.json", *k]
    if command == "evolve":
        h = _operator(rng, n, "hermitian")
        h[np.diag_indices(n)] += 1j * (EDGE / 2.0) * rng.choice([-1.0, 1.0], n)
        side = np.triu(np.ones((n, n), dtype=bool), 1)
        h[side if draw(st.booleans()) else side.T] += EDGE * np.exp(2j * np.pi * rng.random(n * (n - 1) // 2))
        t_max = draw(st.sampled_from(["1", "10", "100"]))
        files = {"h.json": matrix_obj(h), "state.json": state}
        return files, ["evolve", "h.json", "state.json", "--t-max", t_max, "--steps", "3", *k]
    if draw(st.booleans()):
        g = _operator(rng, n, "arbitrary")
        rho = 0.9 * np.outer(v, v.conj()) + 0.1 * g @ g.conj().T / np.trace(g @ g.conj().T).real
        if n > 1 and draw(st.booleans()):  # weight moved from the smallest eigenvalue to the largest
            lam, w = np.linalg.eigh(rho)
            rho += (lam[0] + PSD_EDGE) * (np.outer(w[:, -1], w[:, -1].conj()) - np.outer(w[:, 0], w[:, 0].conj()))
        state = matrix_obj(scale * rho)
    u = _operator(rng, n, "unitary")
    elements = [np.outer(u[:, i], u[:, i].conj()) for i in range(n)]
    elements[0] += draw(st.sampled_from([-EDGE, EDGE])) / np.max(np.abs(v)) ** 2 * np.outer(v, v.conj())
    if n > 1 and draw(st.booleans()):  # E1 = u1 u1^dagger - PSD_EDGE u0 u0^dagger, E0 gains what E1 lost
        floor = PSD_EDGE * np.outer(u[:, 0], u[:, 0].conj())
        elements[0] += floor
        elements[1] -= floor
    povm = {"elements": [matrix_obj(e) for e in elements]}
    return {"state.json": state, "povm.json": povm}, ["measure", "state.json", "povm.json"]


OUTSIDE = 2.02 * linalg.INPUT_TOL  # a norm or trace this far from 1 is rejected, with room for the rounding
OUTSIDE_JOBS = {
    "encode": ["encode", "state.json"],
    "evolve": ["evolve", "h.json", "state.json", "--steps", "3"],
    "measure": ["measure", "state.json", "povm.json"],
    "density": ["measure", "density.json", "povm.json"],
    "bell": ["bell", "--scenario-file", "scenario.json", "--seed", "1", "--restarts", "2", "--iterations", "4"],
    "selftest": ["selftest", "gate.json"],
    "stabilizer": ["stabilizer"],
}


@st.composite
def just_outside_the_admission_edge(draw):
    """A job with one input just past one admission bound, and what its one error line says.

    The mirror of at_the_admission_edge: a state norm or density trace of 1 +- OUTSIDE, a POVM whose
    completeness is off by 2 INPUT_TOL, a Hamiltonian, density matrix, POVM element or Bell observable
    just past its Hermiticity bound, a Bell observable just past its +-1 spectrum, a gate just past
    unitarity, a density matrix or POVM element with an eigenvalue of -1.01 PSD_TOL, --steps 1 or one past
    its bound, a --k just outside its range, and a ragged POVM or observable family.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = draw(st.sampled_from([[2], [3], [4], [2, 2]]))
    n = int(np.prod(dims))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    g = _operator(rng, n, "arbitrary")
    rho = 0.9 * np.outer(v, v.conj()) + 0.1 * g @ g.conj().T / np.trace(g @ g.conj().T).real
    u = _operator(rng, n, "unitary")
    elements = [np.outer(u[:, i], u[:, i].conj()) for i in range(n)]
    h = _operator(rng, n, "hermitian")
    gate = _operator(rng, 2, "unitary")
    observables = [[_operator(rng, 2, "observable") for _ in range(2)], [_operator(rng, 2, "observable")]]
    off = (0, 1) if draw(st.booleans()) else (1, 0)  # an off-diagonal entry, moved away from its mirror's conjugate
    phase = np.exp(2j * np.pi * rng.random())
    flags = []
    case = draw(st.sampled_from(["norm", "trace", "completeness", "hermitian", "psd", "unitary", "observable",
                                 "steps", "k", "ragged"]))
    if case == "norm":
        job, message = draw(st.sampled_from(["encode", "evolve", "measure"])), "state norm"
        v *= 1.0 + sign * OUTSIDE
    elif case == "trace":
        job, message = "density", "density matrix trace"
        rho *= 1.0 + sign * OUTSIDE
    elif case == "completeness":
        job, message = "measure", "POVM elements do not sum to the identity"
        elements[0] += sign * 2.0 * linalg.INPUT_TOL / np.max(np.abs(v)) ** 2 * np.outer(v, v.conj())
    elif case == "hermitian":
        job = draw(st.sampled_from(["evolve", "density", "measure"]))
        if job == "evolve":
            message = "Hamiltonian is not Hermitian"
            h[off] += 1.01 * linalg.INPUT_TOL * phase
        elif job == "density":
            message = "density matrix is not Hermitian"
            rho[off] += 1.01 * linalg.INPUT_TOL * phase
        else:
            message = "POVM element is not Hermitian"
            elements[0][off] += 1.01 * linalg.PSD_TOL * phase
    elif case == "psd":
        job = draw(st.sampled_from(["density", "measure"]))
        if job == "density":  # weight moved from the smallest eigenvalue to the largest, past the floor
            message = "density matrix has an eigenvalue below the PSD floor"
            lam, w = np.linalg.eigh(rho)
            rho += (lam[0] + 1.01 * linalg.PSD_TOL) * (np.outer(w[:, -1], w[:, -1].conj())
                                                        - np.outer(w[:, 0], w[:, 0].conj()))
        else:  # E1 = u1 u1^dagger - 1.01 PSD_TOL u0 u0^dagger, E0 gains what E1 lost
            message = "POVM element is not Hermitian with eigenvalues above"
            floor = 1.01 * linalg.PSD_TOL * np.outer(u[:, 0], u[:, 0].conj())
            elements[0] += floor
            elements[1] -= floor
    elif case == "unitary":  # |(1 + s)^2 - 1| is 1.02 INPUT_TOL for s = +-0.51 INPUT_TOL
        job, message = "selftest", "t_gate must be unitary"
        gate *= 1.0 + sign * 0.51 * linalg.INPUT_TOL
    elif case == "observable":
        job, (party, setting) = "bell", draw(st.sampled_from([(0, 0), (0, 1), (1, 0)]))
        if draw(st.booleans()):
            message = "observable is not Hermitian"
            observables[party][setting][off] += 1.01 * linalg.OBSERVABLE_TOL * phase
        else:
            message = "observable eigenvalues must all be +-1"
            observables[party][setting] *= 1.0 + sign * 1.01 * linalg.OBSERVABLE_TOL
    elif case == "steps":  # the last --steps counts
        job = "evolve"
        if draw(st.booleans()):
            message, flags = "steps must be at least 2, got 1", ["--steps", "1"]
        else:  # the first count whose grid holds more than DEFAULT_MAX_DIM^2 encoded amplitudes; nothing is allocated
            k = len(dims)
            most = linalg.DEFAULT_MAX_DIM ** 2 // (n * 2 ** k)
            message = f"steps must be at most {most} for {n} amplitudes at k={k}, got {most + 1}"
            flags = ["--steps", str(most + 1), "--k", str(k)]
    elif case == "k":  # encode and evolve take 1 to 12 ancilla qubits, stabilizer 2 to 6
        job, k = draw(st.sampled_from([("encode", 0), ("encode", 13), ("evolve", 0), ("evolve", 13),
                                       ("stabilizer", 1), ("stabilizer", 7)]))
        message = f"ancilla count k={k} out of range {'[2, 6]' if job == 'stabilizer' else '[1, 12]'}"
        flags = ["--k", str(k)]
    else:
        job = draw(st.sampled_from(["measure", "bell"]))
        if job == "measure":  # one element a dimension larger
            message = f"POVM elements must share one dimension, got {n} and {n + 1}"
            elements[-1] = np.eye(n + 1)
        else:  # party 0's second observable a dimension larger
            message = "party 0 observables must share one dimension, got 2 and 3"
            observables[0][1] = np.diag([1.0, -1.0, 1.0])
    argv = OUTSIDE_JOBS[job] + flags
    files = {
        "state.json": {"dims": dims, "amplitudes": [[z.real, z.imag] for z in v.tolist()]},
        "density.json": matrix_obj(rho),
        "povm.json": {"elements": [matrix_obj(e) for e in elements]},
        "h.json": matrix_obj(h),
        "gate.json": matrix_obj(gate),
        "scenario.json": {"parties": 2, "settings_per_party": [2, 1],
                          "observables": [[matrix_obj(o) for o in family] for family in observables],
                          "coefficients": [{"settings": [0, 0], "value": 1.0}], "classical_bound": 1.0},
    }
    return {name: obj for name, obj in files.items() if name in argv}, argv, message


# One valid job per command, every number in its files and flags written as the type it is read as.
_STATE, _Z_OBJ = {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]}, matrix_obj(np.diag([1.0, -1.0]))
NUMBER_JOBS = {
    "encode": ({"state.json": _STATE}, ["encode", "state.json", "--k", "1"]),
    "evolve": ({"h.json": _Z_OBJ, "state.json": _STATE},
               ["evolve", "h.json", "state.json", "--t-max", "1.0", "--steps", "3", "--k", "1", "--tol", "1e-10"]),
    "measure": ({"state.json": _STATE,
                 "povm.json": {"elements": [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0]))]}},
                ["measure", "state.json", "povm.json"]),
    "bell": ({"scenario.json": {"parties": 2, "settings_per_party": [1, 1], "observables": [[_Z_OBJ], [_Z_OBJ]],
                                "coefficients": [{"settings": [0, 0], "value": 1.0}],
                                "classical_bound": 1.0, "quantum_target": 1.0}},
             ["bell", "--scenario-file", "scenario.json", "--restarts", "2", "--seed", "1", "--iterations", "4"]),
    "selftest": ({"gate.json": matrix_obj(np.diag([1.0, 1.0j]))}, ["selftest", "gate.json"]),
    "stabilizer": ({}, ["stabilizer", "--k", "3"]),
}

# What the library calls a field or flag, where its errors may name it so.
LIBRARY_NAMES = {"--k": "ancilla count k", "settings": "coefficient key"}
# Counts and seeds with no upper bound: an integer beyond the double range is a valid value there.
UNBOUNDED = {"--restarts", "--seed", "--iterations"}
INFINITE = -7.0987654321e-07  # a marker replaced by the literal 1e999, which json parses to inf


def _numbers(files, argv):
    """Every number a job reads: (its field's key or its flag, (file name, *JSON path) or flag, read as an int)."""
    for name, obj in files.items():
        for path in _paths(obj):
            leaf = functools.reduce(lambda node, key: node[key], path, obj)
            if type(leaf) in (int, float):
                yield [key for key in path if isinstance(key, str)][-1], (name, *path), type(leaf) is int
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--") and value[0].isdigit():
            yield flag, flag, value.isdigit()


# Each (command, field key or flag) once, so that a matrix's many entries weigh no more than one flag.
NUMBER_FIELDS = sorted({(command, key) for command, job in NUMBER_JOBS.items() for key, _, _ in _numbers(*job)})


@st.composite
def just_outside_the_number_edge(draw):
    """A job with one number in a file or flag replaced by a value no reader takes, and the names that may call it.

    The value is a bool, a non-integral float where an int is read, 1e999, an integer beyond the
    double range, or a negative seed.
    """
    command, key = draw(st.sampled_from(NUMBER_FIELDS))
    files, argv = copy.deepcopy(NUMBER_JOBS[command])
    where, reads_int = draw(st.sampled_from([(w, i) for k, w, i in _numbers(files, argv) if k == key]))
    kinds = ["bool", "1e999"] + ["non_integral"] * reads_int + ["beyond"] * (key not in UNBOUNDED)
    kind = draw(st.sampled_from(kinds + ["negative"] * (key == "--seed")))
    non_integral = draw(st.integers(-9, 9)) + draw(st.floats(0.01, 0.99))
    beyond = draw(st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1024]))
    if isinstance(where, str):
        argv[argv.index(where) + 1] = {
            "bool": draw(st.sampled_from(["true", "True", "false"])), "1e999": "1e999",
            "non_integral": repr(non_integral), "beyond": str(beyond), "negative": str(draw(st.integers(max_value=-1))),
        }[kind]
    else:
        name, *path = where
        value = {"bool": draw(st.booleans()), "1e999": INFINITE, "non_integral": non_integral, "beyond": beyond}[kind]
        functools.reduce(lambda node, key: node[key], path[:-1], files[name])[path[-1]] = value
        files[name] = json.dumps(files[name]).replace(repr(INFINITE), "1e999")
    return files, argv, (key, LIBRARY_NAMES.get(key, key.lstrip("-").replace("-", "_")))


def run_job(files, argv):
    """Write the job files, JSON text or objects, in a fresh directory and run the command line on them.

    Returns (code, stdout, stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            (pathlib.Path(tmp) / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
        argv = [str(pathlib.Path(tmp) / a) if a in files else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    """Every job file, however malformed, ends in exit 0, 1 or 2 without a traceback."""

    @pytest.mark.parametrize("command", ["encode", "evolve", "measure", "bell", "selftest"])
    @settings(max_examples=20, deadline=timedelta(seconds=2))
    @given(data=st.data())
    def test_malformed_job_files(self, command, data):
        files, argv = data.draw(job_files(command))
        code, out, err = run_job(data.draw(malformed(files)), argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code in (0, 1):
            json.loads(out)

    @settings(max_examples=100, deadline=timedelta(seconds=2))
    @given(job=just_outside_the_number_edge())
    def test_number_just_outside_the_edge_names_its_field_or_flag(self, job):
        files, argv, names = job
        code, out, err = run_job(files, argv)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, out) == (2, ""), err
        assert len(errors) == 1 and any(name in errors[0] for name in names) and "Traceback" not in err, (names, err)


    @settings(max_examples=100, deadline=timedelta(seconds=2))
    @given(job=just_outside_the_admission_edge())
    def test_input_just_outside_the_admission_edge_is_rejected(self, job):
        files, argv, message = job
        code, out, err = run_job(files, argv)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, out) == (2, ""), err
        assert len(errors) == 1 and message in errors[0] and "Traceback" not in err, (message, err)


class TestAdmissionEdge:
    """An input just inside every admission bound passes every assertion: nothing computed from it is admitted again."""

    @pytest.mark.parametrize("command", ["encode", "evolve", "measure"])
    @settings(max_examples=20, deadline=timedelta(seconds=2))
    @given(data=st.data())
    def test_every_assertion_passes(self, command, data):
        code, out, err = run_job(*data.draw(at_the_admission_edge(command)))
        assert (code, err) == (0, ""), failed_assertions(out) if out else err

    @pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 2)])
    @pytest.mark.parametrize("operand", ["povm", "density"])
    def test_eigenvalue_at_the_psd_floor(self, operand, factor, code):
        # E0 = diag(1, -factor PSD_TOL) and E1 = I - E0, or rho = diag(1 + factor PSD_TOL, -factor PSD_TOL).
        low = factor * linalg.PSD_TOL
        if operand == "povm":
            state = {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]}
            povm = {"elements": [matrix_obj(np.diag([1.0, -low])), matrix_obj(np.diag([0.0, 1.0 + low]))]}
            message = f"error: POVM element is not Hermitian with eigenvalues above -{linalg.PSD_TOL}\n"
        else:
            state = matrix_obj(np.diag([1.0 + low, -low]))
            povm = {"elements": [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0]))]}
            message = f"error: density matrix has an eigenvalue below the PSD floor -{linalg.PSD_TOL}\n"
        got, out, err = run_job({"state.json": state, "povm.json": povm}, ["measure", "state.json", "povm.json"])
        assert (got, err) == (code, "" if code == 0 else message), failed_assertions(out) if out else err


class TestInputFilesReadOnce:
    """formats reads each input file once, and the digest is of the bytes it parsed."""

    COMMANDS = ["encode", "evolve", "measure", "bell", "selftest"]

    @staticmethod
    def job_in(tmp_path, command):
        files, argv = NUMBER_JOBS[command]
        paths = {name: write(tmp_path, name, obj) for name, obj in files.items()}
        return paths, [paths.get(a, a) for a in argv]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_input_file_is_opened_once(self, capsys, tmp_path, monkeypatch, command):
        paths, argv = self.job_in(tmp_path, command)
        opened = []
        builtin_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code, _, err = run(capsys, argv)
        monkeypatch.undo()
        assert (code, err) == (0, "")
        assert sorted(p for p in opened if p in paths.values()) == sorted(paths.values())

    @pytest.mark.parametrize("command, call", [("encode", "encode_state"), ("evolve", "trajectory"),
                                               ("measure", "povm_probabilities"), ("bell", "optimize_bell"),
                                               ("selftest", "selftest_counterexample")])
    def test_a_file_rewritten_after_it_was_parsed_keeps_the_digest_of_what_was_parsed(
            self, capsys, tmp_path, monkeypatch, command, call):
        paths, argv = self.job_in(tmp_path, command)
        clean = run(capsys, argv)
        library_call = getattr(cli, call)

        def rewrite_then_call(*args, **kwargs):
            for path in paths.values():
                pathlib.Path(path).write_text("rewritten while the job ran")
            return library_call(*args, **kwargs)

        monkeypatch.setattr(cli, call, rewrite_then_call)
        assert run(capsys, argv) == clean
        assert all(pathlib.Path(path).read_text() == "rewritten while the job ran" for path in paths.values())

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_keep_the_json_error_position(self, capsys, tmp_path, newline):
        # Text mode reads CRLF and a lone CR as LF, and json counts lines and columns in that text.
        path = tmp_path / "state.json"
        lines = ["{", '  "dims": [2],', '  "amplitudes": [[1.0, 0.0],, [0.0, 1.0]]', "}"]
        path.write_bytes(newline.join(lines).encode())
        code, out, err = run(capsys, ["encode", str(path)])
        assert (code, out, err) == (2, "", f"error: {path}: malformed JSON at line 3 column 29: Expecting value\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_non_utf8_byte_keeps_its_offset_in_the_file(self, capsys, tmp_path, newline):
        # The offset counts the bytes on disk, line ends included as written.
        text = newline.join(["{", '  "dims": [1],', '  "amplitudes": [[1.0, 0.0]]', "}"]).encode()
        path = tmp_path / "state.json"
        path.write_bytes(text[:-1] + b"\xff}")
        code, out, err = run(capsys, ["encode", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text at byte {len(text) - 1}: invalid start byte\n"


def test_cli_uses_neither_a_private_name_nor_the_file_error_of_another_module():
    # FormatError means a file broke the JSON schema, so the CLI's own flags raise ValueError; and the CLI reaches
    # the library through public names only.  Read from the source: imports and attributes of imported modules.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
    names = [alias.name for node in imports for alias in node.names]
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert "FormatError" not in names
    assert [name for name in names if name.startswith("_") and not name.endswith("__")] == []
