"""Tests of the benchmark itself: generator, oracle and tracer.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import jobs  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_job  # noqa: E402

from realsim import cli  # noqa: E402

# Result fields whose every number the oracle recomputes, per command.
CHECKED = {
    "evolve": ("times", "final_complex", "final_encoded"),
    "measure": ("probabilities", "encoded_probabilities"),
    "encode": ("encoded_amplitudes",),
    "bell": ("value_complex", "value_real_encoded"),
    "selftest": ("statistics_logical", "statistics_simulated", "witness_state_b", "witness_real_part",
                 "witness_modulus", "product_state_gap"),
    "stabilizer": (),
}


def _files(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _one_job_per_kind(workload: str, tmp_path) -> list:
    """The first job of each kind; it runs in the workload's own directory."""
    outdir = tmp_path / workload
    outdir.mkdir()
    _, cycle = jobs.build(workload, 11, str(outdir))
    first = {}
    for job in cycle:
        first.setdefault(job.kind, job)
    return [(outdir, job) for job in first.values()]


def _float_paths(value, path=()):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _float_paths(item, path + (i,))


def _corrupted(report: dict, field: str, path: tuple) -> str:
    copy = json.loads(json.dumps(report))
    if not path:
        copy["results"][field] += 1e-6 * (1.0 + abs(copy["results"][field]))
    else:
        holder = copy["results"][field]
        for i in path[:-1]:
            holder = holder[i]
        holder[path[-1]] += 1e-6 * (1.0 + abs(holder[path[-1]]))
    return json.dumps(copy)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = jobs.build(workload, 5, str(dirs[0]))
    again = jobs.build(workload, 5, str(dirs[1]))
    other = jobs.build(workload, 6, str(dirs[2]))

    def argvs(built):
        warmup, cycle = built
        return [warmup.argv] + [job.argv for job in cycle]

    assert _files(dirs[0]) == _files(dirs[1])
    assert argvs(first) == argvs(again)
    assert (_files(dirs[0]), argvs(first)) != (_files(dirs[2]), argvs(other))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_oracle_fails_a_report_with_one_corrupted_float(workload, tmp_path, monkeypatch):
    for outdir, job in _one_job_per_kind(workload, tmp_path):
        monkeypatch.chdir(outdir)
        rc, stdout, _, _ = run_job(cli, job.argv)
        assert oracle.check(job, stdout, rc) is None, job.id
        assert oracle.check(job, stdout, 1) is not None
        report = json.loads(stdout)
        fields = CHECKED[job.argv[0]]
        for field in fields:
            paths = list(_float_paths(report["results"][field]))
            assert paths, field
            for index in np.linspace(0, len(paths) - 1, min(len(paths), 25)).astype(int):
                bad = _corrupted(report, field, paths[index])
                assert oracle.check(job, bad, rc) is not None, (job.id, field, paths[index])
        if not fields:
            report["results"]["fixed_subspace_dim"] += 1
            assert oracle.check(job, json.dumps(report), rc) is not None


def _bindings() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "realsim" or name.startswith("realsim."))
            for attr, value in vars(module).items() if not attr.startswith("_")}


def test_tracer_restores_every_function_and_keeps_reports_identical(tmp_path, monkeypatch):
    picked = [(outdir, job) for workload in jobs.WORKLOADS for outdir, job in _one_job_per_kind(workload, tmp_path)
              if job.kind in ("evolve_n32", "bell_chsh", "selftest_gate", "stabilizer_k6", "encode_n1024")]

    def run_all():
        out = []
        for outdir, job in picked:
            monkeypatch.chdir(outdir)
            out.append(run_job(cli, job.argv)[:3])
        return out

    plain = run_all()
    assert [rc for rc, _, _ in plain] == [0] * len(picked)
    before = _bindings()

    tracer = Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        traced = run_all()
        assert run_job(cli, ["encode", "missing.json"])[0] == 2
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced == plain
    assert tracer.counts["linalg.matexp.calls"] > 0  # bound by name in dynamics, not only in linalg
    assert tracer.function_calls["dynamics.evolve"] == jobs.EVOLVE_STEPS
    assert tracer.counts["formats.errors"] >= 1
    assert all(span is not None for span in tracer.spans)
    assert sum(tracer.self_times().values()) == pytest.approx(
        sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0))


def test_benchmark_json_lists_every_per_layer_metric_a_traced_run_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    empty = {"jobs": 1, "self_s": {}, "counts": {}, "function_calls": {}, "spans": 0,
             "traced_wall_s": 0.0, "untraced_wall_s": 0.0}
    printed = [(name, unit) for name, (_, unit) in run._trace_metrics(empty).items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == printed


def test_job_times_are_rescaled_by_the_kernel_time_around_them():
    import run
    from worker import Calibration

    assert Calibration().seconds() > 0.0
    ref = run.CAL_REF_S
    # A job run while the kernel took twice its reference time is credited half its wall time.
    assert run._reference_seconds([0, 0, "sha", 0.5, 2 * ref, 2 * ref]) == pytest.approx(0.25)
    assert run._reference_seconds([0, 0, "sha", 0.5, ref, 3 * ref]) == pytest.approx(0.25)
    assert run._reference_seconds([0, 0, "sha", 0.5, ref, ref]) == pytest.approx(0.5)
