"""realsim benchmark: seeded CLI job streams, measured end to end or traced.

    python3 bench/run.py --workload wide_io --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

Run from the repository root; realsim is imported from ./src.  Each run
writes the workload's job files, launches fresh worker processes to
measure set-up, lets one of them run the job cycle in a closed loop,
checks every distinct report against the numpy oracle, and prints a
summary followed by one JSON result line.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import jobs as jobgen
import oracle
from tracer import GROUPS, LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
BENCH = os.path.dirname(os.path.abspath(__file__))

SETUP_LAUNCHES = 9   # fresh processes per run; setup_s is their median
MIN_JOBS = 100       # so at least ten timed jobs lie beyond the 90th percentile
TIME_LIMIT_S = 170   # a run that takes longer is stopped and fails
CAL_REF_S = 0.0015   # calibration time (worker.Calibration) at the reference speed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _interrupted(signum, frame):
    raise BenchError(f"stopped by signal {signal.Signals(signum).name}")


def _reference_seconds(record: list) -> float:
    """A job's wall time rescaled to the reference speed: the speed at which
    the calibration timed just before and just after the job takes CAL_REF_S."""
    _, _, _, seconds, cal_before, cal_after = record
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workers:
    """Worker processes of one run; every one is stopped and waited for."""

    def __init__(self, workdir: str, argv: list):
        self.workdir = workdir
        self.argv = argv
        self.procs = []

    def launch(self) -> tuple:
        """Start a worker and wait for its ready line: (process, ready, seconds)."""
        env = dict(os.environ, **BLAS_ENV)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), *self.argv],
                                cwd=self.workdir, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
        self.procs.append(proc)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if not line:
            proc.wait()
            raise BenchError(f"worker exited with code {proc.returncode} before it was ready")
        return proc, json.loads(line), elapsed

    def finish(self, proc, command: str) -> None:
        proc.stdin.write(command + "\n")
        proc.stdin.flush()
        if command == "run":
            line = proc.stdout.readline()
            if not line:
                proc.wait()
                raise BenchError(f"worker exited with code {proc.returncode} during the run")
        proc.stdin.close()
        proc.stdout.close()
        if proc.wait() != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _write_plan(workdir: str, warmup, cycle) -> None:
    with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump({"warmup": warmup.argv, "cycle": [job.argv for job in cycle]}, fh)


def _label(job) -> str:
    return f"{job.id} ({job.kind}: {' '.join(job.argv)})"


def _verify(warmup, cycle, result: dict, launch_shas: list) -> tuple:
    """Oracle check of every distinct report; returns ([(what, why)], failed job count)."""
    failures = []
    warm = result["warmup"]
    reason = oracle.check(warmup, warm["stdout"], warm["rc"])
    if reason is None and len(set(launch_shas)) != 1:
        reason = "warm-up report differs between fresh processes"
    if reason is not None:
        failures.append((_label(warmup), reason))
    failed = len(launch_shas) if reason else 0

    bad = {}
    for index, out in result["outputs"].items():
        reason = oracle.check(cycle[int(index)], out["stdout"], out["rc"])
        if reason is not None:
            bad[int(index)] = reason
    for index, rc, sha, *_ in result["records"]:
        if index not in bad and sha != result["outputs"][str(index)]["sha"]:
            bad[index] = "report differs between repeats of the same job"
    trace = result.get("trace")
    if trace:
        for position in trace["differing_jobs"]:
            bad.setdefault(result["records"][position][0], "report differs between traced and untraced runs")
    for index, reason in sorted(bad.items()):
        failures.append((_label(cycle[index]), reason))
    failed += sum(1 for index, *_ in result["records"] if index in bad)
    return failures, failed


def _trace_metrics(trace: dict) -> dict:
    n = trace["jobs"]
    self_s, counts = trace["self_s"], trace["counts"]
    per_job = {}
    for group in GROUPS:
        per_job[f"{group}.self_s"] = (self_s.get(group, 0.0) / n, "s/job")
    for group in ("encoding", "multipartite.lift", "linalg.matexp", "linalg.kron"):
        per_job[f"{group}.calls"] = (counts.get(f"{group}.calls", 0) / n, "count/job")
    per_job["dynamics.evolve.calls"] = (trace["function_calls"].get("dynamics.evolve", 0) / n, "count/job")
    for key, unit in (("formats.parse.bytes_in", "B/job"), ("formats.dumps.bytes_out", "B/job"),
                      ("multipartite.lift.bytes", "B/job"), ("linalg.kron.bytes", "B/job"),
                      ("linalg.matexp.work_n3", "n3/job"), ("applications.bell.trace_len", "count/job")):
        per_job[key] = (counts.get(key, 0) / n, unit)
    for layer in LAYERS:
        per_job[f"{layer}.errors"] = (counts.get(f"{layer}.errors", 0), "count")
    per_job["trace.overhead_s"] = ((trace["traced_wall_s"] - trace["untraced_wall_s"]) / n, "s/job")
    per_job["trace.spans"] = (trace["spans"] / n, "count/job")
    return per_job


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
    argv = ["--root", ROOT, "--seconds", repr(seconds), "--min-jobs", str(MIN_JOBS), "--trace", str(trace),
            "--spans", spans_path]
    workers = Workers(workdir, argv)
    setups, shas = [], []

    def set_up(command: str) -> None:
        proc, ready, elapsed = workers.launch()
        setups.append(elapsed)
        shas.append(ready["warmup_sha"])
        workers.finish(proc, command)

    try:
        warmup, cycle = jobgen.build(workload, seed, workdir)
        _write_plan(workdir, warmup, cycle)
        # Half the set-ups before the timed loop and half after it, so that
        # their median does not hang on one stretch of machine load.
        for _ in range(SETUP_LAUNCHES // 2):
            set_up("quit")
        set_up("run")
        for _ in range(SETUP_LAUNCHES // 2):
            set_up("quit")
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        workers.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    failures, failed = _verify(warmup, cycle, result, shas)
    attempted = len(result["records"]) + len(setups)
    out = {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
           "failures": failures, "facts": result["facts"], "cycle": cycle}
    if trace:
        t = result["trace"]
        if t["still_patched"]:
            failures.append(("tracer", f"functions left patched after tracing: {t['still_patched']}"))
            out["failed"] += 1
        out["trace"] = t
        out["metrics"] = _trace_metrics(t)
        out["spans_path"] = spans_path
        return out

    records = result["records"]
    scaled = [_reference_seconds(r) for r in records]
    # Each distinct job is credited the median of its repeats in this run, at
    # reference speed.
    repeats = {}
    for (index, *_), seconds_taken in zip(records, scaled):
        repeats.setdefault(index, []).append(seconds_taken)
    out["metrics"] = {
        "jobs_per_s": (len(cycle) / sum(statistics.median(v) for v in repeats.values()), "1/s"),
        "job_p50_s": (_percentile(scaled, 0.5), "s"),
        "job_p90_s": (_percentile(scaled, 0.9), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "pass_share": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    raw = [r[3] for r in records]
    cal = [r[4] for r in records]
    out["raw"] = {"jobs": len(raw), "repeats": len(records) // len(cycle), "jobs_per_s": len(raw) / sum(raw),
                  "p50": _percentile(raw, 0.5), "p90": _percentile(raw, 0.9),
                  "cal_min": min(cal), "cal_p50": _percentile(cal, 0.5), "cal_max": max(cal)}
    out["setups"] = setups
    return out


def _print_summary(out: dict, trace: int) -> None:
    facts = out["facts"]
    kinds = {}
    for job in out["cycle"]:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    print(f"workload {out['workload']}  seed {out['seed']}  cycle {len(out['cycle'])} jobs "
          + ", ".join(f"{k} x{v}" for k, v in kinds.items()))
    print(f"machine: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"scipy {facts['scipy']}, blas {facts['blas']}, blas threads {facts['blas_threads']}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not trace:
        raw = out["raw"]
        print(f"  {'failed_share':<40} {out['failed']}/{out['attempted']} = {out['failed'] / out['attempted']:.6g}")
        print(f"  timed jobs {raw['jobs']} ({raw['repeats']} repeats of each); in wall seconds as measured, not "
              f"rescaled: {raw['jobs_per_s']:.4g} jobs/s, p50 {raw['p50']:.4g} s, p90 {raw['p90']:.4g} s")
        print(f"  calibration: min {1e3 * raw['cal_min']:.3f} ms, median {1e3 * raw['cal_p50']:.3f} ms, "
              f"max {1e3 * raw['cal_max']:.3f} ms (reference {1e3 * CAL_REF_S:.3f} ms)")
        print(f"  set-up launches: {', '.join(f'{s:.3f}' for s in out['setups'])} s")
    else:
        t = out["trace"]
        total = sum(t["self_s"].values())
        top = sorted(t["self_s"].items(), key=lambda kv: -kv[1])[:4]
        print("  largest self time: " + ", ".join(f"{g} {100 * s / total:.1f}%" for g, s in top))
        by_kind = {}
        for index, groups in t["self_s_by_job"].items():
            kind = by_kind.setdefault(out["cycle"][int(index)].kind, Counter())
            kind.update(groups)
        for kind, groups in sorted(by_kind.items()):
            total = sum(groups.values())
            print(f"    {kind:<16} " + ", ".join(f"{g} {100 * s / total:.1f}%" for g, s in groups.most_common(3)))
        print(f"  tracing overhead: traced {t['traced_wall_s']:.3f} s, untraced {t['untraced_wall_s']:.3f} s "
              f"for the same {t['jobs']} jobs; {t['spans']} spans written to "
              f"{os.path.relpath(out['spans_path'], ROOT)}; {t['bindings']} bindings patched and restored")
        print(f"  failed_share {out['failed']}/{out['attempted']}; reports byte-identical traced vs untraced: "
              f"{not t['differing_jobs']}")
    for what, reason in out["failures"]:
        print(f"  FAILED {what}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*jobgen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "realsim", "cli.py")):
        print(f"error: no realsim source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _interrupted)
    signal.alarm(TIME_LIMIT_S * (len(jobgen.WORKLOADS) if args.workload == "all" else 1))
    workloads = jobgen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (BenchError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    metrics = {}
    for out in outs:
        _print_summary(out, args.trace)
        prefix = "" if len(outs) == 1 else f"{out['workload']}."
        for name, (value, unit) in out["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
