"""One benchmark process: import realsim, run jobs in-process, report.

Started by run.py with BLAS pinned to one thread and the job directory as
working directory.  It runs the warm-up job, prints one `ready` line,
then reads one command from stdin: `quit`, or `run` to execute the job
cycle in a closed loop (the next job starts when the previous returns)
and write result.json.  Between two jobs it times fixed calibration
kernels, which tell run.py how fast the machine ran around each job.

    python3 worker.py --root ROOT --seconds S --min-jobs N --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time


def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS will use, asked from the library itself."""
    out = {}
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                                      f"{package}.libs", "libscipy_openblas*.so"))
        out[package] = None
        try:
            lib = ctypes.CDLL(libs[0])
        except (IndexError, OSError):
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                out[package] = int(get())
                break
    return out


def _facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_job(cli, argv: list) -> tuple:
    """Run one CLI job in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as e:  # a traceback breaks the exit-code contract; record it as a failure
            rc = f"exception {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Calibration:
    """Fixed numpy kernels that owe nothing to realsim, timed to track the speed
    the machine currently gives this process; on a shared host it changes by
    up to 1.7x within seconds.

    Two kernels, because slow stretches do not slow all code alike: ten
    eigendecompositions of one 32x32 complex Hermitian matrix (latency-bound
    LAPACK, about 1.2 ms on an idle core) and 40 products of 64x64 complex
    matrices (throughput-bound BLAS, about 2 ms).  The reported time is the
    geometric mean of the two.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._eigh = np.linalg.eigh
        self._h = g + g.conj().T
        self._m = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 8.0
        self.seconds()  # the first call loads LAPACK code paths; not used

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            self._eigh(self._h)
        middle = time.perf_counter()
        x = self._m
        for _ in range(40):
            x = self._m @ x
        end = time.perf_counter()
        return math.sqrt((middle - start) * (end - middle))


class Loop:
    """Closed-loop runs over the job cycle, keeping one copy of each distinct report."""

    def __init__(self, cli, cycle: list, calibration: Calibration):
        self.cli = cli
        self.cycle = cycle
        self.calibration = calibration
        # [cycle index, exit code, report sha256, seconds, calibration seconds before, after]
        self.records = []
        self.outputs = {}   # cycle index -> {"rc", "stdout", "stderr"} of its first run

    def run(self, seconds: float, min_jobs: int = 0, max_jobs: int | None = None, on_job=None) -> float:
        """Run whole cycles until `seconds` have passed and `min_jobs` ran,
        or exactly `max_jobs` jobs; return the summed wall time of the jobs."""
        wall = 0.0
        start = time.perf_counter()
        cal = self.calibration.seconds()
        while True:
            for index, argv in enumerate(self.cycle):
                if max_jobs is not None and len(self.records) >= max_jobs:
                    return wall
                if on_job is not None:
                    on_job(len(self.records))
                rc, stdout, stderr, elapsed = run_job(self.cli, argv)
                wall += elapsed
                cal_before, cal = cal, self.calibration.seconds()
                sha = hashlib.sha256(stdout.encode()).hexdigest()
                self.records.append([index, rc, sha, elapsed, cal_before, cal])
                if index not in self.outputs:
                    self.outputs[index] = {"rc": rc, "stdout": stdout, "stderr": stderr, "sha": sha}
            if max_jobs is None and time.perf_counter() - start >= seconds and len(self.records) >= min_jobs:
                return wall


def _traced(cli, cycle: list, seconds: float, spans_path: str) -> dict:
    """Traced run for half the time, then the same jobs untraced."""
    from tracer import Tracer

    tracer = Tracer()
    bindings = tracer.targets()
    calibration = Calibration()
    traced = Loop(cli, cycle, calibration)
    tracer.install()
    try:
        traced_wall = traced.run(seconds / 2.0, on_job=lambda i: setattr(tracer, "job", i))
    finally:
        tracer.uninstall()
    still_patched = [f"{m.__name__}.{a}" for m, a, fn in bindings if getattr(m, a) is not fn]

    plain = Loop(cli, cycle, calibration)
    plain_wall = plain.run(0.0, max_jobs=len(traced.records))
    differing = [i for i, (a, b) in enumerate(zip(traced.records, plain.records)) if a[2] != b[2]]

    by_job = {}
    for (index, group), self_s in tracer.self_times(lambda group, job: (job % len(cycle), group)).items():
        by_job.setdefault(index, {})[group] = self_s
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    return {
        "loop": traced,
        "trace": {
            "jobs": len(traced.records),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": plain_wall,
            "self_s": dict(tracer.self_times()),
            "self_s_by_job": by_job,
            "counts": dict(tracer.counts),
            "function_calls": dict(tracer.function_calls),
            "spans": len(tracer.spans),
            "bindings": len(bindings),
            "still_patched": still_patched,
            "differing_jobs": differing,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from realsim import cli

    with open("jobs.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    warm_rc, warm_out, warm_err, _ = run_job(cli, plan["warmup"])
    sha = hashlib.sha256(warm_out.encode()).hexdigest()
    print(json.dumps({"ready": True, "warmup_sha": sha}), flush=True)

    command = sys.stdin.readline().strip()
    if command != "run":
        return 0

    if args.trace:
        traced = _traced(cli, plan["cycle"], args.seconds, args.spans)
        loop, extra = traced["loop"], {"trace": traced["trace"]}
    else:
        loop, extra = Loop(cli, plan["cycle"], Calibration()), {}
        loop.run(args.seconds, args.min_jobs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "facts": _facts(),
        "warmup": {"rc": warm_rc, "stdout": warm_out, "stderr": warm_err, "sha": sha},
        "records": loop.records,
        "outputs": loop.outputs,
        "peak_rss_kb": peak_kb,
        **extra,
    }
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps({"done": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
