"""Outside-in tracer: spans and counts at realsim's public functions.

`Tracer.install` replaces every public function bound in any loaded
`realsim.*` module namespace with a timing wrapper.  A function imported
by name into another module (as `dynamics` imports `matexp` from
`linalg`) is bound in both namespaces, so both are patched; patching only
the defining module would miss those calls.  `uninstall` puts every
original object back.

A span is (group, start, end, parent span, job).  The group names the
layer and, where the benchmark reports it separately, the function, for
example `linalg.matexp` or `multipartite.other`.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import Counter

PACKAGE = "realsim"

# Layer -> {function name: group}; functions not listed fall in the
# layer's default group.
_SPLIT = {
    "formats": ({"dumps": "formats.dumps", "complex_pairs": "formats.dumps"}, "formats.parse"),
    "multipartite": ({"lift_local_operator": "multipartite.lift"}, "multipartite.other"),
    "linalg": ({"matexp": "linalg.matexp", "kron": "linalg.kron"}, "linalg.other"),
    "applications.bell": ({"optimize_bell": "applications.bell.optimize"}, "applications.bell.other"),
    "cli": ({}, "cli.main"),
}

# Group order used for reports; every group a function can fall in.
GROUPS = (
    "cli.main", "formats.parse", "formats.dumps", "encoding", "multipartite.lift", "multipartite.other",
    "dynamics", "linalg.matexp", "linalg.kron", "linalg.other", "applications.bell.optimize",
    "applications.bell.value_encoded", "applications.bell.value_complex", "applications.bell.other",
    "applications.selftest",
)
LAYERS = ("cli", "formats", "encoding", "multipartite", "dynamics", "linalg", "applications.bell",
          "applications.selftest")


def layer_of(fn) -> str:
    return fn.__module__[len(PACKAGE) + 1:]


def _group_of(fn):
    """Function returning the group of one call of fn."""
    layer = layer_of(fn)
    if layer == "applications.bell" and fn.__name__ == "bell_value":
        def by_mode(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
            suffix = "value_encoded" if mode == "real_encoded" else "value_complex"
            return f"applications.bell.{suffix}"
        return by_mode
    named, default = _SPLIT.get(layer, ({}, layer))
    group = named.get(fn.__name__, default)
    return lambda args, kwargs: group


def _measure_of(fn):
    """Function adding a call's computed work counts into a Counter."""
    key = f"{layer_of(fn)}.{fn.__name__}"
    if key == "linalg.matexp":
        def work(counts, args, kwargs, result):
            counts["linalg.matexp.work_n3"] += int(result.shape[0]) ** 3
    elif key == "linalg.kron":
        def work(counts, args, kwargs, result):
            counts["linalg.kron.bytes"] += int(result.nbytes)
    elif key == "multipartite.lift_local_operator":
        def work(counts, args, kwargs, result):
            counts["multipartite.lift.bytes"] += int(result.matrix.nbytes)
    elif key == "formats.load_json":
        def work(counts, args, kwargs, result):
            counts["formats.parse.bytes_in"] += os.path.getsize(kwargs.get("path", args[0] if args else None))
    elif key == "formats.dumps":
        def work(counts, args, kwargs, result):
            counts["formats.dumps.bytes_out"] += len(result)
    elif key == "applications.bell.optimize_bell":
        def work(counts, args, kwargs, result):
            counts["applications.bell.trace_len"] += len(result.optimizer_trace)
    else:
        work = None
    return work


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []          # [group, start, end, parent index, job]
        self.counts = Counter()  # "<group>.calls", "<layer>.errors", work counts
        self.function_calls = Counter()  # "<layer>.<function>"
        self.job = None
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _wrap(self, fn):
        group_of = _group_of(fn)
        work = _measure_of(fn)
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        spans, stack, counts, function_calls = self.spans, self._stack, self.counts, self.function_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            group = group_of(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (group, start, end, parent, self.job)
                counts[f"{group}.calls"] += 1
                function_calls[name] += 1
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        return traced

    def targets(self):
        """(module, attribute, function) for every public realsim function binding."""
        out = []
        for name in sorted(sys.modules):
            module = sys.modules[name]
            if module is None or (name != PACKAGE and not name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__.startswith(PACKAGE + "."):
                    out.append((module, attr, obj))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module, attr, fn in self.targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            setattr(module, attr, wrappers[id(fn)])
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def self_times(self, key=lambda group, job: group) -> Counter:
        """Self time summed over every recorded span, per key(group, job)."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (group, start, end, _, job) in enumerate(self.spans):
            out[key(group, job)] += (end - start) - child[i]
        return out
