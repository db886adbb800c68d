"""Traced child runner: one `spectralab` command with spans around every layer.

Usage: python3 perfbench/tracer.py OUT.json COMMAND [ARGS...]

Imports `spectralab.cli`, notes the time it became ready, wraps the public
functions of the eight modules (catalog, exact, asymptotics, spectrum,
oracle, average, analysis, cli) with a span recorder, and runs the command
exactly as `python3 -m spectralab.cli COMMAND ARGS` would, stdout and exit
status included.  Functions that one module imported from another
(`from .exact import floor_affine_sqrt`) are rewrapped under the importing
module's name for them, so every call path is seen.  Of `catalog` only the
parse, validate, geometry and geodesic-length entry points are wrapped: its
other public functions are dataclass factories that the table code calls
tens of thousands of times per job, where a span would cost more than the
call.

Spans (name, start, end, parent) stay in memory; at exit the runner turns
them into per-name calls, total and self time, keeps the per-call
durations of the scalar counting functions, and writes the summary to
OUT.json.  Calls of `spectrum.levels` and `spectrum.level_arrays` also run
under tracemalloc, which gives each call's allocation peak and the number
of levels it returned.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("catalog", "exact", "asymptotics", "spectrum", "oracle", "average",
           "analysis", "cli")

CATALOG_ENTRY_POINTS = ("parse_spec", "validate", "geometry", "geodesic_lengths",
                        "verification_roster")

# per-call durations kept for these spans
TIMED_CALLS = ("spectrum.count", "spectrum.closed_form_identity")

# spans that run under tracemalloc and return levels
MEMORY_SPANS = ("spectrum.levels", "spectrum.level_arrays")


def _sample_count(profile) -> int:
    samples = getattr(profile, "samples", None)
    if samples is not None and len(samples):
        return len(samples)
    xs = profile.xs
    return len(xs() if callable(xs) else xs)


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


# span name -> (counter, amount to add given the call's args and result)
HOOKS = {
    "analysis.fourier_coefficients": (
        "analysis.fourier_coefficients.terms",
        lambda args, result: _sample_count(args[0]) * _size(args[1])),
    "average.avg_error_grid": (
        "average.avg_error_grid.points", lambda args, result: _size(args[1])),
    "oracle.check_equivalence": (
        "oracle.times_checked", lambda args, result: int(result.times_checked)),
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []          # indices into spans of the open spans
        self.memory = []         # (name, peak bytes, levels returned)
        self.counters = {counter: 0 for counter, _ in HOOKS.values()}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        perf_counter = time.perf_counter

        def call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)

        if name in HOOKS:
            call = self._counted(name, call)
        if name in MEMORY_SPANS:
            call = self._memory_window(name, call)
        return functools.wraps(fn)(call)

    def _counted(self, name: str, call):
        counter, amount = HOOKS[name]
        counters = self.counters

        def counted(*args, **kwargs):
            result = call(*args, **kwargs)
            counters[counter] += amount(args, result)
            return result

        return counted

    def _memory_window(self, name: str, call):
        import tracemalloc

        def window(*args, **kwargs):
            if tracemalloc.is_tracing():
                return call(*args, **kwargs)
            tracemalloc.start()
            try:
                result = call(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            levels = len(result) if name == "spectrum.levels" else len(result[0])
            self.memory.append((name, peak, levels))
            return result

        return window

    def install(self) -> None:
        import importlib
        import inspect

        modules = {m: importlib.import_module("spectralab." + m) for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (not inspect.isfunction(obj) or attr.startswith("_")
                        or obj.__module__ != mod.__name__):
                    continue
                if short == "catalog" and attr not in CATALOG_ENTRY_POINTS:
                    continue
                wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                setattr(mod, attr, wrapped[obj])
        # names bound by `from .x import f` in another module
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls, total, own = {}, {}, {}
        durations = {name: [] for name in TIMED_CALLS}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
            if name in durations:
                durations[name].append(end - start)
        return {"calls": calls, "total_s": total, "self_s": own,
                "durations_s": durations, "memory": self.memory,
                "counters": self.counters}


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import spectralab.cli
    ready = time.monotonic()

    import json

    tracer = Tracer()
    tracer.install()
    try:
        code = spectralab.cli.main(argv)
    finally:
        sys.stdout.flush()
        record = tracer.summary()
        record["ready_monotonic"] = ready
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
