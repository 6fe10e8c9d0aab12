"""Outside-in span tracer for the ``polair`` package.

The tracer wraps functions from outside: every public function of the
traced modules (and a few named methods) is replaced by a wrapper wherever
the function object is bound in a ``polair.*`` namespace, including module
level dicts such as dispatch tables. No source file of the package changes.

Each call records one span ``[name, start, end, parent, run_id, work, n,
peak_alloc]`` in memory:

* ``parent`` is the index of the enclosing span, or -1;
* ``work`` counts the items the call processed (matrices, entries or
  trials; see :data:`WORK`), or None;
* ``n`` is the trailing dimension of an array result, or None;
* ``peak_alloc`` is the peak of memory traced by :mod:`tracemalloc` while
  the span was open, above its level at entry, in bytes.

Spans are plain lists so the child process can dump them as JSON when the
run ends; :func:`layer_stats` derives self time from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

TRACED_MODULES = ("linalg", "channel", "estimators", "air", "experiments", "cli")

# Names the benchmark's metrics depend on. Any that no longer resolves after
# a refactor is reported as missing rather than crashing the run.
NAMED_TARGETS = (
    "linalg.haar_unitary",
    "linalg.sample_cgauss",
    "estimators.estimate_ls",
    "estimators.estimate_kabsch",
    "air.air_gaussian_paired_mc",
    "air.air_discrete_paired_mc",
    "air.air_synthetic_mc",
    "air.synthetic_estimates",
    "experiments.run_experiment",
    "experiments.SweepResult.to_csv",
    "cli.main",
)

# Span names differ from the attribute path only for methods.
_SPAN_NAME = {"experiments.SweepResult.to_csv": "experiments.to_csv"}


def _matrices(bound, result):
    return result.size // (result.shape[-1] * result.shape[-2])


def _entries(bound, result):
    return result.size


def _trials(bound, result):
    return bound.arguments["trials"]


def _trial_kinds(bound, result):
    return bound.arguments["trials"] * len(bound.arguments["kinds"])


# Work done per call, from the bound arguments and the result.
WORK = {
    "linalg.haar_unitary": _matrices,
    "linalg.sample_cgauss": _entries,
    "estimators.estimate_ls": _matrices,
    "estimators.estimate_kabsch": _matrices,
    "air.air_gaussian_paired_mc": _trials,
    "air.air_discrete_paired_mc": _trial_kinds,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._peak: list[int] = []  # highest traced memory seen per open span

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the named targets and every public function of the traced modules."""
        modules = {m: importlib.import_module(f"polair.{m}") for m in TRACED_MODULES}
        targets = dict.fromkeys(NAMED_TARGETS)
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                if inspect.isfunction(getattr(mod, attr, None)):
                    targets.setdefault(f"{short}.{attr}")
        namespaces = [m for k, m in sys.modules.items() if k == "polair" or k.startswith("polair.")]
        for target in targets:
            short, *path = target.split(".")
            owner = modules[short]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not inspect.isfunction(fn):
                self.missing.append(target)
                continue
            wrapper = self._wrap(_SPAN_NAME.get(target, target), fn)
            if owner is not modules[short]:
                setattr(owner, path[-1], wrapper)
            for ns in namespaces:
                _rebind(vars(ns), fn, wrapper)
        tracemalloc.start()

    def _wrap(self, name: str, fn):
        work_fn = WORK.get(name)
        sig = inspect.signature(fn) if work_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                work = None
                if work_fn is not None and result is not None:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        work = int(work_fn(bound, result))
                    except (AttributeError, IndexError, KeyError, TypeError):
                        work = None
                shape = getattr(result, "shape", ())
                self._exit(idx, end, work, shape[-1] if len(shape) >= 2 else None)

        return wrapper

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        current, peak = tracemalloc.get_traced_memory()
        if self._peak:
            self._peak[-1] = max(self._peak[-1], peak)
        tracemalloc.reset_peak()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None, None, current])
        self._stack.append(idx)
        self._peak.append(current)
        return idx

    def _exit(self, idx: int, end: float, work, n) -> None:
        span = self.spans[idx]
        self._stack.pop()
        top = max(self._peak.pop(), tracemalloc.get_traced_memory()[1])
        if self._peak:
            self._peak[-1] = max(self._peak[-1], top)
        # Until now span[7] held the traced memory at entry.
        span[2], span[5], span[6], span[7] = end, work, n, top - span[7]


def _rebind(namespace: dict, fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` in a namespace and in the dicts it holds."""
    for key, value in list(namespace.items()):
        if value is fn:
            namespace[key] = wrapper
        elif isinstance(value, dict) and not key.startswith("__"):
            for k, v in list(value.items()):
                if v is fn:
                    value[k] = wrapper


def layer_stats(spans: list[list], run_ids: set | None = None) -> dict[str, dict]:
    """Per span name: calls, self time, total work, peak allocation and calls by n.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap. With
    ``run_ids``, only spans of those runs are counted.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _parent, run_id, work, n, peak_alloc) in enumerate(spans):
        if run_ids is not None and run_id not in run_ids:
            continue
        s = stats.setdefault(
            name, {"calls": 0, "self_s": 0.0, "work": 0, "peak_alloc_bytes": 0, "calls_by_n": {}}
        )
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        s["work"] += work or 0
        s["peak_alloc_bytes"] = max(s["peak_alloc_bytes"], peak_alloc or 0)
        if n is not None:
            s["calls_by_n"][str(n)] = s["calls_by_n"].get(str(n), 0) + 1
    return stats
