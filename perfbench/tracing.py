"""Spans around the calls into each vcslab layer, installed from outside.

The tracer replaces functions with timing wrappers at every module attribute
bound to them, so no file of the library changes.  Layers are the vcslab
modules plus ``linalg`` (``numpy.linalg.eigh`` and ``svd``).  Wrapped are:

- the public functions of spectra, hilbert, vcs, moments and intertwine (the
  ``__all__`` functions plus unlisted public ones such as ``apply_map``),
  matched by identity so ``from .hilbert import max_abs`` and intra-module
  calls are both caught;
- the public methods, arithmetic operators and construction of
  ``BlockOperator``;
- ``run_experiment``, ``parse_config`` and ``VerificationReport.to_json`` /
  ``summary_text``;
- ``numpy.linalg.eigh`` and ``numpy.linalg.svd``.

The benchmark runs with one job, so spans nest on a single stack.  Spans
stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

LIBRARY_LAYERS = ("spectra", "hilbert", "vcs", "moments", "intertwine")
OPERATOR_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__"}

# span fields, in order
NAME, LAYER, START, END, PARENT, ITEM, ERROR = range(7)


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, directly or in a tuple/list."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (tuple, list)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


class Tracer:
    """Collects spans and counters while installed; restores everything on removal."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.counters = defaultdict(float)
        self.warnings = 0
        self._patches = []
        self._catcher = None
        self._caught = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, layer, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.item, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if before is not None:
                before(args)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer, wanted):
        hooks = {
            "__matmul__": (self._count_matmul, None),
            "__init__": (None, self._count_dense),
        }
        for attr, value in list(vars(cls).items()):
            if not wanted(attr):
                continue
            before, after = hooks.get(attr, (None, None))
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(name, layer, value.__func__, before, after))
            elif inspect.isfunction(value):
                wrapped = self._wrap(name, layer, value, before, after)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def install(self, vcslab_modules: dict) -> None:
        """Wrap the library; ``vcslab_modules`` maps short names to imported modules."""
        originals = {}
        for layer in LIBRARY_LAYERS:
            module = vcslab_modules[layer]
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[id(value)] = self._wrap(f"{layer}.{attr}", layer, value)
        experiments = vcslab_modules["experiments"]
        config = vcslab_modules["config"]
        originals[id(experiments.run_experiment)] = self._wrap(
            "experiments.run_experiment", "experiments", experiments.run_experiment
        )
        originals[id(config.parse_config)] = self._wrap("config.parse_config", "config", config.parse_config)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "vcslab" or module_name.startswith("vcslab.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and inspect.isfunction(value):
                    self._patch(module, attr, originals[id(value)])

        hilbert = vcslab_modules["hilbert"]
        self._wrap_class(
            hilbert.BlockOperator, "hilbert", lambda a: not a.startswith("_") or a in OPERATOR_DUNDERS
        )
        reporting = vcslab_modules["reporting"]
        self._wrap_class(reporting.VerificationReport, "reporting", lambda a: a in ("to_json", "summary_text"))

        self._patch(np.linalg, "eigh", self._wrap("linalg.eigh", "linalg", np.linalg.eigh, self._count_eigh))
        self._patch(np.linalg, "svd", self._wrap("linalg.svd", "linalg", np.linalg.svd))

        self._catcher = warnings.catch_warnings(record=True)
        self._caught = self._catcher.__enter__()
        warnings.simplefilter("always", RuntimeWarning)

    @contextlib.contextmanager
    def installed(self, vcslab_modules: dict):
        """Fresh spans and counters, recorded while the block runs."""
        self.reset()
        try:
            self.install(vcslab_modules)
            yield self
        finally:
            self.remove()

    def remove(self) -> None:
        """Undo every patch, newest first, and stop recording warnings."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._catcher is not None:
            self.warnings += sum(
                1
                for w in self._caught
                if issubclass(w.category, RuntimeWarning)
                and ("overflow" in str(w.message) or "invalid" in str(w.message))
            )
            self._catcher.__exit__(None, None, None)
            self._catcher = None

    # -- counters ---------------------------------------------------------

    def _count_matmul(self, args):
        n = args[0].space.total_dim
        self.counters["matmul_gflop"] += 8.0 * n**3 / 1e9

    def _count_dense(self, args):
        self.counters["dense_bytes"] += _array_bytes(args[0])

    def _count_eigh(self, args):
        a = np.asarray(args[0])
        self.counters["eigh_n3"] += float(a.shape[-1]) ** 3
        if np.iscomplexobj(a):
            self.counters["eigh_complex_calls"] += 1

    # -- output -----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.warnings = 0

    def dump(self, path) -> None:
        """Write the recorded spans as JSON (times relative to the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [s[NAME], s[LAYER], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT], s[ITEM], s[ERROR]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s", "parent", "item", "error"], "spans": rows}, fh)
            fh.write("\n")


def self_times(spans) -> list:
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def outermost_time(spans, names) -> float:
    """Total duration of spans named in ``names`` that no such span encloses."""
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += s[END] - s[START]
    return total
