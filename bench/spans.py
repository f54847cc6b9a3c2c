"""In-memory spans around the public functions of the kljnsim modules.

The tracer lives in the benchmark, not in the program.  ``install`` replaces
each public function of the traced modules with a timing wrapper, both in
its defining module and in every ``kljnsim`` module that imported it by name
(``protocol`` does ``from .noise import synthesize``, so the copy in
``protocol`` is patched too); ``uninstall`` puts the originals back.  A
function that a later version of the program removes is simply not wrapped
and reports zero calls.

Each span records its name, start, end, parent span and experiment id in
flat arrays; self time is a span's duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("noise", "circuit", "schemes", "protocol", "attack", "benchmarks", "cli")

#: Name of the root span the benchmark opens around each traced experiment.
ROOT = "bench.experiment"


class Tracer:
    """Records spans while installed; ``observers`` map span names to counters.

    An observer is called as ``observer(counts, args, result)`` after the
    traced function returns, and adds to ``counts`` what it reads from the
    arguments or the returned value (crossings found, secure bits scored).
    """

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self.span_id = array("q")
        self.name_id = array("q")
        self.parent = array("q")
        self.experiment = array("q")
        self.start = array("d")
        self.end = array("d")
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_span = 0
        self._current_experiment = -1
        self._wrappers: dict | None = None
        self._patches: list = []

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = self.observers.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.span_id.append(span)
                self.name_id.append(name_id)
                self.parent.append(parent)
                self.experiment.append(self._current_experiment)
                self.start.append(t0)
                self.end.append(t1)
            if observe is not None:
                try:
                    observe(self.counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    # A later version of the program may return something
                    # else; the count is then missing, not the experiment.
                    self.counts["observer_errors"] += 1
            return result

        return traced

    def _public_functions(self) -> dict:
        wrappers = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"kljnsim.{short}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        return wrappers

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = self._public_functions()
        for modname, module in list(sys.modules.items()):
            if modname != "kljnsim" and not modname.startswith("kljnsim."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def call(self, experiment: int, fn, *args):
        """Run ``fn(*args)`` installed, inside a root span of experiment ``experiment``."""
        self._current_experiment = experiment
        self.install()
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.uninstall()

    def layers(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        n = self._next_span
        sid = np.frombuffer(self.span_id, dtype=np.int64)
        dur = np.zeros(n)
        dur[sid] = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.full(n, -1, dtype=np.int64)
        parent[sid] = np.frombuffer(self.parent, dtype=np.int64)
        name = np.zeros(n, dtype=np.int64)
        name[sid] = np.frombuffer(self.name_id, dtype=np.int64)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        return {
            label: {"calls": int(calls[j]), "total_s": float(total[j]), "self_s": float(own[j])}
            for j, label in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            experiment=np.frombuffer(self.experiment, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
