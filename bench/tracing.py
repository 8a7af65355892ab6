"""Spans around the calls into each ``ugp`` layer, recorded from outside.

:meth:`Tracer.install` replaces every public function of the ``ugp`` modules in
every module namespace that holds it (``ugp.chance.solve_gp`` and
``ugp.gp.solve_gp`` get the same wrapper), plus a few methods and the
two scipy routines the solver imports.  A wrapper records a span: name,
start, end, op id and parent.  Spans stay in memory (the first
``SPAN_CAP`` of them; beyond that only the aggregates below are kept)
and are written out at the end of the run.

Aggregates are kept per span name as the spans close, so their cost is
the same whether or not the span log is full:

* calls and inclusive time;
* self time, the span's duration minus the time its child spans cover
  (children of one span never overlap in this single-threaded program);
* ``gp.solve_dual`` split into Newton (it had a ``gp.linprog`` child)
  and direct (it had none);
* exceptions leaving ``gp.solve_gp``, by class, and the time they took.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "chance", "twofold", "distributions", "gp", "numeric")
METHODS = {
    "distributions": {"PiecewiseDistribution": ("cdf", "inverse", "expected_value")},
    "gp": {"DualProblem": ("log_value",)},
}
FOREIGN = {"gp": ("linprog", "null_space")}
SPAN_CAP = 300_000


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [child time, had a linprog child, log index]
        self.calls: Counter = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.failures: Counter = Counter()
        self.failed_s = 0.0
        self.spans = 0
        self.log_name = array("i")
        self.log_op = array("i")
        self.log_parent = array("i")
        self.log_start = array("d")
        self.log_end = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        linprog_id = self._id("gp.linprog")
        solve_dual_id = self._id("gp.solve_dual")
        solve_gp_id = self._id("gp.solve_gp")
        newton_id = self._id("gp.solve_dual.newton")
        direct_id = self._id("gp.solve_dual.direct")
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = -1
            if len(self.log_start) < SPAN_CAP:
                index = len(self.log_start)
                self.log_name.append(nid)
                self.log_op.append(self.op)
                self.log_parent.append(stack[-1][2] if stack else -1)
                self.log_start.append(0.0)
                self.log_end.append(0.0)
            frame = [0.0, False, index]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if index >= 0:
                    self.log_start[index] = start
                    self.log_end[index] = end
                self.spans += 1
                self.calls[nid] += 1
                self.total[nid] += duration
                self.self_time[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                    if nid == linprog_id:
                        stack[-1][1] = True
                if nid == solve_dual_id:
                    path = newton_id if frame[1] else direct_id
                    self.calls[path] += 1
                    self.total[path] += duration
                if nid == solve_gp_id and error is not None:
                    self.failures[error] += 1
                    self.failed_s += duration

        return traced

    def install(self) -> None:
        """Wrap the ugp layers; the wrappers record only while ``active``."""
        import importlib

        modules = {m: importlib.import_module(f"ugp.{m}") for m in MODULES}
        namespaces = [importlib.import_module("ugp"), *modules.values()]
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.split(".")
                if owner[0] != "ugp" or len(owner) != 2:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{owner[1]}.{obj.__name__}", obj)
                setattr(ns, attr, wrapped[id(obj)])
        for mod, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[mod], cls_name)
                for meth in methods:
                    name = f"{mod}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
        for mod, attrs in FOREIGN.items():
            for attr in attrs:
                fn = getattr(modules[mod], attr)
                setattr(modules[mod], attr, self.wrap(f"{mod}.{attr}", fn))

    def calls_of(self, name: str) -> int:
        return self.calls[self._id(name)]

    def ms(self, name: str) -> float:
        return 1e3 * self.total[self._id(name)]

    def self_ms(self, name: str) -> float:
        return 1e3 * self.self_time[self._id(name)]

    def save(self, path) -> None:
        """Write the span log (columns: name id, op, parent index, start, end)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.log_name, dtype=np.int32),
            op=np.frombuffer(self.log_op, dtype=np.int32),
            parent=np.frombuffer(self.log_parent, dtype=np.int32),
            start=np.frombuffer(self.log_start, dtype=np.float64),
            end=np.frombuffer(self.log_end, dtype=np.float64),
            total_spans=np.array(self.spans),
        )
