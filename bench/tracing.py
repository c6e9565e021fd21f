"""Per-layer tracing of stabscope from outside the program.

A ``Tracer`` replaces every public function of the library modules with a
wrapper that records a span (the start and end of each call) and, for a few
functions, a work counter read from the arguments or the result.  Spans are
timed after each pass by the caller's clock (``settle``), so that they are
rescaled and leave out the speed probes the same way the end-to-end times do.  The
wrappers are installed into every module namespace that holds the original
function object, including ``stabscope.cli``, which imports by name, and are
removed again by ``remove``.  Nothing under ``src/`` changes.

Counters attribute work to the module of the innermost open span, so
``damping.b_evals`` counts damping evaluations made inside ``damping``
functions (the ball mollifier), not the single mesh evaluation ``evolve``
makes.  The runner sets ``group`` before each CLI command so that counters
and spans of the resolvent and evolve layers split by damping family and by
dimension.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LIBRARY_MODULES = ("potentials", "dynamics", "damping", "fields", "quasimodes", "evolution")
WRITER_SUFFIXES = ("_to_csv", "_to_json", "_to_binary")


def _points(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self, package):
        self.package = package
        self.group = ""
        self.spans = defaultdict(list)  # (qualified name, group) -> [seconds per call]
        self.top_level = defaultdict(float)  # qualified name -> seconds in calls made by the CLI
        self.counts = defaultdict(int)  # counter name -> count
        self._open = []  # (qualified name, group, start, end, called by the CLI) not yet timed
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def _namespaces(self):
        mods = [getattr(self.package, name) for name in LIBRARY_MODULES]
        return mods + [self.package.cli]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for modname in LIBRARY_MODULES:
            mod = getattr(self.package, modname)
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replacements[id(fn)] = self._span(f"{modname}.{name}", fn)
        evolution = self.package.evolution
        # private kernels and the scipy band routines the resolvent layer calls
        replacements[id(evolution._sigma_min)] = self._span("evolution._sigma_min", evolution._sigma_min)
        for name, counter in (("solve_banded", "banded_solves"), ("cholesky_banded", "cholesky_factorizations")):
            fn = getattr(evolution, name)
            self._patch(evolution, name, self._counting_call(f"evolution.{counter}", fn))
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _patch(self, ns, attr, value) -> None:
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    # -- wrappers ---------------------------------------------------------

    def _module(self) -> str:
        return self._stack[-1].split(".", 1)[0] if self._stack else "cli"

    def _span(self, qualname, fn):
        observe = getattr(self, "_observe_" + qualname.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(qualname)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open.append((qualname, self.group, start, end, not self._stack))
            if observe is not None:
                result = observe(result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def _counting_call(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{counter}.{self.group}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_eval(self, counter, fn):
        def wrapper(pts):
            self.counts[f"{self._module()}.{counter}"] += _points(pts)
            return fn(pts)

        return wrapper

    # -- observers: work counters read from arguments and results ----------

    def _observe_damping_builtin_damping(self, b, args):
        return dataclasses.replace(b, raw_func=self._counting_eval("b_evals", b.raw_func))

    def _observe_potentials_builtin_potential(self, pot, args):
        return dataclasses.replace(pot, raw_grad=self._counting_eval("grad_evals", pot.raw_grad))

    def _observe_dynamics_flow_integrate(self, traj, args):
        self.counts["dynamics.verlet_steps"] += int(round(args["T"] / args["dt"]))
        return traj

    def _observe_evolution_evolve(self, trace, args):
        nodes = int(np.prod(args["state"].u.grid.ns))
        steps = int(round(args["T_final"] / args["dt"]))
        self.counts[f"evolution.node_steps.{self.group}"] += nodes * steps
        return trace

    def _observe_evolution_resolvent_scan(self, scan, args):
        self.counts[f"evolution.bisect_fallbacks.{self.group}"] += sum(f == "bisect" for f in scan.flags)
        self.counts[f"evolution.frequencies.{self.group}"] += len(scan.flags)
        return scan

    # -- aggregation ------------------------------------------------------

    def settle(self, seconds) -> None:
        """Book the spans recorded so far, timed by ``seconds(start, end)``."""
        for qualname, group, start, end, top in self._open:
            elapsed = seconds(start, end)
            self.spans[(qualname, group)].append(elapsed)
            if top:
                self.top_level[qualname] += elapsed
        self._open.clear()

    def durations(self, qualname, group=None) -> list:
        """Per-call seconds of one function, in one command group or all."""
        return [
            dt
            for (name, g), times in self.spans.items()
            if name == qualname and (group is None or g == group)
            for dt in times
        ]

    def total(self, qualname, group=None) -> float:
        return sum(self.durations(qualname, group))

    def library_top_level(self) -> float:
        return sum(self.top_level.values())

    def writer_top_level(self) -> float:
        return sum(t for name, t in self.top_level.items() if name.endswith(WRITER_SUFFIXES))
