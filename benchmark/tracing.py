"""Spans and counts recorded from outside the program.

``Tracer`` replaces the public functions named in spec.TRACED_LAYERS, wherever a
graphtoric module binds them, with wrappers that record a span (job,
name, parent span, start, end) and restores the originals afterwards.
The program itself is not edited.  A layer's self time is its span
minus the spans of traced calls made inside it.

``FractionCounter`` counts `fractions.Fraction` operator calls inside
the four stages of spec.FRACTION_STAGES with cProfile.  Profiling slows the
stage several times over, so the pass it runs in is never timed.
"""

from __future__ import annotations

import contextlib
import cProfile
import fractions
import functools
import time
from collections import Counter

from graphtoric import cli, exactmath, graph_core, lattice_fan, polytope
from spec import FRACTION_STAGES, TRACED_LAYERS

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (graph_core, exactmath, polytope, lattice_fan, cli)}

# Methods and properties among the traced layers; every other layer
# name is "<module>.<function>".
_METHODS = {
    "lattice_fan.covolume": (lattice_fan.Lattice, "covolume"),
    "exactmath.echelon_add": (exactmath.EchelonBasis, "add"),
    "cli.to_json": (cli.AnalysisReport, "to_json"),
}


def _target(layer: str):
    if layer in _METHODS:
        return _METHODS[layer]
    module, attr = layer.split(".")
    return MODULES[module], attr


# Functions of fractions.py that are one Fraction operation each: the
# constructor, the operator bodies behind the reflected-operator
# dispatch, unary operators, comparisons and truth tests.
FRACTION_OPS = frozenset({
    "__new__", "_add", "_sub", "_mul", "_div", "_floordiv", "_divmod", "_mod",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__",
    "_richcmp", "__bool__", "__hash__",
})


class _Patch:
    """Swap one function for a wrapper everywhere graphtoric binds it."""

    def __init__(self, owner, attr: str, make_wrapper):
        self.attr = attr
        self.original = owner.__dict__[attr]
        if isinstance(self.original, functools.cached_property):
            replacement = functools.cached_property(make_wrapper(self.original.func))
            replacement.__set_name__(owner, attr)
            self.sites = [owner]
        else:
            replacement = make_wrapper(self.original)
            self.sites = [owner] + [
                m for m in MODULES.values()
                if m is not owner and m.__dict__.get(attr) is self.original
            ]
        self.replacement = replacement

    def apply(self) -> None:
        for site in self.sites:
            setattr(site, self.attr, self.replacement)

    def undo(self) -> None:
        for site in self.sites:
            setattr(site, self.attr, self.original)


@contextlib.contextmanager
def _installed(layers, make_wrapper):
    """Wrap the named layers for the duration of a with-block."""
    patches = [_Patch(*_target(name), make_wrapper(name)) for name in layers]
    try:
        for p in patches:
            p.apply()
        yield
    finally:
        for p in reversed(patches):
            p.undo()


class Tracer:
    """Spans in memory: [job, name, parent index, start, end]."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._clock = clock

    def _wrapper(self, name: str):
        spans, stack, clock = self.spans, self._stack, self._clock

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([self.job, name, stack[-1] if stack else -1, clock(), 0.0])
                stack.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[index][4] = clock()
                    stack.pop()

            return traced

        return make

    def installed(self):
        """Context manager that puts the wrappers in place."""
        return _installed(TRACED_LAYERS, self._wrapper)

    def summarise(self, first: int, scales: dict[int, float]):
        """Per layer (self seconds scaled per job, calls) over spans[first:],
        leaving out jobs without a scale, which failed."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans[first:]:
            if s[2] >= 0:
                child_time[s[2]] += s[4] - s[3]
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for i in range(first, len(spans)):
            job, name, _, start, end = spans[i]
            if job in scales:
                seconds[name] += (end - start - child_time[i]) * scales[job]
                calls[name] += 1
        return seconds, calls


class FractionCounter:
    """Fraction operator calls per stage, counted exactly by cProfile."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._active = False

    def _wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def profiled(*args, **kwargs):
                if self._active:  # a stage inside a stage counts for the outer one
                    return fn(*args, **kwargs)
                profiler = cProfile.Profile()
                self._active = True
                profiler.enable()
                try:
                    return fn(*args, **kwargs)
                finally:
                    profiler.disable()
                    self._active = False
                    self.counts[name] += _fraction_calls(profiler)

            return profiled

        return make

    def installed(self):
        return _installed(FRACTION_STAGES, self._wrapper)


def _fraction_calls(profiler: cProfile.Profile) -> int:
    path = fractions.__file__
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename == path
        and entry.code.co_name in FRACTION_OPS
    )
