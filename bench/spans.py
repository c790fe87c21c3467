"""Spans recorded from outside the program, by wrapping module functions.

``Tracer.install`` replaces every public function defined in the layer
modules with a wrapper that records one span (name, start, end, parent)
per call. Spans stay in memory until ``write``.

Calls made inside one module are not spans: a wrapper called from its own
module passes straight through, so such a call stays in its caller's self
time (``homodyne.maximize_chsh`` -> ``chsh_value``, ``cli.main`` ->
``cmd_analyze``). Names bound with ``from x import y`` at import time, such
as ``homodyne.g1``, keep pointing at the unwrapped function.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("catalog", "fock", "coherence", "homodyne", "cli")


def _bytes_in(args, kwargs, result) -> int:
    """Input amplitudes the beamsplitter reads: 16 B per complex entry."""
    state = args[0] if args else kwargs["state"]
    return 16 * (state.dim if state.is_pure else state.dim * state.dim)


def _rank(args, kwargs, result) -> int:
    return len(result)


#: Sizes computed per call, summed per span name.
SIZES = {"fock.apply_beamsplitter": _bytes_in,
         "fock.eigen_components": _rank}


def _numeric_route(args, kwargs) -> str:
    return kwargs.get("route", args[3] if len(args) > 3 else "unitary")


#: Span names refined by an argument: one name per numeric route.
SUFFIXES = {"homodyne.modulation_depth_numeric": _numeric_route}


class Tracer:
    """Span recorder. Each span is ``[name, start, end, parent, size, ok]``
    with ``parent`` the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"mzbell.{layer}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr,
                            self._wrap(f"{layer}.{attr}", fn, vars(module)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn, home: dict):
        spans, stack = self.spans, self._stack
        size = SIZES.get(name)
        suffix = SUFFIXES.get(name)

        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            label = f"{name}.{suffix(args, kwargs)}" if suffix else name
            span = [label, perf_counter(), 0.0,
                    stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if size:
                    span[4] = size(args, kwargs, result)
                span[5] = True
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tparent\tname\tstart\tend\tsize\tok\n")
            for i, (name, start, end, parent, size, ok) in \
                    enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t"
                          f"{size}\t{int(ok)}\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (duration minus direct children),
        summed size and failed calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "size": 0, "failed": 0})
        for i, (name, start, end, _, size, ok) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            row["size"] += size
            row["failed"] += 0 if ok else 1
        return dict(out)
