"""In-memory spans around the benchmark's calls into qmeasure.

A span records name, start, end, the span that caused it and the op it
belongs to.  With tracing off, ``call`` is a plain call, so untraced runs
pay nothing but one attribute test per library call.

``count_library_calls`` counts the calls the library makes, its own
internal ones included, by wrapping functions at runtime in every module
that holds them; the sources under ``src/`` are not touched.
"""

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(float)
        self._parent = -1
        self._op = -1
        self.counting = False

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), self._parent, self._op])

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    @contextmanager
    def counted(self):
        """Count library calls (see ``count_library_calls``) inside this block."""
        was, self.counting = self.counting, self.enabled
        try:
            yield
        finally:
            self.counting = was

    def open(self, name: str, op: int) -> int:
        """Start a parent span (an op, or the public parts of one)."""
        if not self.enabled:
            return -1
        self._op = op
        self._parent = len(self.spans)
        self.spans.append([name, perf_counter(), None, -1, op])
        return self._parent

    def close(self, index: int, end: float | None = None) -> None:
        if self.enabled:
            self.spans[index][2] = perf_counter() if end is None else end
            self._parent = -1

    def totals(self) -> dict:
        """Per span name: [busy seconds, calls], leaf spans only."""
        out = defaultdict(lambda: [0.0, 0])
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[name][0] += end - start
                out[name][1] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def count_library_calls(tr: Tracer, counted: dict, sized: dict):
    """Wrap library functions so that each call made while ``tr.counting``
    adds 1 to ``tr.counts["<source>.calls"]``.

    ``counted`` maps a source name to ``(module, function)`` pairs;
    ``sized`` maps a source name to a function of the call's arguments and
    result that gives the bytes handled, added to ``"<source>_bytes"``.
    Every module of the library and of the benchmark that holds one of the
    functions gets the wrapper.  Returns a function that undoes it all.
    """
    def wrap(source, fn):
        def counting(*args, **kwargs):
            if tr.counting:  # counted before the call: a call that raises counts too
                tr.counts[f"{source}.calls"] += 1
            out = fn(*args, **kwargs)
            if tr.counting and source in sized:
                tr.counts[f"{source}_bytes"] += sized[source](args, out)
            return out
        return counting

    wrapped = {}  # id of the original function -> (original, wrapper)
    for source, targets in counted.items():
        for module, name in targets:
            fn = getattr(sys.modules[module], name)
            wrapped[id(fn)] = (fn, wrap(source, fn))
    holders = [m for key, m in list(sys.modules.items())
               if key.split(".")[0] in ("qmeasure", "workloads", "layers")]
    undo = []
    for module in holders:
        for attr, value in list(vars(module).items()):
            fn, wrapper = wrapped.get(id(value), (None, None))
            if fn is value:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)
    return restore
