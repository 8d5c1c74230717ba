"""In-memory span recorder and the per-layer summary of a traced run.

A span is (id, name, start, end, parent, seed): ``seed`` identifies the
operation (an instance seed, or a grid point of ``se_grid``) and is
inherited from the enclosing span.  A span left by an exception also
records its type and message.  Spans stay in memory until the run writes
them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, seed=None):
        parent = self._open[-1] if self._open else None
        if seed is None and parent is not None:
            seed = parent["seed"]
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None, "seed": seed,
               "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = {"type": type(exc).__name__, "message": str(exc)}
            raise
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def wrap(self, owner, attr, name, seed_arg=None, record=None):
        """Replace ``owner.attr`` (a function, class or method of a loaded
        module or class) by a wrapper that runs each call in a span called
        ``name``.  ``seed_arg`` is the index of the positional argument that
        identifies the operation; ``record(result, *args)`` runs after each
        call that returns."""
        original = getattr(owner, attr)

        @functools.wraps(original, updated=())
        def traced(*args, **kwargs):
            seed = args[seed_arg] if seed_arg is not None else None
            with self.span(name, seed=seed):
                result = original(*args, **kwargs)
            if record is not None:
                record(result, *args)
            return result

        setattr(owner, attr, traced)

    def finished(self):
        """Spans with their duration and self time (duration minus the time
        covered by direct children, which never overlap in a serial run)."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        return [dict(s, duration=s["end"] - s["start"],
                     self_time=s["end"] - s["start"] - child_time.get(s["id"], 0.0))
                for s in self.spans]


class NullTracer:
    """Same span interface, records nothing: the untraced run."""

    def span(self, name, seed=None):
        return contextlib.nullcontext()


def span_resolution(samples: int = 200) -> float:
    """Median cost of opening and closing one empty span, in seconds."""
    tracer = Tracer()
    costs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with tracer.span("probe"):
            pass
        costs.append(time.perf_counter() - t0)
    return statistics.median(costs)


def merge(span_lists):
    """One span list from the finished spans of several traced processes,
    with ids renumbered so that they stay unique."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        merged += [dict(s, id=s["id"] + offset,
                        parent=None if s["parent"] is None else s["parent"] + offset)
                   for s in spans]
    return merged


def layer_time(spans, name) -> float | None:
    """Summed duration of the spans called ``name``; None if none ran."""
    hits = [s["duration"] for s in spans if s["name"] == name]
    return sum(hits) if hits else None


def operation_summary(spans, op_name):
    """Durations of the operation spans (one per seed or grid point) and the
    share of their time that no direct child span accounts for."""
    ops = [s for s in spans if s["name"] == op_name]
    total = sum(s["duration"] for s in ops)
    remainder = sum(s["self_time"] for s in ops)
    return [s["duration"] for s in ops], (remainder / total if total > 0 else 0.0)
