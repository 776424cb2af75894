"""In-memory spans around the benchmark's calls into chargedgauss.

A span records (name, start, end, parent span, job id).  Spans are kept
in memory and handed back when the run ends; per-layer busy time, call
counts and self time are derived from them afterwards.  With tracing
off, ``call`` is a plain function call, so the timed run pays nothing.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


def layer_name(fn) -> str:
    """``<module>.<function>`` of a chargedgauss function or bound method."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span recorder plus numeric health counters.

    Counters (``note_*``) are kept with tracing on or off; spans only
    with tracing on.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.job: str | None = None
        self._stack: list[int] = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job, "error": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named after fn."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer_name(fn)):
            return fn(*args, **kwargs)

    def call_tracking_alloc(self, fn, *args, **kwargs):
        """Like ``call``; with tracing on, also records the peak of
        traced allocations during the call as ``<name>.alloc_peak_mb``.
        tracemalloc runs only around this call, outside the span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return self.call(fn, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.note_max(f"{layer_name(fn)}.alloc_peak_mb", peak / 2**20)

    @contextmanager
    def patched(self, module, attr: str):
        """Wrap ``module.attr`` so calls made from inside the library
        through that name get their own (child) span."""
        orig = getattr(module, attr)
        if not self.enabled:
            yield
            return

        def wrapper(*args, **kwargs):
            return self.call(orig, *args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    # ---------------------------------------------------------- counters

    def note_add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def note_max(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, -float("inf")),
                                  float(value))

    def note_min(self, name: str, value: float):
        self.counters[name] = min(self.counters.get(name, float("inf")),
                                  float(value))

    # ----------------------------------------------------------- summary

    def summarize(self) -> dict:
        """Per span name: busy seconds ``.s``, ``.calls`` and ``.self_s``
        (duration minus the part covered by child spans); per module:
        ``.errors`` (spans that raised)."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            name, dur = rec["name"], rec["end"] - rec["start"]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + dur - child_time[i])
            if rec["error"] is not None:
                module = name.split(".", 1)[0]
                out[f"{module}.errors"] = out.get(f"{module}.errors", 0) + 1
        return out
