"""Benchmark-side span recorder.

:class:`SpanRecorder` replaces public callables of each layer with wrappers
that record a :class:`Span` (name, start, end, parent, batch id) around every
call, and puts the originals back in :meth:`SpanRecorder.restore`. Nothing in
the program changes: the spans are taken from outside, at the calls into
each layer.

Shard workers are forked after the wrappers are installed, so they inherit
them. A worker's spans travel back inside the shard's ``BatchOutcome.extras``
and the parent adopts them when it merges the shard outcomes; both sides
read ``time.perf_counter`` (a system-wide monotonic clock on Linux).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import astuple, dataclass

#: ``BatchOutcome.extras`` key a worker ships its spans back under
SHIPPED = "perfbench_spans"
#: ``BatchOutcome.extras`` entries kept per pipeline run (the rest, such as
#: the combine plan, is large and not reported)
KEPT_EXTRAS = ("stm", "splits")


def kept_extras(extras: dict) -> dict:
    return {k: extras[k] for k in KEPT_EXTRAS if k in extras}


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    #: index of the enclosing span in the recorder's list, None for a root
    parent: int | None = None
    #: timed batch the span belongs to (-1 outside the timed loop)
    batch: int = -1
    #: shard whose worker recorded the span; None for the benchmark process
    shard: int | None = None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


class SpanRecorder:
    """In-memory span store plus the patch list that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batch = -1
        #: :func:`kept_extras` of every outcome a pipeline produced: one per
        #: batch for a single system, one per non-empty shard for a fleet
        self.leaf_extras: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` may
        attach a dict of counts to the span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, parent=stack[-1] if stack else None, batch=self.batch)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span (the benchmark's own root spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def reset(self) -> None:
        self.spans.clear()
        self.leaf_extras.clear()

    def adopt(self, shipped: list[tuple], shard: int) -> None:
        """Append spans a worker recorded, re-based onto this list."""
        base = len(self.spans)
        for name, start, end, parent, _batch, _shard, attrs in shipped:
            self.spans.append(
                Span(
                    name, start, end,
                    None if parent is None else parent + base,
                    self.batch, shard, attrs,
                )
            )

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch_method(self, cls: type, attr: str, name: str, attrs=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, attrs))
        self._patches.append((cls, attr, original))

    def patch_function(self, module: str, attr: str, name: str,
                       everywhere: bool = True, attrs=None) -> None:
        """Wrap ``module.attr``; with ``everywhere``, also every loaded
        ``repro`` module that imported the same function object by name."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, attrs)
        if everywhere:
            targets = [
                m for key, m in list(sys.modules.items())
                if key.startswith("repro") and getattr(m, attr, None) is original
            ]
        else:
            targets = [sys.modules[module]]
        for m in targets:
            setattr(m, attr, wrapper)
            self._patches.append((m, attr, original))

    def patch_pipeline_root(self, cls: type) -> None:
        """Wrap ``cls.process_batch`` as the ``pipeline`` span. In a forked
        worker the outermost call ships its spans back in the outcome."""
        inner = self.wrap("pipeline", cls.__dict__["process_batch"])

        def process_batch(system, *args, **kwargs):
            if os.getpid() == self._pid or self._stack:
                return inner(system, *args, **kwargs)
            start = len(self.spans)
            outcome = inner(system, *args, **kwargs)
            outcome.extras[SHIPPED] = [
                (s.name, s.start, s.end,
                 None if s.parent is None else s.parent - start,
                 s.batch, s.shard, s.attrs)
                for s in self.spans[start:]
            ]
            del self.spans[start:]
            return outcome

        original = cls.__dict__["process_batch"]
        cls.process_batch = process_batch
        self._patches.append((cls, "process_batch", original))

    def patch_shard_merge(self, module: str) -> None:
        """Wrap ``module.merge_shard_outcomes`` as ``sharding.merge``, first
        adopting the spans each shard outcome carries back."""
        mod = sys.modules[module]
        original = mod.merge_shard_outcomes
        inner = self.wrap("sharding.merge", original)

        def merge_shard_outcomes(batch, routed, outcomes, system):
            for r, o in zip(routed, outcomes):
                if o is not None:
                    shipped = o.extras.pop(SHIPPED, None)
                    if shipped:
                        self.adopt(shipped, r.shard)
                    self.leaf_extras.append(kept_extras(o.extras))
            return inner(batch, routed, outcomes, system)

        mod.merge_shard_outcomes = merge_shard_outcomes
        self._patches.append((mod, "merge_shard_outcomes", original))

    def restore(self) -> None:
        """Put every wrapped callable back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def dump(self, path: str) -> None:
        """Write the spans as JSON (one list per span, fields in order)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "batch", "shard", "attrs"],
                 "spans": [astuple(s) for s in self.spans]},
                f,
            )
