"""In-memory spans around the benchmark's calls into sparselb's layers.

`Tracer.instrument` replaces public functions of a layer module (graph,
simulator, meanfield, policy, properties, records) with a wrapper. While
`Tracer.recording` is true, each wrapped call records one span: name,
layer, start, end, parent span and the benchmark operation it ran under.
Because the wrapper replaces the module attribute, a call that one layer
makes into another through module globals (sparsity_trend building its
graphs, optimal_subcriticality_load computing the uniform metric) becomes a
child span of the caller. Spans stay in memory; `dump` writes them out.

With recording off a wrapped call costs one attribute test, so passes run
with recording off and on can be compared to measure the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Op:
    """One benchmark operation: `kind` is setup or pass;
    `unit` is the setup repetition or pass it belongs to."""

    oid: int
    kind: str
    label: str
    unit: int
    traced: bool


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[Span] = []
        self.ops: list[Op] = []
        # (args, kwargs, result) of calls to functions instrumented with
        # keep=True, recorded in every mode so checks can inspect them
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []
        self._op: Optional[Op] = None

    def instrument(
        self,
        module,
        layer: str,
        names,
        counters: Optional[dict[str, Callable]] = None,
        keep=(),
    ) -> None:
        """Wrap `module.<name>` for each name. `counters[name](args, kwargs,
        result)` returns a dict of counts stored on the span."""
        counters = counters or {}
        for name in names:
            fn = getattr(module, name)
            wrapped = self._wrap(fn, f"{layer}.{name}", layer, counters.get(name), name in keep)
            setattr(module, name, wrapped)

    def _wrap(self, fn, qualname: str, layer: str, counter, keep: bool):
        kept = self.kept.setdefault(qualname, []) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(qualname, layer) if self.recording else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    self._close(span)
            if span is not None and counter is not None:
                span.counts = counter(args, kwargs, result)
            if kept is not None:
                kept.append((args, kwargs, result))
            return result

        return wrapper

    def _open(self, name: str, layer: str) -> Span:
        span = Span(
            sid=len(self.spans),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            op=self._op.oid if self._op is not None else None,
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, kind: str, label: str, unit: int):
        """Run the body as one operation, with a `bench` span when recording."""
        op = Op(len(self.ops), kind, label, unit, self.recording)
        self.ops.append(op)
        outer = self._op
        self._op = op
        span = self._open(f"bench.{label}", "bench") if self.recording else None
        try:
            yield op
        finally:
            if span is not None:
                self._close(span)
            self._op = outer

    # ------------------------------------------------------------------
    # aggregation over recorded spans

    def units(self, kind: str) -> int:
        """Number of traced setup repetitions or passes of `kind`."""
        return len({op.unit for op in self.ops if op.kind == kind and op.traced})

    def select(self, kind: str, name: Optional[str] = None, label: Optional[str] = None) -> list[Span]:
        """Spans under ops of `kind`, optionally filtered by span name prefix
        and by op label."""
        out = []
        for span in self.spans:
            if span.op is None:
                continue
            op = self.ops[span.op]
            if op.kind != kind or (label is not None and op.label != label):
                continue
            if name is not None and not span.name.startswith(name):
                continue
            out.append(span)
        return out

    def self_seconds(self, kind: str) -> dict[str, float]:
        """Per-layer self time over spans under ops of `kind`: each span's
        duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        out: dict[str, float] = {}
        for span in self.select(kind):
            out[span.layer] = out.get(span.layer, 0.0) + span.seconds - covered[span.sid]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"ops": [asdict(op) for op in self.ops], "spans": [asdict(s) for s in self.spans]},
                fh,
            )
