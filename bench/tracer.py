"""Span tracing from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing the
layer's public function *at the name where its caller looks it up* (a
module global such as ``repro.engine.lockstep.evaluate_candidates_batch``
or a class attribute such as ``BatchRunner.run_orders``) with a wrapper
that records a span, and puts the original back afterwards.

Spans are kept in memory and written out only when a run ends.  Each span
records its name, start, end, the span that was open when it began (its
parent, tracked through a context variable so that asyncio tasks nest
correctly) and the operation it belongs to.  Wrappers record nothing in
any process other than the one that installed them: process-pool workers
forked while the wrappers are installed call straight through.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``extra(args, kwargs, result)`` -> a value stored on the span.
Extra = Optional[Callable[[tuple, dict, object], object]]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner`` is ``"module"`` or ``"module:Class"``."""

    owner: str
    attr: str
    span: str
    extra: Extra = None

    def resolve(self):
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        return owner


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    extra: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped targets while :meth:`instrument` is active."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "bench_parent_span", default=None
        )
        self._op: contextvars.ContextVar = contextvars.ContextVar(
            "bench_op", default=None
        )

    # ------------------------------------------------------------ recording

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        """Record one span around the ``with`` body; ``op`` starts a new
        operation (the span becomes that operation's root)."""
        op_token = self._op.set(op) if op is not None else None
        record = Span(
            id=next(self._ids), name=name, start=0.0, end=0.0,
            parent=self._parent.get(), op=self._op.get(),
        )
        token = self._parent.set(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._parent.reset(token)
            if op_token is not None:
                self._op.reset(op_token)
            self.spans.append(record)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                if os.getpid() != tracer.pid:
                    return await original(*args, **kwargs)
                with tracer.span(target.span) as record:
                    result = await original(*args, **kwargs)
                if target.extra is not None:
                    record.extra = target.extra(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            with tracer.span(target.span) as record:
                result = original(*args, **kwargs)
            if target.extra is not None:
                record.extra = target.extra(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def instrument(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Install a wrapper on every target; restore the originals on exit."""
        installed: List[Tuple[object, str, object]] = []
        try:
            for target in targets:
                owner = target.resolve()
                original = owner.__dict__[target.attr] if isinstance(
                    owner, type
                ) else getattr(owner, target.attr)
                installed.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(original, target))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)


@contextlib.contextmanager
def capture_results(owner: str, attr: str, sink: list) -> Iterator[list]:
    """Append every return value of ``owner.attr`` to ``sink`` (no timing).

    Used for output checks that need a value a public entry point computes
    but does not return (the grid scores behind ``headline_numbers``).
    """
    target = Target(owner, attr, span="")
    resolved = target.resolve()
    original = getattr(resolved, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(resolved, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(resolved, attr, original)


# ---------------------------------------------------------------- analysis


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def layer_table(spans: Sequence[Span], ops: int) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, each per operation."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
    for row in table.values():
        for key in row:
            row[key] /= max(ops, 1)
    return table


def format_table(title: str, table: Dict[str, Dict[str, float]]) -> str:
    """The self-time table a traced pass prints (ms per operation)."""
    op_ms = 1e3 * sum(row["self_s"] for row in table.values())
    lines = [
        title,
        f"  {'layer':<22} {'calls/op':>10} {'total ms/op':>12} "
        f"{'self ms/op':>11} {'self %':>7}",
    ]
    for name, row in sorted(
        table.items(), key=lambda item: -item[1]["self_s"]
    ):
        share = 100.0 * 1e3 * row["self_s"] / op_ms if op_ms else 0.0
        lines.append(
            f"  {name:<22} {row['calls']:>10.1f} {1e3 * row['total_s']:>12.2f} "
            f"{1e3 * row['self_s']:>11.2f} {share:>6.1f}%"
        )
    return "\n".join(lines)
