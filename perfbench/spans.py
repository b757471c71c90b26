"""Request spans recorded from outside the program, and their arithmetic.

:class:`Tracer` wraps the public entry points of each layer at the
attribute its callers look them up through: methods on their class,
functions on *every* module that imported them by name (patching only
the defining module would miss ``from x import f`` callers).  Each
wrapped call records a :class:`Span` — name, start, end, parent and
request id — in memory; nothing is written until the benchmark ends.

The active span travels in a :mod:`contextvars` variable, so nesting is
per thread and per asyncio task.  Executor hops keep the chain because
the traced benchmark's event loop submits work under a copy of the
caller's context (:func:`propagate_context`).

Backend kernel methods run ~10⁵ times per few hundred requests, too
many for a span each: a kernel call only adds its count and duration to
the innermost open span, and :func:`self_times` subtracts that duration
from the span's own time and charges it to the kernels.

Nothing here changes what a wrapped call computes or returns.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time
from typing import Callable

_ACTIVE: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_active_span", default=None
)


class Span:
    """One timed call: interval, parent span id and request id."""

    __slots__ = (
        "name", "sid", "parent", "rid", "thread", "start", "end",
        "kernel_s", "kernel_n", "info",
    )

    def __init__(self, name: str, sid: int, parent: "Span | None", rid) -> None:
        self.name = name
        self.sid = sid
        self.thread = threading.get_ident()
        self.parent = None if parent is None else parent.sid
        self.rid = rid if rid is not None or parent is None else parent.rid
        self.start = 0.0
        self.end = 0.0
        #: Seconds and calls of backend kernels run directly inside.
        self.kernel_s = 0.0
        self.kernel_n = 0
        self.info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"<Span {self.name} rid={self.rid} {self.duration * 1e3:.3f}ms>"


class Tracer:
    """Records spans around patched calls; :meth:`uninstall` restores all."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str, rid=None) -> tuple[Span, contextvars.Token]:
        span = Span(name, next(self._ids), _ACTIVE.get(), rid)
        token = _ACTIVE.set(span)
        span.start = self.clock()
        return span, token

    def finish(self, span: Span, token: contextvars.Token) -> None:
        span.end = self.clock()
        _ACTIVE.reset(token)
        self.spans.append(span)  # list.append is atomic under the GIL

    def traced(self, name: str, fn: Callable, note=None) -> Callable:
        """``fn`` wrapped in a span; ``note(span, args, result)`` may
        annotate ``span.info`` after the span closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span, token)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return wrapper

    def traced_async(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = tracer.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.finish(span, token)

        return wrapper

    def kernel(self, fn: Callable, timed: bool = True) -> Callable:
        """Count (and time) a kernel call against the innermost span."""
        clock = self.clock
        active = _ACTIVE.get

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                span = active()
                if span is not None:
                    span.kernel_n += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = active()
                if span is not None:
                    span.kernel_s += clock() - start
                    span.kernel_n += 1

        return wrapper

    # -- patching ------------------------------------------------------
    def patch_method(self, cls: type, attr: str, wrap: Callable) -> None:
        """Replace ``cls.attr`` by ``wrap(original)``; keeps static and
        class methods what they were."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: object = classmethod(wrap(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable, wrap: Callable, package: str = "repro") -> None:
        """Replace every module-level reference to ``fn`` inside
        ``package`` by one shared wrapper."""
        wrapped = wrap(fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def propagate_context(loop) -> None:
    """Make ``loop.run_in_executor`` run work under the caller's context.

    asyncio's executor hop does not copy :mod:`contextvars`, so without
    this an executor thread would start spans with no parent and no
    request id.  Applied to the benchmark's own loop, traced runs only.
    """
    submit = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        return submit(executor, contextvars.copy_context().run, func, *args)

    loop.run_in_executor = run_in_executor


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → self time: duration minus what children and kernels
    cover.  Children overlapping each other are counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration
        - covered(children.get(span.sid, []), span.start, span.end)
        - span.kernel_s
        for span in spans
    }


def decompose(
    spans: list[Span], root: Span, layer_of: Callable[[Span], str]
) -> tuple[dict[str, float], float]:
    """One request's time split by layer.

    Returns ``(layer → self seconds, unattributed seconds)`` where
    unattributed is the root duration minus every other span's self
    time and every kernel second — so the layers plus unattributed sum
    to the root duration by construction.  Kernel seconds are charged
    to the ``"kernels"`` layer key.
    """
    own = self_times(spans)
    layers: dict[str, float] = {}
    attributed = 0.0
    for span in spans:
        if span.sid == root.sid:
            continue
        layer = layer_of(span)
        layers[layer] = layers.get(layer, 0.0) + own[span.sid]
        attributed += own[span.sid]
    kernels = sum(span.kernel_s for span in spans)
    if kernels:
        layers["kernels"] = layers.get("kernels", 0.0) + kernels
        attributed += kernels
    return layers, root.duration - attributed
