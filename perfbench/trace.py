"""Span recording around program callables, from outside the program.

:class:`Tracer` wraps each :class:`~perfbench.adapter.TracePoint` at
class or module level for the duration of a ``with`` block and puts
the originals back on exit.  Spans are aggregated in memory: per span
name, the call count, busy seconds, and self seconds (busy minus the
time covered by child spans).  Wrapped callables are synchronous apart
from one coroutine whose completion is only marked, so a stack of open
spans gives the nesting exactly.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple


class Recorder:
    """In-memory span and counter aggregates for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.state: Dict[object, object] = {}
        self._open: List[float] = []

    now = staticmethod(time.perf_counter)

    def enter(self) -> float:
        self._open.append(0.0)
        return self.now()

    def exit(self, span: str, start: float) -> float:
        seconds = self.now() - start
        children = self._open.pop()
        self.calls[span] += 1
        self.busy[span] += seconds
        self.self_s[span] += seconds - children
        if self._open:
            self._open[-1] += seconds
        return seconds

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def add(self, name: str, seconds: float) -> None:
        self.busy[name] += seconds

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)


class Tracer:
    """Context manager that installs wrappers and restores the originals."""

    def __init__(self, points: Sequence[object]) -> None:
        self.points = tuple(points)
        self.rec = Recorder()
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        try:
            for point in self.points:
                raw = vars(point.owner).get(point.attr)
                if raw is None:
                    raise AttributeError(
                        f"{point.owner!r} defines no {point.attr!r} to trace"
                    )
                self._saved.append((point.owner, point.attr, raw))
                setattr(point.owner, point.attr, self._wrap(point, raw))
        except BaseException:
            self._restore()
            raise
        return self.rec

    def __exit__(self, *_exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, point, fn):
        rec, span, pre, post = self.rec, point.span, point.pre, point.post
        if point.is_async:

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                result = await fn(*args, **kwargs)
                if post is not None:
                    post(rec, args, result, None, 0.0)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            start = rec.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = rec.exit(span, start)
            if post is not None:
                post(rec, args, result, token, seconds)
            return result

        return traced
