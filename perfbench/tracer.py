"""Span tracer for the benchmark's traced run.

The tracer wraps functions and methods of the program from outside: it
rebinds every namespace that holds the original object (module globals,
class attributes such as ``__rmul__ = __mul__``, and module-level lists such
as a suite registry), records one span per call, and restores everything on
exit.  Spans are kept per thread.  A span opened on a thread with no open
span of its own is attributed to the innermost open span of the thread that
started the tracer, which is the span that handed the work to a pool.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans (the union of the children, so children running
on two threads at once are not subtracted twice).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Quantities = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    quantities: Dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One object to wrap: ``path`` is ``"func"`` or ``"Class.method"`` inside
    ``module``.  ``span`` records timed spans; otherwise calls are only counted.
    ``quantities`` maps (args, kwargs, result) to counts summed per name."""

    module: str
    path: str
    name: str
    span: bool = True
    quantities: Optional[Quantities] = None


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered_length(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


class Tracer:
    """Context manager that installs wrappers for ``targets`` while active."""

    def __init__(self, targets: Sequence[Target], package: str):
        self.targets = list(targets)
        self.package = package
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[List[Span]] = []
        self._owner_stack: List[int] = []
        self._counters: Dict[str, itertools.count] = {}
        self._counts: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------------

    def _thread_state(self) -> Tuple[List[int], List[Span]]:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], [])
            with self._lock:
                self._per_thread.append(st[1])
        return st

    def _wrap_span(self, fn, target: Target):
        name, quantities = target.name, target.quantities
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = tracer._thread_state()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._owner_stack[-1]
                except IndexError:
                    parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append(Span(sid, parent, name, start, time.perf_counter(), {}))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            q = quantities(args, kwargs, result) if quantities else {}
            spans.append(Span(sid, parent, name, start, end, q))
            return result

        return wrapper

    def _wrap_count(self, fn, target: Target):
        counter = self._counters.setdefault(target.name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)  # atomic in CPython, so no lock on the hot path
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def _install(self, target: Target) -> None:
        module = sys.modules.get(f"{self.package}.{target.module}")
        if module is None:
            raise LookupError(f"module {self.package}.{target.module} is not imported")
        *owner_path, attr = target.path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)  # AttributeError when renamed: fail loudly
        wrap = self._wrap_span if target.span else self._wrap_count
        wrapper = wrap(original, target)
        # a class rebinds its aliases (``__rmul__ = __mul__``); a function is
        # rebound in every module that imported it and in module-level lists
        holders = [owner] if isinstance(owner, type) else self._modules()
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append(functools.partial(setattr, holder, key, original))
                    setattr(holder, key, wrapper)
                elif isinstance(value, list) and not isinstance(owner, type):
                    for i, item in enumerate(value):
                        if item is original:
                            self._undo.append(functools.partial(value.__setitem__, i, original))
                            value[i] = wrapper

    def __enter__(self) -> "Tracer":
        self._owner_stack = self._thread_state()[0]
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        for name, counter in self._counters.items():
            self._counts[name] = next(counter)

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]

    def counts(self) -> Dict[str, int]:
        """Calls of each count-only target; read after the tracer has exited."""
        return dict(self._counts)
