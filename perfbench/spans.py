"""In-memory span recorder that wraps slotmac's public functions from outside.

A traced pass replaces module attributes that callers resolve at call time
(``cli.run_tournament``, ``tournament.run_games``, ...) with timing
wrappers, and puts the originals back when the pass ends.  Nothing under
``src/`` changes.  Spans carry a thread id and a parent: a span opened on a
worker thread with nothing open on that thread is parented to the innermost
span open on the client thread, which is the call that handed it the work.

Hot functions (``capture.capture_objective`` is called ~10^5 times per
pass) are aggregated instead: a count and a total time, charged to the
innermost open span so that span's self time excludes them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    tid: int
    parent: int | None
    t0: float
    t1: float = 0.0
    tag: object = None
    agg_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    agg_s: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_stack: list[Span] = self._stack()
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._client_stack[-1] if self._client_stack else None

    @contextmanager
    def span(self, name: str, tag: object = None):
        stack = self._stack()
        parent = self._innermost()
        s = Span(next(self._ids), name, threading.get_ident(),
                 parent.id if parent is not None else None, time.perf_counter(), tag=tag)
        stack.append(s)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def patch(self, owner, attr: str, name: str, tag=None, on_result=None) -> None:
        """Replace ``owner.attr`` (a module attribute or a dict entry) by a
        wrapper that records one span per call."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, tag):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._set(owner, attr, wrapper, original)

    def patch_aggregate(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls and adds
        their time to the innermost open span.  It takes no lock: aggregate
        only functions called from one thread."""
        original = getattr(owner, attr)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = clock() - t0
                host = self._innermost()
                if host is not None:
                    host.agg_s += dt
                self.agg_s[name] = self.agg_s.get(name, 0.0) + dt
                self.counts[name] = self.counts.get(name, 0) + 1

        self._set(owner, attr, wrapper, original)

    def replace(self, owner, attr: str, value) -> None:
        self._set(owner, attr, value, getattr(owner, attr))

    def _set(self, owner, attr, value, original) -> None:
        self._restore.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every span: its duration minus the union of its
        children's intervals (clipped to it) minus aggregated hot calls."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            intervals = sorted(
                (max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, ())
            )
            covered, end = 0.0, -float("inf")
            for lo, hi in intervals:
                lo = max(lo, end)
                if hi > lo:
                    covered += hi - lo
                    end = hi
            out[s.id] = s.duration - covered - s.agg_s
        return out

    def total(self, name: str, tag_filter=None) -> float:
        return sum(s.duration for s in self.named(name, tag_filter))

    def named(self, name: str, tag_filter=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (tag_filter is None or tag_filter(s.tag))]

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span name up to its first dot);
        aggregated calls count toward their own layer."""
        selfs = self.self_times()
        layers: dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + selfs[s.id]
        for name, seconds in self.agg_s.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers
