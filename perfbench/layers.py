"""In-memory spans around calls into the program's layers.

The traced runs time the program from the outside: they wrap public
functions and methods of each layer (or time the benchmark's own calls
into them), keep every span in memory, and write the spans out as JSONL
when the run ends.  Nothing in ``src/`` is changed; the wrappers are
removed again before the run returns.

A span's *self time* is its duration minus the part covered by its child
spans on the same thread, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Spans:
    """A thread-aware span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident()}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.records[index]["end"] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager timing one block as span *name*."""
        return _SpanContext(self, name)

    def wrap(self, owner: Any, attr: str, name: str,
             namer: Optional[Callable[..., str]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span *name*
        (or ``namer(*args, **kwargs)`` when given)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            index = self._open(namer(*args, **kwargs) if namer else name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        setattr(owner, attr, timed)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back (last wrapped first)."""
        while self._restore:
            self._restore.pop()()

    # -- reading -------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None]

    def self_times(self) -> Dict[str, float]:
        """Total self time (seconds) per span name."""
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["end"] is not None and record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.records):
            if record["end"] is None:
                continue
            own = record["end"] - record["start"] - child_time[index]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.records):
                handle.write(json.dumps(dict(record, id=index)) + "\n")


class _SpanContext:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name
        self.index: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        self.index = self.spans._open(self.name)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.spans._close(self.index)
        return False


class TimedLock:
    """Stands in for a ``threading.RLock``; each acquire is a span.

    Only the wait before the lock is granted is spanned: the work done
    while holding the lock belongs to the layers that do it.
    """

    def __init__(self, inner: Any, spans: Spans, name: str) -> None:
        self._inner = inner
        self._spans = spans
        self._name = name

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        index = self._spans._open(self._name)
        try:
            return self._inner.acquire(*args, **kwargs)
        finally:
            self._spans._close(index)

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


class KernelCounts:
    """Counts kernel writes and notifications through the public hooks.

    Used only in the untimed exact-count pass: the hooks cost a call per
    write and per notification.
    """

    def __init__(self) -> None:
        self.writes = 0
        self.notifications = 0
        self._previous: Optional[tuple] = None

    def _on_write(self, _element: Any, _feature: str) -> None:
        self.writes += 1

    def _on_notify(self, _notification: Any) -> None:
        self.notifications += 1

    def __enter__(self) -> "KernelCounts":
        from repro.mof.kernel import set_write_hook
        from repro.mof.notify import set_notify_hook
        self._previous = (set_write_hook(self._on_write),
                          set_notify_hook(self._on_notify))
        return self

    def __exit__(self, *exc: object) -> None:
        from repro.mof.kernel import set_write_hook
        from repro.mof.notify import set_notify_hook
        set_write_hook(self._previous[0])
        set_notify_hook(self._previous[1])


def ocl_cache_counts() -> Dict[str, int]:
    """Hits and misses of ``repro.ocl.compile``'s parse, compile and node
    caches together (cumulative, from ``cache_stats()``)."""
    from repro.ocl.compile import cache_stats
    stats = cache_stats()
    return {kind: sum(stats[f"{cache}_{kind}"]
                      for cache in ("parse", "compile", "node"))
            for kind in ("hits", "misses")}
