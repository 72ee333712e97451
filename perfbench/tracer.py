"""Layer tracing from outside the program.

The tracer replaces public functions at the module attributes through which
their callers look them up (``rfcalc.theorems.integrate``,
``rfcalc.expr.exp_construct``, ...) with timing wrappers, and puts the
originals back on ``uninstall``.  Nothing inside ``src/rfcalc`` changes.

Every wrapped call pushes a frame on a per-thread stack.  On return its
duration is charged to the parent frame as child time, so a frame's self
time is its duration minus what its children covered.  Coarse calls (one
per request, refinement level or catalog row) are also kept as spans:
``(id, name, start, end, parent, request id, thread, child time, CPU time)``.  Calls made once
per sample (``eval_expr``, the tower inside integrands) are only
aggregated: count, total time, self time.  A call that starts on an empty
stack in a worker thread (``run_catalog``'s pool) becomes a span whose
parent is the innermost span open on the main thread, so pool work is
attributed to its verify pass.  Spans also carry the thread CPU time they
used, which leaves out time spent waiting for the interpreter lock.  Spans
stay in memory until ``write``.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter, thread_time

LAYERS = ("partitions", "integrator", "expr", "elementary", "direct_eval", "theorems", "cli")

# Frame fields: name, start, child time, direct child calls, direct child
# calls that reported success, span id (None when aggregated only).
_NAME, _START, _CHILD, _KIDS, _KIDS_OK, _SID = range(6)


class Stat:
    __slots__ = ("calls", "total", "self_time", "kids", "kids_ok", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.kids = 0
        self.kids_ok = 0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, list]] = []
        self._main_stack: list | None = None
        self._installed: list[tuple[object, str, object]] = []
        self._request = self.wrap("bench.request", lambda fn, *args: fn(*args), span=True)
        self.rid: int | None = None

    # -- per-thread state -------------------------------------------------
    def _thread_state(self):
        local = self._local
        local.stack = []
        local.stats = {}
        local.spans = []
        local.ident = threading.get_ident()
        with self._lock:
            self._threads.append((local.stats, local.spans))
            if threading.current_thread() is threading.main_thread():
                self._main_stack = local.stack
        return local

    def _adopter(self):
        stack = self._main_stack
        if not stack:
            return None
        for frame in reversed(stack[:]):
            if frame[_SID] is not None:
                return frame[_SID]
        return None

    # -- wrapping ---------------------------------------------------------
    def wrap(self, name: str, fn, span: bool = False, observe=None):
        tracer = self

        local = self._local

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_state().stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[_NAME] == name:
                # Recursion, or the same function reached through a second
                # wrapped attribute: one frame already covers it.
                return fn(*args, **kwargs)
            sid = next(tracer._ids) if (span or parent is None) else None
            c0 = thread_time() if sid is not None else 0.0
            t0 = perf_counter()
            frame = [name, t0, 0.0, 0, 0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            dur = t1 - t0
            stats = local.stats
            st = stats.get(name)
            if st is None:
                st = stats[name] = Stat()
            st.calls += 1
            st.total += dur
            st.self_time += dur - frame[_CHILD]
            st.kids += frame[_KIDS]
            st.kids_ok += frame[_KIDS_OK]
            if parent is not None:
                parent[_CHILD] += dur
                parent[_KIDS] += 1
            if sid is not None:
                pid = parent[_SID] if parent is not None else tracer._adopter()
                local.spans.append(
                    (sid, name, t0, t1, pid, tracer.rid, local.ident, frame[_CHILD], thread_time() - c0)
                )
            if observe is not None:
                observe(st, args, kwargs, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, span: bool = False, observe=None) -> None:
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, span, observe))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def request(self, rid: int, fn, *args):
        """Runs ``fn(*args)`` as one benchmark request, the root of its spans."""
        self.rid = rid
        try:
            return self._request(fn, *args)
        finally:
            self.rid = None

    # -- results ----------------------------------------------------------
    def merged_stats(self) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        with self._lock:
            threads = list(self._threads)
        for stats, _ in threads:
            for name, st in stats.items():
                acc = out.setdefault(name, Stat())
                acc.calls += st.calls
                acc.total += st.total
                acc.self_time += st.self_time
                acc.kids += st.kids
                acc.kids_ok += st.kids_ok
                for key, value in st.extra.items():
                    acc.add(key, value)
        return out

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        out = [s for _, spans in threads for s in spans]
        out.sort()
        return out

    def cross_thread_children(self) -> dict[int, list[tuple]]:
        """Spans whose parent ran on another thread, keyed by parent id."""
        spans = self.spans()
        thread_of = {s[0]: s[6] for s in spans}
        adopted: dict[int, list[tuple]] = {}
        for s in spans:
            pid = s[4]
            if pid is not None and thread_of.get(pid) != s[6]:
                adopted.setdefault(pid, []).append(s)
        return adopted

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "thread", "child_s", "cpu_s")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans()], fh)


def union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
