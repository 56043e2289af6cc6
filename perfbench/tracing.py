"""The traced run: host-time spans around each layer's public functions,
recorded from outside the program on the run's host clock
(:data:`harness.CLOCK`).

:func:`install_probes` wraps the functions and methods in
:data:`PROBES`.  A function is re-bound in every loaded module that
holds it (``accumulate_local`` lives in ``repro.core.reduce`` and is
imported by ``repro.core.scan``, ``repro.core.fusion`` and others), a
method on its class.  Each call records a span ``[name, start_ns,
end_ns, parent, op, amount, hit]`` on the calling thread's own list, so
recording takes no lock; the parent is the innermost open span of the
same thread.  A call into a probe whose span is already innermost on
the thread (``copy_for_transfer`` recursing into a tuple, ``LOCAL_SCAN``
calling ``LOCAL_XSCAN``) is folded into the open span.

The op id is benchmark state: the client thread and the benchmark's job
functions set it with :meth:`SpanStore.set_op`.  Engine-internal work
(gang dispatch, job finalize, telemetry hooks) runs on whichever thread
triggers it and inherits that thread's op id, so those spans can be
credited to a neighbouring job; only ``trace.unattributed_frac`` uses op
ids.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator

from harness import now_ns

# Span record layout.
NAME, START, END, PARENT, OP, AMOUNT, HIT = range(7)

#: Spans that are a client waiting on other threads, not work of a
#: layer; they are kept for ``engine.finalize.us`` but never cover op
#: wall time.
WAIT_SPANS = frozenset({"engine.result"})


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: list[list] | None = None
        self.stack: list[int] = []
        self.op: Hashable = None


class SpanStore:
    """In-memory spans and fn-entry/exit stamps of every thread."""

    enabled = True

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self.threads: list[list[list]] = []
        #: job key -> [first fn entry ns, last fn exit ns]
        self.stamps: dict[Hashable, list[int]] = {}

    def _spans(self) -> list[list]:
        st = self._local
        if st.spans is None:
            st.spans = []
            with self._lock:
                self.threads.append(st.spans)
        return st.spans

    def set_op(self, op: Hashable) -> None:
        """Tag the calling thread's next spans with ``op``."""
        self._local.op = op

    def fn_enter(self, job: Hashable) -> None:
        """A rank entered the job function (first entry wins)."""
        t = now_ns()
        with self._lock:
            slot = self.stamps.setdefault(job, [t, t])
            slot[0] = min(slot[0], t)

    def fn_exit(self, job: Hashable) -> None:
        """A rank left the job function (last exit wins)."""
        t = now_ns()
        with self._lock:
            slot = self.stamps.setdefault(job, [t, t])
            slot[1] = max(slot[1], t)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        amount: Callable[..., int] | None = None,
        hit: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``amount(*args, **kwargs)`` sizes the call (elements, bytes);
        ``hit(*args, **kwargs)`` returns a probe ``p``, and the span
        records ``p()`` after the call, e.g. whether a cache lookup hit.
        """
        local = self._local
        spans_of = self._spans

        def probe(*args: Any, **kwargs: Any) -> Any:
            spans = local.spans if local.spans is not None else spans_of()
            stack = local.stack
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [
                name, 0, 0, stack[-1] if stack else -1, local.op,
                amount(*args, **kwargs) if amount is not None else 0, None,
            ]
            after = hit(*args, **kwargs) if hit is not None else None
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = now_ns()
                stack.pop()
                if after is not None:
                    rec[HIT] = after()

        return functools.wraps(fn)(probe)

    def spans(self) -> Iterator[tuple[int, int, list]]:
        """``(thread, index, record)`` for every span of every thread."""
        with self._lock:
            threads = list(self.threads)
        for t, spans in enumerate(threads):
            for i, rec in enumerate(spans):
                yield t, i, rec

    def dump(self, path: Path) -> int:
        """Write every span as one JSON array per line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = 0
        with path.open("w") as f:
            for t, i, rec in self.spans():
                op = rec[OP]
                f.write(json.dumps(
                    [t, i, rec[NAME], rec[START], rec[END], rec[PARENT],
                     op if op is None or isinstance(op, (int, str)) else repr(op),
                     rec[AMOUNT], rec[HIT]]
                ))
                f.write("\n")
                n += 1
        return n


class NullStore:
    """Tracing off: the stamps and op tags cost one call each."""

    enabled = False

    def set_op(self, op: Hashable) -> None:
        pass

    def fn_enter(self, job: Hashable) -> None:
        pass

    def fn_exit(self, job: Hashable) -> None:
        pass


NULL_STORE = NullStore()


# --------------------------------------------------------------------------
# What gets wrapped.


def _nbytes(obj: Any) -> int:
    """Bytes of the arrays and scalars in a payload; other objects count
    zero (sizing them would cost more than the call being timed)."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (int, float, complex, bool)):
        return 8
    if isinstance(obj, (tuple, list)) and len(obj) <= 64:
        return sum(_nbytes(x) for x in obj)
    return 0


def _elements(comm: Any, op: Any, values: Any, *a: Any, **k: Any) -> int:
    return len(values)


def _proc_bytes(pool: Any, rank: int, op: Any, values: Any) -> int:
    return _nbytes(values)


def _cache_hit(cache: Any, *a: Any, **k: Any) -> Callable[[], bool]:
    misses = cache.misses
    return lambda: cache.misses == misses


#: ``(module, attribute path, span name, amount, hit)``.  A dotted path
#: names a method (patched on its class), a bare name a function
#: (re-bound in every module holding it).
PROBES: tuple[tuple[str, str, str, Any, Any], ...] = (
    ("repro.runtime.channels", "Mailbox.deliver", "runtime.channels.deliver", None, None),
    ("repro.runtime.channels", "Mailbox.collect", "runtime.channels.collect", None, None),
    ("repro.mpi.collectives", "run_plan", "mpi.collectives.run_plan", None, None),
    ("repro.mpi.schedule_cache", "ScheduleCache.choose", "mpi.schedule_cache.choose", None, _cache_hit),
    ("repro.engine.core", "Engine.submit", "engine.submit", None, None),
    ("repro.engine.job", "JobHandle.result", "engine.result", None, None),
    ("repro.runtime.world", "JobWorld.__init__", "runtime.world.bind", None, None),
    ("repro.obs.telemetry", "EngineTelemetry.job_admitted", "obs.telemetry.hooks", None, None),
    ("repro.obs.telemetry", "EngineTelemetry.job_rejected", "obs.telemetry.hooks", None, None),
    ("repro.obs.telemetry", "EngineTelemetry.job_assembled", "obs.telemetry.hooks", None, None),
    ("repro.obs.telemetry", "EngineTelemetry.job_running", "obs.telemetry.hooks", None, None),
    ("repro.obs.telemetry", "EngineTelemetry.job_done", "obs.telemetry.hooks", None, None),
    ("repro.obs.telemetry", "EngineTelemetry.job_retried", "obs.telemetry.hooks", None, None),
    ("repro.core.reduce", "accumulate_local", "core.accumulate", _elements, None),
    ("repro.core.reduce", "accumulate_local_many", "core.accumulate", _elements, None),
    ("repro.core.kernels", "compile_kernel", "core.kernels.compile", None, None),
    ("repro.core.kernels", "KernelCache.get", "core.kernels.get", None, _cache_hit),
    ("repro.localview.api", "LOCAL_REDUCE", "localview.combine", None, None),
    ("repro.localview.api", "LOCAL_ALLREDUCE", "localview.combine", None, None),
    ("repro.localview.api", "LOCAL_SCAN", "localview.combine", None, None),
    ("repro.localview.api", "LOCAL_XSCAN", "localview.combine", None, None),
    ("repro.runtime.procworld", "ProcPool.accumulate", "runtime.procworld.accumulate", _proc_bytes, None),
    ("repro.util.sizing", "copy_for_transfer", "util.sizing.copy", _nbytes, None),
    ("repro.nas.intsort.bucket_sort", "bucket_sort", "nas.is.sort", None, None),
    ("repro.nas.intsort.verify", "verify_mpi", "nas.is.verify_mpi", None, None),
    ("repro.nas.intsort.verify", "verify_rsmpi", "nas.is.verify_rsmpi", None, None),
    ("repro.nas.mg.zran3", "zran3_mpi", "nas.mg.zran3_mpi", None, None),
    ("repro.nas.mg.zran3", "zran3_rsmpi", "nas.mg.zran3_rsmpi", None, None),
)


def install_probes(store: SpanStore) -> Callable[[], None]:
    """Wrap every :data:`PROBES` target; returns the function that puts
    the originals back."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, path, span, amount, hit in PROBES:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, store.wrap(original, span, amount, hit))
            continue
        original = getattr(module, path)
        wrapped = store.wrap(original, span, amount, hit)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# --------------------------------------------------------------------------
# Analysis.


def merge(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time: its duration minus the part of its interval
    covered by its direct children (``spans`` is one thread's list,
    parents referenced by index)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        parent = rec[PARENT]
        if parent >= 0:
            p = spans[parent]
            s, e = max(rec[START], p[START]), min(rec[END], p[END])
            if e > s:
                children[parent].append((s, e))
    return [
        (rec[END] - rec[START]) - merge(children.get(i, ()))
        for i, rec in enumerate(spans)
    ]


class LayerTotals:
    """Per span name: calls, total ns, self ns, amount, lookups that hit."""

    def __init__(self, store: SpanStore) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.amount: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        with store._lock:
            threads = list(store.threads)
        for spans in threads:
            selfs = self_times(spans)
            for rec, own in zip(spans, selfs):
                name = rec[NAME]
                self.calls[name] += 1
                self.ns[name] += rec[END] - rec[START]
                self.self_ns[name] += own
                self.amount[name] += rec[AMOUNT]
                if rec[HIT]:
                    self.hits[name] += 1

    def hit_ratio(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.hits.get(name, 0) / calls if calls else 0.0


def unattributed_frac(
    store: SpanStore, op_intervals: dict[Hashable, tuple[int, int]]
) -> float:
    """Share of op wall time that no layer span of the op covers, on any
    thread.  Each op's spans are clipped to its interval before the
    union; client waits (:data:`WAIT_SPANS`) never count as cover."""
    by_op: dict[Hashable, list[tuple[int, int]]] = defaultdict(list)
    for _t, _i, rec in store.spans():
        op = rec[OP]
        if op in op_intervals and rec[NAME] not in WAIT_SPANS:
            by_op[op].append((rec[START], rec[END]))
    wall = covered = 0
    for op, (t0, t1) in op_intervals.items():
        wall += t1 - t0
        clipped = [
            (max(s, t0), min(e, t1)) for s, e in by_op.get(op, ())
            if min(e, t1) > max(s, t0)
        ]
        covered += merge(clipped)
    return 1.0 - covered / wall if wall else 0.0


def engine_waits(store: SpanStore) -> tuple[list[int], list[int]]:
    """Per job: ns from its ``Engine.submit`` call to the first rank
    entering the job function, and from the last rank leaving it to
    ``JobHandle.result`` returning."""
    submit_start: dict[Hashable, int] = {}
    result_end: dict[Hashable, int] = {}
    for _t, _i, rec in store.spans():
        if rec[NAME] == "engine.submit":
            submit_start.setdefault(rec[OP], rec[START])
        elif rec[NAME] == "engine.result":
            result_end[rec[OP]] = rec[END]
    queue, final = [], []
    for job, (t_in, t_out) in store.stamps.items():
        if job in submit_start:
            queue.append(t_in - submit_start[job])
        if job in result_end:
            final.append(result_end[job] - t_out)
    return queue, final


class VirtualPhases:
    """Per-phase virtual time from the ``repro.obs`` tracer captures:
    outermost ``accumulate``/``combine``/``generate`` spans, summed over
    ranks and divided by the job's rank count."""

    PHASES = ("accumulate", "combine", "generate")

    def __init__(self) -> None:
        self.seconds = {p: 0.0 for p in self.PHASES}

    def add(self, capture: Any) -> None:
        if capture is None:
            return
        by_id = capture.span_parents()
        for span in by_id.values():
            if span.phase not in self.seconds:
                continue
            parent = by_id.get(span.parent_id)
            nested = False
            while parent is not None:
                if parent.phase in self.seconds:
                    nested = True
                    break
                parent = by_id.get(parent.parent_id)
            if not nested:
                self.seconds[span.phase] += span.duration / capture.nprocs
