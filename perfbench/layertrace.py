"""Spans at the program's layer boundaries, recorded from outside it.

:class:`LayerTracer` wraps the public entry points of each layer at class
level (``ClusterSimulator.__init__``/``run``, every registered policy's
``choose`` and ``Policy.on_complete``, the cache ``access``/``route``
methods, the sanitizer hooks, the span writer and tracer, and
``Dispatcher.admit``).  Install it before the objects are built, because
the simulator's fast path binds ``policy.choose`` once at construction.

Each wrapped call records one span (name, start, end, parent) into a
per-thread buffer of flat arrays, so recording from the live cluster's
handler threads never interleaves and a million spans cost about 40 MB.
Counts (cache hits, dispatched engine events, simulated requests) are
kept at the same boundaries.  Pool workers forked by ``run_many``
inherit the wrappers; each worker drops the buffers it inherited and
spools what it records to a file after every simulation, and
:meth:`LayerTracer.collect_spool` brings those spans home.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["LayerTracer", "SpanRecord", "aggregate", "metric_label", "self_times", "write_spans"]

#: (pid, span id, parent id or -1, name, start, end); times are
#: ``time.perf_counter`` seconds, comparable across forked processes.
SpanRecord = Tuple[int, int, int, str, float, float]

_NO_PARENT = -1


def metric_label(policy: str) -> str:
    """Policy name as it appears in metric names (``lard/r`` -> ``lard-r``)."""
    return policy.replace("/", "-")


class _Buffer:
    """One thread's spans as parallel arrays, plus its open-span stack."""

    __slots__ = ("ids", "parents", "names", "starts", "ends", "counts", "stack")

    def __init__(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.stack: List[int] = [_NO_PARENT]


class LayerTracer:
    """Records spans at layer boundaries while installed (see module doc)."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.policy_label = "none"
        self._owner_pid = os.getpid()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._imported: List[SpanRecord] = []
        self._imported_counts: Counter = Counter()
        self._patches: List[Tuple[type, str, Any]] = []
        self._spooled = 0

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            with self._lock:
                found = self._name_ids.setdefault(name, len(self._names))
                if found == len(self._names):
                    self._names.append(name)
        return found

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
            return buf

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a call the benchmark itself makes."""
        buf = self._buffer()
        name_id = self._name_id(name)
        sid = next(self._ids)
        parent = buf.stack[-1]
        buf.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            buf.stack.pop()
            buf.ids.append(sid)
            buf.parents.append(parent)
            buf.names.append(name_id)
            buf.starts.append(start)
            buf.ends.append(end)

    def _wrap(
        self,
        func: Callable[..., Any],
        name_of: Callable[[], str],
        after: Optional[Callable[[_Buffer, Any, Any], None]] = None,
    ) -> Callable[..., Any]:
        tracer = self

        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            buf = tracer._buffer()
            name_id = tracer._name_id(name_of())
            sid = next(tracer._ids)
            parent = buf.stack[-1]
            buf.stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(obj, *args, **kwargs)
            finally:
                end = time.perf_counter()
                buf.stack.pop()
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.starts.append(start)
                buf.ends.append(end)
            if after is not None:
                after(buf, obj, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def _patch(
        self,
        cls: type,
        attr: str,
        name_of: Callable[[], str],
        after: Optional[Callable[[_Buffer, Any, Any], None]] = None,
    ) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name_of, after))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary at class level (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.cache import GDSCache, GlobalMemorySystem
        from repro.cache.directory import GlobalCacheDirectory
        from repro.cluster import ClusterSimulator
        from repro.core import POLICY_NAMES, make_policy
        from repro.handoff import Dispatcher
        from repro.obs import SimTracer, SpanWriter
        from repro.sim import InvariantSanitizer

        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.spool_dir.glob("*.json"):  # left by a run that died
            stale.unlink()
        os.register_at_fork(after_in_child=self._after_fork)

        def simulator_ran(buf: _Buffer, sim: Any, _result: Any) -> None:
            buf.counts["sim.events"] += sim.engine.events_dispatched
            buf.counts["sim.requests"] += len(sim.trace)
            if os.getpid() != self._owner_pid and len(buf.stack) == 1:
                self._spool()

        def construct(sim: Any, trace: Any, config: Any, *args: Any, **kwargs: Any) -> None:
            # The label must be set before the policy exists: LB/GC's
            # directory and the GMS are built inside the constructor.
            self.policy_label = metric_label(config.policy)
            original_init(sim, trace, config, *args, **kwargs)

        original_init = ClusterSimulator.__dict__["__init__"]
        self._patches.append((ClusterSimulator, "__init__", original_init))
        setattr(
            ClusterSimulator,
            "__init__",
            self._wrap(construct, lambda: "cluster.build"),
        )
        self._patch(ClusterSimulator, "run", lambda: "cluster.run", simulator_ran)

        # Every class that defines the method, so an override is wrapped too.
        policy_classes = {type(make_policy(name, 4, node_cache_bytes=1)) for name in POLICY_NAMES}
        for attr, span in (("choose", "choose"), ("on_complete", "complete")):
            owners = {
                cls
                for policy_cls in policy_classes
                for cls in policy_cls.__mro__
                if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False)
            }
            for cls in sorted(owners, key=lambda c: c.__name__):
                self._patch(cls, attr, lambda span=span: f"core.{self.policy_label}.{span}")

        def hit_counter(key: str, is_hit: Callable[[Any], bool]) -> Callable[[_Buffer, Any, Any], None]:
            def after(buf: _Buffer, _obj: Any, result: Any) -> None:
                if is_hit(result):
                    buf.counts[key] += 1

            return after

        self._patch(GDSCache, "access", lambda: "cache.gds.access", hit_counter("cache.gds.hits", bool))
        self._patch(
            GlobalMemorySystem,
            "access",
            lambda: "cache.gms.access",
            hit_counter("cache.gms.hits", lambda r: r.is_memory_hit),
        )
        self._patch(
            GlobalCacheDirectory,
            "route",
            lambda: "cache.directory.access",
            hit_counter("cache.directory.hits", lambda r: r.predicted_hit),
        )
        self._patch(InvariantSanitizer, "after_event", lambda: "sim.sanitize")
        self._patch(InvariantSanitizer, "final_check", lambda: "sim.sanitize")

        def span_written(buf: _Buffer, _obj: Any, _result: Any) -> None:
            buf.counts["obs.spans"] += 1

        for attr in ("write", "write_sample", "write_fault"):
            self._patch(SpanWriter, attr, lambda: "obs.write")
        self._patch(SpanWriter, "write_span", lambda: "obs.write", span_written)
        for attr in ("begin", "finish", "lost"):
            self._patch(SimTracer, attr, lambda: "obs.tracer")
        self._patch(Dispatcher, "admit", lambda: "handoff.admit")

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- pool workers -------------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._patches:
            return
        # The child starts with the parent's spans in memory; they are
        # the parent's to report, so the child forgets them.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._imported = []
        self._imported_counts = Counter()

    def _spool(self) -> None:
        spans, counts = self._drain()
        self._spooled += 1
        path = self.spool_dir / f"{os.getpid()}-{self._spooled}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": spans, "counts": counts}), encoding="utf-8")
        os.replace(tmp, path)

    def collect_spool(self) -> None:
        """Import and delete every span file written by pool workers."""
        for path in sorted(self.spool_dir.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            self._imported.extend(tuple(span) for span in payload["spans"])
            self._imported_counts.update(payload["counts"])
            path.unlink()

    # -- results --------------------------------------------------------------------

    def _drain(self) -> Tuple[List[SpanRecord], Dict[str, int]]:
        """Take this process's spans and counts out of the buffers."""
        pid = os.getpid()
        names = self._names
        spans: List[SpanRecord] = []
        counts: Counter = Counter()
        with self._lock:
            buffers, self._buffers = self._buffers, []
            self._local = threading.local()
        for buf in buffers:
            spans.extend(
                (pid, sid, parent, names[name], start, end)
                for sid, parent, name, start, end in zip(
                    buf.ids, buf.parents, buf.names, buf.starts, buf.ends
                )
            )
            counts.update(buf.counts)
        return spans, dict(counts)

    def results(self) -> Tuple[List[SpanRecord], Dict[str, int]]:
        """Every span and count recorded so far, pool workers' included."""
        spans, counts = self._drain()
        spans.extend(self._imported)
        merged = Counter(counts)
        merged.update(self._imported_counts)
        self._imported = []
        self._imported_counts = Counter()
        return spans, dict(merged)


def write_spans(spans: Iterable[SpanRecord], path: Path) -> None:
    """Write spans as CSV: ``pid,id,parent,name,start,end``."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("pid,id,parent,name,start,end\n")
        for pid, sid, parent, name, start, end in spans:
            out.write(f"{pid},{sid},{parent},{name},{start!r},{end!r}\n")


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[SpanRecord]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for pid, _sid, parent, _name, start, end in spans:
        if parent != _NO_PARENT:
            children[(pid, parent)].append((start, end))
    result = []
    for pid, sid, _parent, _name, start, end in spans:
        kids = children.get((pid, sid))
        result.append(end - start - (_covered(kids, start, end) if kids else 0.0))
    return result


def aggregate(spans: List[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[3], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[5] - span[4]
        entry["self_s"] += own
    return out
