"""Request-span schema and streaming JSONL sink.

One request = one **span**: arrival, the front-end's dispatch decision
(policy, chosen node, per-node load snapshot), the cache outcome, the
per-phase time breakdown (connection establishment, queueing, disk,
CPU transmit, teardown), and completion.  The simulator and the live
hand-off prototype both emit this schema, so the same analysis code
(:mod:`repro.obs.analyze`) covers paper Sections 3.3/4.4 (simulated
delays) and Section 5.2 (prototype measurements).

A span log is a JSONL stream of four record kinds:

``meta``
    First line of every log: ``{"kind": "meta", "schema": 1,
    "source": "sim" | "live"}``.
``span``
    One completed request (see :class:`Span`).
``sample``
    One periodic time-series observation (per-node load, rolling miss
    ratio, queue depths) — the generalization of the simulator's
    completions-only ``timeline``.
``fault``
    One injected-fault event: ``{"kind": "fault", "t": seconds,
    "node": int, "event": name}`` plus free-form detail fields.  The
    simulator's fault model and the live :class:`FaultInjector` both
    emit this kind, so simulated and live chaos runs are analyzed by
    the same tooling.

Timestamps are seconds on the emitter's clock: simulated time for the
simulator, seconds since the writer was opened for the live cluster.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, List, Mapping, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "SOURCES",
    "OUTCOMES",
    "FAULT_EVENTS",
    "Span",
    "SpanWriter",
    "SpanLog",
    "SchemaError",
    "validate_record",
    "read_span_log",
    "parse_span_log",
]

#: Bump when a field changes meaning; readers refuse unknown versions.
SCHEMA_VERSION = 1

#: Who emitted the log.
SOURCES = ("sim", "live")

#: How the request's data path resolved.  ``hit``/``miss`` are the paper's
#: cache outcomes; ``coalesced`` is a miss served by another request's
#: in-flight disk read; the ``gms_*`` outcomes are WRR/GMS memory hits;
#: ``dynamic`` is an uncacheable CGI request (neither hit nor miss);
#: ``rejected`` is a live 503 (admission timeout or no back-end);
#: ``lost`` is a fault-model request abandoned after exhausting its
#: client retries against a crashed-but-undetected node.
OUTCOMES = frozenset(
    {
        "hit",
        "miss",
        "coalesced",
        "gms_local",
        "gms_remote",
        "dynamic",
        "rejected",
        "error",
        "lost",
    }
)

#: Injected-fault event names.  Simulator fault model: ``crash`` (node
#: goes dark), ``detect`` (membership notices and fails it), ``join``
#: (rejoin), ``brownout_start``/``brownout_end`` (degraded rates).
#: Live injector primitives: ``kill``, ``revive``, ``refuse``,
#: ``stall``, ``delay``, ``sever``, ``gray`` (heartbeat failure).
FAULT_EVENTS = frozenset(
    {
        "crash",
        "detect",
        "join",
        "brownout_start",
        "brownout_end",
        "kill",
        "revive",
        "refuse",
        "stall",
        "delay",
        "sever",
        "gray",
    }
)


class SchemaError(ValueError):
    """A record does not conform to the span-log schema."""


@dataclass
class Span:
    """One request's life, arrival to completion.

    ``phases`` maps phase name to seconds spent in that phase (including
    queueing for the phase's resource); the phases partition
    ``[t_arrival, t_complete]``, so they sum to :attr:`delay_s` (up to
    float addition error).  Phase names used by the emitters:

    * simulator — ``establish``, ``queue`` (coalesced-read wait),
      ``disk`` (disk service incl. FCFS queueing), ``cpu`` (transmit),
      ``teardown``;
    * live cluster — ``inspect`` (request-head read), ``admit``
      (admission-slot wait), ``handoff``, ``serve`` (back-end service
      excl. the disk stand-in), ``disk`` (miss-penalty sleep).
    """

    req: int
    target: str
    size: int
    policy: str
    node: int
    t_arrival: float
    t_dispatch: float
    t_complete: float = 0.0
    outcome: str = "error"
    load: Optional[List[int]] = None
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def delay_s(self) -> float:
        """Arrival-to-completion latency (the paper's per-request delay)."""
        return self.t_complete - self.t_arrival

    def to_record(self) -> Dict[str, object]:
        """The JSONL representation of this span."""
        record: Dict[str, object] = {
            "kind": "span",
            "req": self.req,
            "target": self.target,
            "size": self.size,
            "policy": self.policy,
            "node": self.node,
            "t_arrival": self.t_arrival,
            "t_dispatch": self.t_dispatch,
            "t_complete": self.t_complete,
            "outcome": self.outcome,
            "phases": dict(self.phases),
        }
        if self.load is not None:
            record["load"] = list(self.load)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "Span":
        """Parse (and validate) a span record back into a :class:`Span`."""
        validate_record(record)
        if record.get("kind") != "span":
            raise SchemaError(f"expected a span record, got kind={record.get('kind')!r}")
        load = record.get("load")
        phases = record.get("phases", {})
        if not isinstance(phases, dict):  # pragma: no cover - validate_record guards
            raise SchemaError("phases must be an object")
        return cls(
            req=int(record["req"]),  # type: ignore[arg-type]
            target=str(record["target"]),
            size=int(record["size"]),  # type: ignore[arg-type]
            policy=str(record["policy"]),
            node=int(record["node"]),  # type: ignore[arg-type]
            t_arrival=float(record["t_arrival"]),  # type: ignore[arg-type]
            t_dispatch=float(record["t_dispatch"]),  # type: ignore[arg-type]
            t_complete=float(record["t_complete"]),  # type: ignore[arg-type]
            outcome=str(record["outcome"]),
            load=[int(v) for v in load] if isinstance(load, list) else None,
            phases={str(k): float(v) for k, v in phases.items()},
        )


_SPAN_FIELD_TYPES: Dict[str, type] = {
    "req": int,
    "target": str,
    "size": int,
    "policy": str,
    "node": int,
    "outcome": str,
}
_SPAN_TIME_FIELDS = ("t_arrival", "t_dispatch", "t_complete")


def _require_number(record: Mapping[str, object], name: str) -> float:
    value = record.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def validate_record(record: Mapping[str, object]) -> None:
    """Raise :class:`SchemaError` unless ``record`` is schema-conformant."""
    kind = record.get("kind")
    if kind == "meta":
        if record.get("schema") != SCHEMA_VERSION:
            raise SchemaError(f"unknown schema version: {record.get('schema')!r}")
        if record.get("source") not in SOURCES:
            raise SchemaError(f"meta source must be one of {SOURCES}")
        return
    if kind == "sample":
        _require_number(record, "t")
        return
    if kind == "fault":
        t = _require_number(record, "t")
        if t < 0:
            raise SchemaError(f"fault time must be non-negative, got {t!r}")
        node = record.get("node")
        if isinstance(node, bool) or not isinstance(node, int):
            raise SchemaError(f"fault field 'node' must be int, got {node!r}")
        event = record.get("event")
        if event not in FAULT_EVENTS:
            raise SchemaError(f"unknown fault event: {event!r}")
        return
    if kind != "span":
        raise SchemaError(f"unknown record kind: {kind!r}")
    for name, expected in _SPAN_FIELD_TYPES.items():
        value = record.get(name)
        if isinstance(value, bool) or not isinstance(value, expected):
            raise SchemaError(
                f"span field {name!r} must be {expected.__name__}, got {value!r}"
            )
    if record["outcome"] not in OUTCOMES:
        raise SchemaError(f"unknown span outcome: {record['outcome']!r}")
    times = [_require_number(record, name) for name in _SPAN_TIME_FIELDS]
    t_arrival, t_dispatch, t_complete = times
    if not (0.0 <= t_arrival <= t_dispatch <= t_complete):
        raise SchemaError(
            f"span times must satisfy 0 <= t_arrival <= t_dispatch <= "
            f"t_complete, got {times}"
        )
    phases = record.get("phases")
    if not isinstance(phases, dict):
        raise SchemaError("span field 'phases' must be an object")
    for phase, seconds in phases.items():
        if not isinstance(phase, str):
            raise SchemaError(f"phase names must be strings, got {phase!r}")
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise SchemaError(f"phase {phase!r} must map to seconds, got {seconds!r}")
        if seconds < 0:
            raise SchemaError(f"phase {phase!r} is negative: {seconds!r}")
    load = record.get("load")
    if load is not None:
        if not isinstance(load, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in load
        ):
            raise SchemaError("span field 'load' must be a list of integers")


class SpanWriter:
    """Streaming JSONL span sink, shared by every emitting thread.

    The writer owns the output stream: records are serialized and written
    under a lock, so the simulator's single thread and the live cluster's
    handler/worker/monitor threads can all share one instance.  The live
    cluster also uses :meth:`clock` (seconds since the writer opened) and
    :meth:`next_req` (a process-wide request sequence) so spans emitted
    from different threads stay consistently stamped.
    """

    __guarded_by__ = {
        "records_written": "_lock",
        "spans_written": "_lock",
        "_req_seq": "_lock",
    }

    def __init__(self, sink: Union[str, Path, IO[str]], source: str = "sim") -> None:
        if source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
        self.source = source
        self._lock = threading.Lock()
        self._owns_stream = isinstance(sink, (str, Path))
        self._stream: IO[str] = (
            open(sink, "w", encoding="utf-8")
            if isinstance(sink, (str, Path))
            else sink
        )
        self._t0 = time.perf_counter()  # lardlint: disable=transitive-nondeterminism -- span timestamps are observability metadata, never fed back into scheduling
        self.records_written = 0
        self.spans_written = 0
        self._req_seq = 0
        self._closed = False
        self.write({"kind": "meta", "schema": SCHEMA_VERSION, "source": source})

    # -- clocks and sequences --------------------------------------------------

    def clock(self) -> float:
        """Seconds since the writer was opened (the live emitters' clock)."""
        return time.perf_counter() - self._t0  # lardlint: disable=transitive-nondeterminism -- live emitters' clock; simulated tracing stamps engine time instead

    def at(self, perf_t: float) -> float:
        """Convert a ``time.perf_counter()`` stamp taken elsewhere (e.g.
        at accept time) onto this writer's clock."""
        return perf_t - self._t0

    def next_req(self) -> int:
        """Allocate the next request sequence number (live emitters)."""
        with self._lock:
            seq = self._req_seq
            self._req_seq += 1
        return seq

    # -- emission --------------------------------------------------------------

    def write(self, record: Mapping[str, object]) -> None:
        """Validate and append one record to the stream."""
        validate_record(record)
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._closed:
                return  # a straggler thread finished after close(); drop it
            self._stream.write(line + "\n")
            self.records_written += 1
            if record.get("kind") == "span":
                self.spans_written += 1

    def write_span(self, span: Span) -> None:
        """Serialize and append one completed :class:`Span`."""
        self.write(span.to_record())

    def write_sample(self, t: float, values: Mapping[str, object]) -> None:
        """Append one time-series sample taken at time ``t``."""
        record: Dict[str, object] = {"kind": "sample", "t": t}
        record.update(values)
        self.write(record)

    def write_fault(self, t: float, node: int, event: str, **details: object) -> None:
        """Append one injected-fault event (simulated or live)."""
        record: Dict[str, object] = {"kind": "fault", "t": t, "node": node, "event": event}
        record.update(details)
        self.write(record)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush and (when the writer opened the file) close the stream."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class SpanLog:
    """A fully parsed span log: its meta header, spans, samples, and
    injected-fault events."""

    meta: Dict[str, object]
    spans: List[Span]
    samples: List[Dict[str, object]]
    faults: List[Dict[str, object]] = field(default_factory=list)

    @property
    def source(self) -> str:
        return str(self.meta.get("source", ""))

    @property
    def total_delay_s(self) -> float:
        """Sum of per-span delays (matches the run's ``total_delay_s``)."""
        return sum(span.delay_s for span in self.spans)


def parse_span_log(lines: List[str]) -> SpanLog:
    """Parse span-log lines (validating every record against the schema)."""
    meta: Optional[Dict[str, object]] = None
    spans: List[Span] = []
    samples: List[Dict[str, object]] = []
    faults: List[Dict[str, object]] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {number}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"line {number}: record must be a JSON object")
        try:
            validate_record(record)
        except SchemaError as exc:
            raise SchemaError(f"line {number}: {exc}") from exc
        kind = record["kind"]
        if kind == "meta":
            if meta is not None:
                raise SchemaError(f"line {number}: duplicate meta record")
            meta = record
        elif kind == "span":
            spans.append(Span.from_record(record))
        elif kind == "fault":
            faults.append(record)
        else:
            samples.append(record)
    if meta is None:
        raise SchemaError("span log has no meta record")
    return SpanLog(meta=meta, spans=spans, samples=samples, faults=faults)


def read_span_log(path: Union[str, Path]) -> SpanLog:
    """Read and validate a JSONL span log from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_span_log(handle.readlines())
