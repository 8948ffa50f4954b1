"""Golden outputs of the simulated request lifecycle.

Every entry of the matrix below runs one simulation and reduces it to
sha256 digests of

* the canonical JSON of ``dataclasses.asdict(result)`` (sorted keys,
  exact float reprs), and
* for traced entries, the span-log bytes the run wrote,

plus the engine's ``events_dispatched`` count.  The expected values in
``tests/golden/lifecycle.json`` were recorded before the request
lifecycle was folded into one state machine, so these tests prove that
every mode — plain, persistent (``sticky``/``rehandoff``), GMS, dynamic
content, membership changes, faults with retries and brownouts, traced
and sanitized — still produces the same bytes and the same event count.

Run ``PYTHONPATH=src python tests/test_lifecycle_golden.py --record``
to rewrite the golden file, and only when a change is meant to alter
simulated results.
"""

import dataclasses
import hashlib
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.faults import RetryPolicy, generate_fault_schedule
from repro.workload import cgi_mix_trace
from repro.workload.synthetic import synthesize_trace

GOLDEN = Path(__file__).parent / "golden" / "lifecycle.json"


@lru_cache(maxsize=None)
def _trace(kind):
    if kind == "cgi":
        return cgi_mix_trace(
            num_requests=3000,
            num_targets=400,
            total_bytes=64 * 2**20,
            zipf_alpha=1.0,
            dynamic_fraction=0.15,
            cpu_cost_s=0.02,
            seed=11,
        )
    return synthesize_trace(
        num_requests=3000,
        num_targets=400,
        total_bytes=64 * 2**20,
        zipf_alpha=1.0,
        seed=11,
    )


def _faults(seed, num_nodes=4, d=28.0):
    """A seeded chaos schedule over a run of roughly ``d`` simulated
    seconds: crashes with detection lag and cold/warm/aged rejoins,
    brownouts, and one client retry."""
    return generate_fault_schedule(
        num_nodes,
        d * 0.8,
        seed=seed,
        mttf_s=d * 0.5,
        mttr_s=d * 0.1,
        detect_s=d * 0.03,
        brownout_mttf_s=d * 0.35,
        brownout_duration_s=d * 0.1,
        cpu_factor=0.4,
        disk_factor=0.4,
        retry=RetryPolicy(
            max_retries=1, timeout_s=d / 50, backoff_base_s=d / 100, backoff_cap_s=d / 25
        ),
    )


_SMALL = dict(num_nodes=4, node_cache_bytes=2**19)
_MEMBERSHIP = ((0.5, "fail", 1), (1.5, "join", 1))

#: (id, trace kind, config overrides, sample interval or None for untraced
#: or "spans" for traced without samples).
_ENTRIES = [
    # The paper-configuration identity matrix.
    ("lard", "synth", dict(policy="lard", **_SMALL), None),
    ("lard-r", "synth", dict(policy="lard/r", **_SMALL), None),
    ("wrr", "synth", dict(policy="wrr", **_SMALL), None),
    ("lb-gc", "synth", dict(policy="lb/gc", **_SMALL), None),
    ("lard-r-3disks", "synth", dict(policy="lard/r", num_nodes=2, node_cache_bytes=2**18, disks_per_node=3), None),
    ("lard-nocoalesce", "synth", dict(policy="lard", coalesce_reads=False, **_SMALL), None),
    ("lard-r-membership", "synth", dict(policy="lard/r", num_nodes=3, node_cache_bytes=2**19, membership_events=_MEMBERSHIP), None),
    ("chash", "synth", dict(policy="chash", **_SMALL), None),
    ("pod", "synth", dict(policy="pod", **_SMALL), None),
    ("pod-lc", "synth", dict(policy="pod/lc", **_SMALL), None),
    ("pod-lc-seed7", "synth", dict(policy="pod/lc", policy_seed=7, **_SMALL), None),
    ("chash-weighted", "synth", dict(policy="chash", node_weights=(1.0, 1.0, 2.0, 4.0), **_SMALL), None),
    ("pod-membership", "synth", dict(policy="pod", num_nodes=3, node_cache_bytes=2**19, membership_events=_MEMBERSHIP), None),
    ("wrr-gms", "synth", dict(policy="wrr/gms", **_SMALL), None),
    # Dynamic (CGI) content.
    ("cgi-lard", "cgi", dict(policy="lard", **_SMALL), None),
    ("cgi-lard-r", "cgi", dict(policy="lard/r", **_SMALL), None),
    ("cgi-wrr", "cgi", dict(policy="wrr", **_SMALL), None),
    ("cgi-chash", "cgi", dict(policy="chash", **_SMALL), None),
    ("cgi-pod-lc", "cgi", dict(policy="pod/lc", **_SMALL), None),
    # Persistent connections.
    *(
        (f"persistent-{mode}-{policy.replace('/', '-')}", "synth",
         dict(policy=policy, requests_per_connection=4, persistent_policy=mode, **_SMALL), None)
        for mode in ("sticky", "rehandoff")
        for policy in ("lard/r", "lb/gc", "wrr/gms")
    ),
    # Span logs.
    ("traced-lard-r", "synth", dict(policy="lard/r", **_SMALL), 0.5),
    ("traced-lb-gc", "synth", dict(policy="lb/gc", **_SMALL), "spans"),
    ("traced-wrr-gms", "synth", dict(policy="wrr/gms", **_SMALL), 0.5),
    ("traced-nocoalesce-3disks", "synth", dict(policy="lard", coalesce_reads=False, disks_per_node=3, **_SMALL), "spans"),
    ("traced-cgi-lard-r", "cgi", dict(policy="lard/r", **_SMALL), "spans"),
    ("traced-rehandoff-lard-r", "synth", dict(policy="lard/r", requests_per_connection=4, persistent_policy="rehandoff", **_SMALL), 0.5),
    ("traced-sticky-wrr-gms", "synth", dict(policy="wrr/gms", requests_per_connection=4, persistent_policy="sticky", **_SMALL), "spans"),
    # Faults: crashes with detection lag, retries, brownouts, rejoins.
    ("faults-lard-r", "synth", dict(policy="lard/r", fault_schedule=_faults(1), collect_delays=True, timeline_interval_s=1.0, **_SMALL), None),
    ("faults-lard-r-traced", "synth", dict(policy="lard/r", fault_schedule=_faults(1), collect_delays=True, timeline_interval_s=1.0, **_SMALL), 0.5),
    ("faults-rehandoff-lard-r-traced", "synth", dict(policy="lard/r", fault_schedule=_faults(2), requests_per_connection=4, persistent_policy="rehandoff", collect_delays=True, **_SMALL), 0.5),
    ("faults-sticky-wrr-gms", "synth", dict(policy="wrr/gms", fault_schedule=_faults(3), requests_per_connection=4, persistent_policy="sticky", timeline_interval_s=1.0, **_SMALL), None),
    ("faults-lb-gc-traced", "synth", dict(policy="lb/gc", fault_schedule=_faults(5), **_SMALL), "spans"),
    ("faults-cgi-pod", "cgi", dict(policy="pod", fault_schedule=_faults(7), **_SMALL), None),
]

_BY_ID = {entry[0]: entry for entry in _ENTRIES}
_KEYS = [f"{entry[0]}{suffix}" for entry in _ENTRIES for suffix in ("", "+sanitize")]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    """sha256 of the canonical JSON of ``dataclasses.asdict(result)``."""
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return _digest(canonical.encode())


def simulate(key):
    """Run one matrix entry; return its golden record."""
    name, sanitize = (key[: -len("+sanitize")], True) if key.endswith("+sanitize") else (key, False)
    _, kind, overrides, sampling = _BY_ID[name]
    config = ClusterConfig(sanitize=sanitize, **overrides)
    record = {}
    if sampling is None:
        sim = ClusterSimulator(_trace(kind), config)
        result = sim.run()
    else:
        from repro.obs import SpanWriter
        from repro.obs.tracer import SimTracer

        buf = io.StringIO()
        with SpanWriter(buf, source="sim") as writer:
            interval = None if sampling == "spans" else sampling
            sim = ClusterSimulator(
                _trace(kind), config, tracer=SimTracer(writer, sample_interval_s=interval)
            )
            result = sim.run()
        record["spans"] = _digest(buf.getvalue().encode())
    record["result"] = result_digest(result)
    record["events"] = sim.engine.events_dispatched
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", _KEYS)
def test_lifecycle_matches_golden(golden, key):
    assert simulate(key) == golden[key]


def test_golden_file_covers_the_matrix(golden):
    assert sorted(golden) == sorted(_KEYS)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(policy="lard/r", **_SMALL),
        dict(policy="lard/r", requests_per_connection=4, persistent_policy="rehandoff", **_SMALL),
    ],
    ids=["single", "rehandoff"],
)
def test_observers_schedule_no_events(overrides):
    """The observer contract: a tracer, the sanitizer and an (empty)
    fault runtime only watch the lifecycle.  Each variant produces the
    plain run's result and dispatches exactly its events."""
    from repro.cluster.faults import FaultSchedule
    from repro.obs import SpanWriter
    from repro.obs.tracer import SimTracer

    trace = _trace("synth")

    def run(tracer=None, **extra):
        sim = ClusterSimulator(trace, ClusterConfig(**overrides, **extra), tracer=tracer)
        return dataclasses.asdict(sim.run()), sim.engine.events_dispatched

    plain = run()
    with SpanWriter(io.StringIO(), source="sim") as writer:
        traced = run(tracer=SimTracer(writer, sample_interval_s=0.5))
    sanitized = run(sanitize=True)
    faulted = run(fault_schedule=FaultSchedule())
    assert traced == plain
    assert sanitized == plain
    assert faulted == plain


def test_fault_entries_exercise_every_fault_feature():
    """The chaos entries must keep covering what they claim to: crashes
    rejoining cold, warm and aged, and brownouts."""
    schedule = _faults(1)
    assert {crash.rejoin_mode for crash in schedule.crashes} == {"cold", "warm", "aged"}
    assert schedule.brownouts
    sim = ClusterSimulator(_trace("synth"), ClusterConfig(**_BY_ID["faults-lard-r"][2]))
    result = sim.run()
    assert result.lost_requests > 0 and result.retried_requests > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_lifecycle_golden.py --record")
    GOLDEN.write_text(json.dumps({key: simulate(key) for key in _KEYS}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(_KEYS)} entries to {GOLDEN}")
