#!/usr/bin/env python3
"""Run one workload of the benchmark and print every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-reference --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sim-scaleout --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --record-expected 0-31      # refresh expected.json

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` runs the workload untraced for half the time
and then once with the layer tracer installed, and reports the
per-layer metrics.  Either way the correctness checks run, a provenance
record is appended to ``.perfbench_work/runs.jsonl``, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Everything the benchmark writes stays under ``.perfbench_work/`` at the
checkout root, including the trace memo (``REPRO_TRACE_CACHE``), so a
first run generates the traces and later runs load them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def tree_digest() -> str:
    """Digest of the program and benchmark sources as they are on disk."""
    digest = hashlib.sha256()
    files = [ROOT / "BENCHMARK.json"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def provenance(seed: int, config_digest: str) -> Dict[str, Any]:
    import numpy
    from workloads import host_speed

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "tree_digest": tree_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calibration_ops_per_s": statistics.median(host_speed() for _ in range(9)),
        "seed": seed,
        "config_digest": config_digest,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(traced: Any, untraced_req_per_s: float, policies: List[str]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced run."""
    from layertrace import aggregate, metric_label

    agg = aggregate(traced.spans)
    counts = traced.counts

    def stat(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0)

    out: Dict[str, float] = {
        "workload.trace_load_s": stat("workload.trace_load", "total_s"),
        "workload.docroot_s": stat("workload.docroot", "total_s"),
        "cluster.build_s": stat("cluster.build", "total_s"),
        "cluster.run_self_s": stat("cluster.run", "self_s"),
        "sim.events": counts.get("sim.events", 0),
        "sim.events_per_req": counts.get("sim.events", 0) / counts["sim.requests"] if counts.get("sim.requests") else 0.0,
        "sim.sanitize_s": stat("sim.sanitize", "self_s"),
    }
    for policy in policies:
        label = metric_label(policy)
        calls = stat(f"core.{label}.choose", "calls")
        own = stat(f"core.{label}.choose", "self_s")
        out[f"core.{label}.choose_calls"] = calls
        out[f"core.{label}.choose_s"] = own
        out[f"core.{label}.choose_ns"] = own / calls * 1e9 if calls else 0.0
        out[f"core.{label}.complete_s"] = stat(f"core.{label}.complete", "self_s")
    for scheme in ("gds", "gms", "directory"):
        calls = stat(f"cache.{scheme}.access", "calls")
        out[f"cache.{scheme}.access_calls"] = calls
        out[f"cache.{scheme}.access_s"] = stat(f"cache.{scheme}.access", "self_s")
        out[f"cache.{scheme}.hit_ratio"] = counts.get(f"cache.{scheme}.hits", 0) / calls if calls else 0.0
    out.update(
        {
            "obs.spans": counts.get("obs.spans", 0),
            "obs.write_s": stat("obs.write", "self_s"),
            "obs.tracer_s": stat("obs.tracer", "self_s"),
            "obs.span_log_mb": traced.extras.get("obs.span_log_mb", 0.0),
        }
    )
    out.update(pool_metrics(traced.spans))
    for name in (
        "handoff_latency_p50_us",
        "handoff_latency_p99_us",
        "admit_s",
        "backend_hit_ratio",
        "backend_imbalance",
        "rejected",
        "handoff_failures",
        "leaked_threads",
        "leaked_fds",
    ):
        out[f"handoff.{name}"] = traced.extras.get(f"handoff.{name}", 0)
    out["handoff.admit_s"] = stat("handoff.admit", "self_s")
    results = traced.results
    for name in ("disk_reads", "coalesced_reads", "lost_requests", "retried_requests", "rehandoffs"):
        out[f"cluster.{name}"] = sum(getattr(r, name) for r in results)
    out["bench.traced_req_per_s"] = traced.req_per_s
    out["bench.trace_overhead"] = untraced_req_per_s / traced.req_per_s
    out["bench.spans"] = len(traced.spans)
    return out


def pool_metrics(spans: List[Any]) -> Dict[str, float]:
    """``run_many`` wall time, its slowest cell, and the time not spent in cells.

    A cell is one ``ClusterSimulator`` build plus its run in a pool
    worker.  Pool overhead is the ``run_many`` wall time minus the busiest
    worker's total cell time.
    """
    run_many = [s for s in spans if s[3] == "analysis.run_many"]
    if not run_many:
        return {"analysis.run_many_s": 0.0, "analysis.cell_s_max": 0.0, "analysis.pool_overhead_s": 0.0}
    parent = run_many[0][0]
    cells: Dict[int, List[float]] = {}
    for pid in {s[0] for s in spans if s[0] != parent}:
        build_start = None
        for _, _, _, name, start, end in sorted((s for s in spans if s[0] == pid), key=lambda s: s[4]):
            if name == "cluster.build":
                build_start = start
            elif name == "cluster.run" and build_start is not None:
                cells.setdefault(pid, []).append(end - build_start)
                build_start = None
    wall = sum(s[5] - s[4] for s in run_many)
    return {
        "analysis.run_many_s": wall,
        "analysis.cell_s_max": max((c for per in cells.values() for c in per), default=0.0),
        "analysis.pool_overhead_s": wall - max((sum(per) for per in cells.values()), default=0.0),
    }


def _seed_range(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load_expected() -> Dict[str, Dict[str, List[str]]]:
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text(encoding="utf-8"))["statistics"]
    return {}


def record_expected(workloads: Dict[str, Any], names: List[str], seeds: List[int]) -> None:
    from workloads import derive_seeds

    table = _load_expected()
    for name in names:
        for seed in seeds:
            table.setdefault(name, {})[str(seed)] = workloads[name].record(derive_seeds(seed), WORK)
            print(f"recorded {name} seed {seed}", flush=True)
    payload = {
        "about": "Digests of every modelled SimulationResult statistic per workload and seed "
        "(live-handoff: the simulator's prediction).  Refresh with run.py --record-expected "
        "only when a change is meant to alter modelled results.",
        "statistics": {k: dict(sorted(v.items(), key=lambda kv: int(kv[0]))) for k, v in sorted(table.items())},
    }
    EXPECTED.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", metavar="LO-HI", help="record modelled statistics for these seeds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src / 'repro'})", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")  # temporary files stay in the checkout too
    # The only program switch the benchmark sets: a trace memo it owns.
    os.environ["REPRO_TRACE_CACHE"] = str(WORK / "traces")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from layertrace import LayerTracer, write_spans
    from repro.core import POLICY_NAMES
    from workloads import WORKLOADS, derive_seeds

    known = [w["name"] for w in spec["workloads"]]
    if args.record_expected:
        names = [args.workload] if args.workload else known
        record_expected(WORKLOADS, names, _seed_range(args.record_expected))
        return 0
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {known}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seeds = derive_seeds(args.seed)
    expected = _load_expected().get(args.workload, {}).get(str(args.seed))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not args.trace:
        m = workload.measure(seeds, args.seconds, WORK, expected)
        values = dict(m.metrics, peak_rss_mb=peak_rss_mb())
        attempted, failed, problems = m.attempted, m.failed, list(m.problems)
        extra_lines = []
    else:
        m = workload.measure(seeds, args.seconds / 2, WORK, expected)
        tracer = LayerTracer(WORK / "spool")
        traced = workload.traced(seeds, args.seconds / 2, WORK, tracer, m)
        values = layer_metrics(traced, m.metrics["req_per_s"], list(POLICY_NAMES))
        spans_path = WORK / "spans" / f"{args.workload}.csv"
        spans_path.parent.mkdir(exist_ok=True)
        write_spans(traced.spans, spans_path)
        attempted, failed = m.attempted + traced.attempted, m.failed + traced.failed
        problems = list(m.problems) + list(traced.problems)
        extra_lines = [
            f"tracing overhead: {values['bench.trace_overhead']:.3f}x "
            f"(untraced {m.metrics['req_per_s']:.6g} req/s, traced {traced.req_per_s:.6g} req/s)",
            f"{len(traced.spans)} spans written to {spans_path}",
        ]

    names = [metric["name"] for metric in wanted]
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]} for metric in wanted
    }
    correct = not problems and failed == 0
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, m.config_digest),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    width = max(len(n) for n in names)
    for name in names:
        print(f"  {name:<{width}}  {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  failed_frac {failed / attempted if attempted else 0.0:.6g} ({failed} of {attempted})")
    for line in m.notes + extra_lines + [f"PROBLEM: {p}" for p in problems]:
        print(f"  {line}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
