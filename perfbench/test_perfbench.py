"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest perfbench -q``.

Workloads are shrunk to a few thousand simulated requests and a
sub-second live run, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTracer, aggregate, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Scaled-down workloads, a private work directory and no record."""
    shrink = {
        "sim-reference": dict(catalogs=2, num_requests=2000, setup_reps=2),
        "sim-chaos": dict(catalogs=2, num_requests=2000, setup_reps=2),
        "sim-scaleout": dict(num_requests=400, node_counts=(8, 64), setup_reps=1),
        "live-handoff": dict(catalog_targets=80, catalog_requests=400, setup_reps=2, warm_clients=4),
    }
    for name, attrs in shrink.items():
        for attr, value in attrs.items():
            monkeypatch.setattr(workloads.WORKLOADS[name], attr, value)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "EXPECTED", tmp_path / "expected.json")
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    return tmp_path


def _run(capsys, *args: str) -> tuple:
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(small, capsys, workload, trace):
    report, result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.6", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    text = "\n".join(report)
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        assert f"  {metric['name']} " in text and text.count(f" {metric['unit']}\n") >= 1
    assert "provenance " in text and "failed_frac 0 " in text
    record = json.loads((run.WORK / "runs.jsonl").read_text(encoding="utf-8").splitlines()[-1])
    assert {"git_rev", "dirty", "tree_digest", "python", "numpy", "nproc", "calibration_ops_per_s", "seed",
            "config_digest"} <= set(record["provenance"])
    assert record["provenance"]["seed"] == 3


def test_a_perturbed_recorded_statistic_is_a_failure(small, capsys):
    name, seed = "sim-reference", 5
    digests = workloads.WORKLOADS[name].record(workloads.derive_seeds(seed), small)
    table = {"about": "", "statistics": {name: {str(seed): digests}}}
    run.EXPECTED.write_text(json.dumps(table), encoding="utf-8")
    _, result = _run(capsys, "--workload", name, "--seed", str(seed), "--seconds", "0.2", "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0

    table["statistics"][name][str(seed)] = ["0" * len(digests[0])] + digests[1:]
    run.EXPECTED.write_text(json.dumps(table), encoding="utf-8")
    report, result = _run(capsys, "--workload", name, "--seed", str(seed), "--seconds", "0.2", "--trace", "0")
    assert result["correct"] is False
    cells = workloads.WORKLOADS[name].catalogs
    assert result["failed"] * cells == result["attempted"]  # exactly the perturbed cell's requests
    assert any("PROBLEM" in line for line in report)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (1, 0, -1, "root", 0.0, 10.0),
        (1, 1, 0, "a", 1.0, 4.0),
        (1, 2, 0, "b", 3.0, 6.0),  # overlaps a (another thread): counted once
        (1, 3, 1, "leaf", 2.0, 3.0),
        (1, 4, 0, "c", 9.0, 12.0),  # runs past its parent: clipped
        (2, 0, -1, "root", 0.0, 1.0),  # same id in another process: unrelated
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0, 1.0])
    agg = aggregate(spans)
    assert agg["root"] == pytest.approx({"calls": 2, "total_s": 11.0, "self_s": 5.0})


def test_windows_are_scaled_to_the_reference_host_and_failures_count_as_inf():
    # 100 requests in 0.5 host seconds on a host twice as fast as the
    # reference: 0.5 reference seconds per host second.
    latencies = [0.001 * (i + 1) for i in range(99)] + [math.inf]
    window = workloads.Window.measured(wall=0.5, latencies=latencies, scale=0.5)
    assert (window.attempted, window.ok) == (100, 99)
    assert window.seconds == pytest.approx(0.25)
    assert (window.p50_s, window.p99_s) == (pytest.approx(0.025), pytest.approx(0.0495))
    stats = workloads.window_stats([window, window])
    assert stats["req_per_s"] == pytest.approx(99 / 0.25)
    assert stats["host_req_per_s"] == pytest.approx(99 / 0.5)
    assert stats["beyond_p99"] == 1


def test_the_loopback_probe_measures_and_stops_its_thread():
    before = threading.active_count()
    probe = workloads.LoopbackProbe()
    assert probe.speed(exchanges=20) > 0
    probe.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["sim-chaos", "sim-scaleout"])
def test_traced_and_untraced_runs_give_identical_statistics(small, name):
    from repro.cluster import ClusterSimulator

    original_run = ClusterSimulator.run
    workload = workloads.WORKLOADS[name]
    seeds = workloads.derive_seeds(7)
    untraced = workload.measure(seeds, 0.0, small, expected=None)
    traced = workload.traced(seeds, 0.0, small, LayerTracer(small / "spool"), untraced)
    assert not untraced.problems and not traced.problems and traced.failed == 0
    assert [workloads.stats_digest(r) for r in traced.results] == untraced.digests
    assert ClusterSimulator.run is original_run
    names = {span[3] for span in traced.spans}
    assert {"cluster.build", "cluster.run", "workload.trace_load"} <= names
    if name == "sim-scaleout":
        # Spans recorded inside the pool workers reached the parent.
        workers = {span[0] for span in traced.spans if span[3] == "cluster.run"}
        assert workers and run.os.getpid() not in workers
        assert traced.counts["sim.requests"] == sum(r.num_requests for r in traced.results)
    else:
        assert {"sim.sanitize", "obs.write", "obs.tracer"} <= names


def _children() -> list:
    """Pids of this process's children, running or not yet reaped (Linux /proc)."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_live_workload_leaves_no_process_behind(small, capsys, trace):
    before = set(_children())
    _run(capsys, "--workload", "live-handoff", "--seed", "3", "--seconds", "0.6", "--trace", trace)
    assert set(_children()) - before == set()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-reference", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
