"""Unit tests for the back-end node model.

Requests reach a node the way they do in a cluster run: through a front
end and the request lifecycle (``repro.cluster.fastpath``).  ``_serve``
builds a one-request trace and a front end whose policy pins the request
to the given node, so several ``_serve`` calls before ``engine.run()``
are concurrent requests, admitted in call order.
"""

import pytest

from repro.cache import GDSCache, GlobalMemorySystem
from repro.cluster import CostModel
from repro.cluster.frontend import FrontEnd
from repro.cluster.metrics import LoadTracker
from repro.cluster.node import BackendNode
from repro.core.base import Policy
from repro.sim import Engine
from repro.workload import Trace


def _node(engine, cache_bytes=10**6, num_disks=1, **kw):
    return BackendNode(
        engine, 0, CostModel(), GDSCache(cache_bytes), num_disks=num_disks, **kw
    )


class _Pinned(Policy):
    """Sends every request to one node; optionally dictates hit/miss the
    way LB/GC's front-end cache model does."""

    name = "pinned"

    def __init__(self, num_nodes, node_id, hit_hint=None):
        super().__init__(num_nodes)
        self._node_id = node_id
        if hit_hint is not None:
            self.take_prediction = lambda: hit_hint

    def choose(self, target, size, now=0.0):
        return self._node_id


def _serve(engine, node, target, size, hit_hint=None):
    """Admit one request for ``target`` (``size`` bytes) to ``node``."""
    nodes = list(node.peers) or [node]
    trace = Trace([target], [size] * (target + 1))
    frontend = FrontEnd(
        engine,
        _Pinned(len(nodes), node.node_id, hit_hint),
        nodes,
        trace,
        LoadTracker(len(nodes), threshold=1.0),
    )
    frontend.start()
    return frontend


class TestTiming:
    def test_cached_request_time_matches_cost_model(self):
        engine = Engine()
        node = _node(engine)
        node.cache.access(0, 8192)  # pre-warm
        _serve(engine, node, 0, 8192)
        end = engine.run()
        assert end == pytest.approx(CostModel().cached_request_time(8192))
        assert node.cache_hits == 1

    def test_miss_includes_disk_time(self):
        engine = Engine()
        node = _node(engine)
        _serve(engine, node, 0, 4096)
        end = engine.run()
        model = CostModel()
        expected = model.cached_request_time(4096) + model.disk_read_time(4096)
        assert end == pytest.approx(expected)
        assert node.cache_misses == 1
        assert node.disk_reads == 1

    def test_chunked_read_interleaves_disk_and_cpu(self):
        engine = Engine()
        node = _node(engine)
        size = 100 * 1024
        _serve(engine, node, 0, size)
        end = engine.run()
        model = CostModel()
        expected = (
            model.connection_time()
            + model.teardown_time()
            + model.disk_read_time(size)
            + model.transmit_time(44 * 1024) * 2
            + model.transmit_time(12 * 1024)
        )
        assert end == pytest.approx(expected)


class TestCoalescing:
    def test_concurrent_misses_single_disk_read(self):
        engine = Engine()
        node = _node(engine)
        for _ in range(5):
            _serve(engine, node, 0, 8192)
        engine.run()
        assert node.disk_reads == 1
        assert node.coalesced_reads == 4
        assert node.cache_misses == 5
        assert node.requests_served == 5

    def test_disabled_coalescing_reads_repeatedly(self):
        engine = Engine()
        node = _node(engine, coalesce_reads=False)
        for _ in range(3):
            _serve(engine, node, 0, 8192)
        engine.run()
        assert node.disk_reads == 3
        assert node.coalesced_reads == 0

    def test_waiters_complete_after_read(self):
        engine = Engine()
        node = _node(engine)
        _serve(engine, node, 0, 8192)
        _serve(engine, node, 0, 8192)
        engine.run()
        assert node.requests_served == 2

    def test_sequential_requests_second_hits(self):
        engine = Engine()
        node = _node(engine)
        _serve(engine, node, 0, 4096)
        engine.run()
        _serve(engine, node, 0, 4096)
        engine.run()
        assert node.cache_hits == 1
        assert node.disk_reads == 1


class TestDisks:
    def test_two_disks_overlap_reads(self):
        engine1 = Engine()
        single = _node(engine1, num_disks=1)
        single.disk_of_target = [0, 0]
        _serve(engine1, single, 0, 4096)
        _serve(engine1, single, 1, 4096)
        t_single = engine1.run()

        engine2 = Engine()
        double = _node(engine2, num_disks=2)
        double.disk_of_target = [0, 1]
        _serve(engine2, double, 0, 4096)
        _serve(engine2, double, 1, 4096)
        t_double = engine2.run()
        assert t_double < t_single

    def test_striping_assignment_used(self):
        engine = Engine()
        node = _node(engine, num_disks=2)
        node.disk_of_target = [1, 0]
        assert node.disk_for(0) is node.disks[1]
        assert node.disk_for(1) is node.disks[0]

    def test_invalid_disk_count(self):
        with pytest.raises(ValueError):
            _node(Engine(), num_disks=0)


class TestHintedMode:
    def test_hit_hint_serves_from_memory(self):
        engine = Engine()
        node = _node(engine)
        _serve(engine, node, 0, 4096, hit_hint=True)
        end = engine.run()
        assert end == pytest.approx(CostModel().cached_request_time(4096))
        assert node.cache_hits == 1
        assert node.disk_reads == 0

    def test_miss_hint_reads_disk(self):
        engine = Engine()
        node = _node(engine)
        _serve(engine, node, 0, 4096, hit_hint=False)
        engine.run()
        assert node.cache_misses == 1
        assert node.disk_reads == 1

    def test_miss_hints_coalesce(self):
        engine = Engine()
        node = _node(engine)
        _serve(engine, node, 0, 4096, hit_hint=False)
        _serve(engine, node, 0, 4096, hit_hint=False)
        engine.run()
        assert node.disk_reads == 1
        assert node.coalesced_reads == 1


class TestGMSMode:
    def test_remote_hit_charges_holder_cpu(self):
        engine = Engine()
        gms = GlobalMemorySystem(2, 10**6)
        model = CostModel()
        nodes = [
            BackendNode(engine, i, model, None, gms=gms) for i in range(2)
        ]
        for node in nodes:
            node.peers = nodes
        _serve(engine, nodes[0], 0, 4096)
        engine.run()
        holder_busy_before = nodes[0].cpu.busy_time()
        _serve(engine, nodes[1], 0, 4096)
        engine.run()
        assert nodes[1].gms_remote_hits == 1
        # Holder's CPU did the fetch work.
        assert nodes[0].cpu.busy_time() > holder_busy_before

    def test_gms_miss_goes_to_disk(self):
        engine = Engine()
        gms = GlobalMemorySystem(1, 10**6)
        node = BackendNode(engine, 0, CostModel(), None, gms=gms)
        node.peers = [node]
        _serve(engine, node, 0, 4096)
        engine.run()
        assert node.disk_reads == 1

    def test_exactly_one_of_cache_or_gms(self):
        engine = Engine()
        with pytest.raises(ValueError):
            BackendNode(engine, 0, CostModel(), None, gms=None)
        with pytest.raises(ValueError):
            BackendNode(
                engine,
                0,
                CostModel(),
                GDSCache(100),
                gms=GlobalMemorySystem(1, 100),
            )


def test_counters_and_bytes():
    engine = Engine()
    node = _node(engine)
    _serve(engine, node, 0, 1000)
    _serve(engine, node, 1, 2000)
    engine.run()
    assert node.requests_served == 2
    assert node.bytes_served == 3000
    assert node.cpu_utilization() > 0
    assert node.disk_utilization() > 0
