"""Byte-identity of the paper-configuration matrix, against frozen goldens.

The request lifecycle (``repro.cluster.fastpath``) once ran next to a
coroutine reference implementation, and these configurations compared
the two.  The reference is gone; the digests it produced live in
``tests/golden/lifecycle.json``, and every simulation output — counters,
delays, busy-time integrals, per-node series — must still match them
exactly, here through the public ``run_simulation`` entry point.
"""

import json

import pytest

from repro.cluster import run_simulation
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from tests.test_lifecycle_golden import GOLDEN, _trace, result_digest


@pytest.fixture(scope="module")
def trace():
    return _trace("synth")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


_CONFIGS = [
    dict(policy="lard", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lard/r", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="wrr", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lb/gc", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lard/r", num_nodes=2, node_cache_bytes=2**18, disks_per_node=3),
    dict(policy="lard", num_nodes=4, node_cache_bytes=2**19, coalesce_reads=False),
    dict(
        policy="lard/r",
        num_nodes=3,
        node_cache_bytes=2**19,
        membership_events=((0.5, "fail", 1), (1.5, "join", 1)),
    ),
    # Policy-zoo strategies: the seeded-RNG contract (entropy consumed
    # only inside choose, once per admitted request) keeps them
    # byte-identical.
    dict(policy="chash", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19, policy_seed=7),
    dict(
        policy="chash",
        num_nodes=4,
        node_cache_bytes=2**19,
        node_weights=(1.0, 1.0, 2.0, 4.0),
    ),
    dict(
        policy="pod",
        num_nodes=3,
        node_cache_bytes=2**19,
        membership_events=((0.5, "fail", 1), (1.5, "join", 1)),
    ),
]

#: The golden-file entry recorded for each configuration above.
_GOLDEN_KEYS = [
    "lard",
    "lard-r",
    "wrr",
    "lb-gc",
    "lard-r-3disks",
    "lard-nocoalesce",
    "lard-r-membership",
    "chash",
    "pod",
    "pod-lc",
    "pod-lc-seed7",
    "chash-weighted",
    "pod-membership",
]


@pytest.mark.parametrize(
    "config", _CONFIGS, ids=lambda c: "-".join(str(v) for v in c.values())
)
def test_fastpath_matches_generator_path(trace, golden, config):
    """The result digest equals the one the generator reference
    implementation recorded for this configuration."""
    key = _GOLDEN_KEYS[_CONFIGS.index(config)]
    assert result_digest(run_simulation(trace, **config)) == golden[key]["result"]


def test_fastpath_is_actually_selected(trace):
    """Guard against the inline per-request path silently turning off:
    the paper's standard configuration (one request per connection, no
    tracer, no fault runtime) must run every connection on it."""
    sim = ClusterSimulator(
        trace,
        ClusterConfig(policy="lard/r", num_nodes=4, node_cache_bytes=2**19),
    )
    sim.run()
    pool = sim.frontend._fastpath.pool
    assert pool and not any(conn.general for conn in pool)
