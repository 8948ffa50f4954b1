"""Policy interface shared by the simulator and the prototype front-end.

Every request-distribution strategy in the paper runs at the front-end and
sees exactly two kinds of information (Section 2.1):

* the *content* of the request — the target token and its size — available
  because the front-end accepts the connection before handing it off; and
* per-back-end *load*, estimated with no back-end communication as the
  number of active (handed-off, not yet completed) connections.

:class:`Policy` encodes that contract.  The owning front-end calls
:meth:`Policy.choose` to pick a back-end for a request, then
:meth:`Policy.on_dispatch` / :meth:`Policy.on_complete` as the connection
is handed off and finishes; the base class maintains the active-connection
load vector so concrete strategies only implement decision logic.  The
simulator's request lifecycle (:mod:`repro.cluster.fastpath`) inlines
the bodies of ``on_dispatch``/``on_complete`` on its per-request path,
so strategies must not override them.

The base class also owns the paper's admission rule: the front-end limits
the number of connections admitted cluster-wide to

    S = (n - 1) * T_high + T_low - 1

so that no node can sit idle (< T_low) while every other node is saturated
(>= T_high), yet enough connections are admitted to keep all n nodes busy.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Optional, Sequence

__all__ = ["Policy", "PolicyError", "DEFAULT_T_LOW", "DEFAULT_T_HIGH", "admission_limit"]

#: Weight vectors within this relative spread of uniform are treated as
#: uniform, keeping the unweighted fast paths byte-identical.
_UNIFORM_EPSILON = 1e-12

#: Paper Section 2.4: "settings of T_low = 25 and T_high = 65 active
#: connections give good performance across all workloads we tested".
DEFAULT_T_LOW = 25
DEFAULT_T_HIGH = 65


class PolicyError(RuntimeError):
    """Raised on invalid policy configuration or bookkeeping violations."""


def admission_limit(num_nodes: int, t_low: int = DEFAULT_T_LOW, t_high: int = DEFAULT_T_HIGH) -> int:
    """The paper's cluster-wide connection limit S = (n-1)*T_high + T_low - 1."""
    if num_nodes < 1:
        raise PolicyError(f"need at least one node, got {num_nodes}")
    return (num_nodes - 1) * t_high + t_low - 1


def _normalize_weights(
    weights: Optional[Sequence[float]], num_nodes: int
) -> Optional[List[float]]:
    """Validate a capacity-weight vector; ``None`` for the uniform case.

    An explicitly uniform vector (all entries equal) collapses to
    ``None`` so the integer comparison fast paths — and with them the
    golden byte-identity suites — are used whenever weights change
    nothing.
    """
    if weights is None:
        return None
    values = [float(w) for w in weights]
    if len(values) != num_nodes:
        raise PolicyError(
            f"weights must have one entry per node ({num_nodes}), got {len(values)}"
        )
    for node, value in enumerate(values):
        if not value > 0.0:
            raise PolicyError(f"node {node} weight must be positive, got {value!r}")
    first = values[0]
    if all(abs(value - first) <= _UNIFORM_EPSILON * first for value in values):
        return None
    return values


class Policy(abc.ABC):
    """Base class for front-end request-distribution strategies.

    Parameters
    ----------
    num_nodes:
        Number of back-end nodes; ids are ``0..num_nodes-1``.
    t_low / t_high:
        The load thresholds of Section 2.4.  They parameterize both the
        LARD migration tests and the shared admission limit, so every
        strategy is compared under identical admission control (as in the
        paper's simulations).
    weights:
        Optional per-node capacity weights (heterogeneous back-ends,
        cf. arXiv:1103.1207).  When set, the load-comparison helpers
        (:meth:`least_loaded_node`, :meth:`has_node_below`) compare
        *load per unit weight* instead of raw active-connection counts,
        so a node with weight 2 absorbs twice the connections of a
        weight-1 node before looking equally busy.  ``None`` (or an
        all-equal vector) keeps the paper's homogeneous behaviour and
        its exact integer fast paths.
    """

    #: Registry name, overridden by subclasses (e.g. ``"lard/r"``).
    name: str = "policy"

    def __init__(
        self,
        num_nodes: int,
        t_low: int = DEFAULT_T_LOW,
        t_high: int = DEFAULT_T_HIGH,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if num_nodes < 1:
            raise PolicyError(f"need at least one node, got {num_nodes}")
        if not 0 < t_low < t_high:
            raise PolicyError(f"need 0 < t_low < t_high, got {t_low}, {t_high}")
        self.num_nodes = num_nodes
        self.t_low = t_low
        self.t_high = t_high
        self.weights: Optional[List[float]] = _normalize_weights(weights, num_nodes)
        #: Reciprocal weights, so the per-request comparisons multiply
        #: (one flop) instead of divide.  ``None`` means uniform.
        self._inv_weights: Optional[List[float]] = (
            None
            if self.weights is None
            else [1.0 / w for w in self.weights]
        )
        self.loads: List[int] = [0] * num_nodes
        self._alive: List[bool] = [True] * num_nodes
        #: Bumped on every failure/join; lets strategies cache
        #: membership-derived state and revalidate it in O(1).
        self.membership_epoch = 0
        self._dead_count = 0
        self.dispatches = 0
        self.completions = 0

    # -- front-end contract ---------------------------------------------------

    @abc.abstractmethod
    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Pick the back-end node for a request.

        ``now`` is the front-end's clock (simulated or wall time); only
        time-dependent strategies (LARD/R's replication decay) use it.
        """

    def on_dispatch(self, node: int, target: Hashable = None, size: int = 0) -> None:
        """A connection was handed off to ``node``."""
        self._check_alive(node)
        self.loads[node] += 1
        self.dispatches += 1

    def on_complete(self, node: int, target: Hashable = None, size: int = 0) -> None:
        """A previously dispatched connection finished at ``node``."""
        if self.loads[node] <= 0:
            raise PolicyError(f"completion on node {node} with zero load")
        self.loads[node] -= 1
        self.completions += 1

    @property
    def admission_limit(self) -> int:
        """Cluster-wide cap on simultaneously admitted connections (S)."""
        return admission_limit(self.alive_count, self.t_low, self.t_high)

    @property
    def total_load(self) -> int:
        return sum(self.loads)

    # -- membership / failure handling (paper Section 2.6) ---------------------

    @property
    def alive_nodes(self) -> List[int]:
        return [n for n in range(self.num_nodes) if self._alive[n]]

    @property
    def alive_count(self) -> int:
        return sum(self._alive)

    def is_alive(self, node: int) -> bool:
        """True if ``node`` is currently part of the cluster."""
        return self._alive[node]

    def on_node_failure(self, node: int) -> None:
        """Remove a back-end.  Strategies drop any state naming the node:

        "The front end simply re-assigns targets assigned to the failed
        back end as if they had not been assigned before."
        """
        self._check_alive(node)
        self._alive[node] = False
        self.loads[node] = 0
        self._dead_count += 1
        self.membership_epoch += 1
        if self.alive_count == 0:
            raise PolicyError("last back-end failed; cluster is empty")

    def on_node_join(self, node: int) -> None:
        """(Re)introduce a back-end with an empty cache and zero load."""
        if not 0 <= node < self.num_nodes:
            raise PolicyError(f"node id {node} out of range")
        if self._alive[node]:
            raise PolicyError(f"node {node} is already alive")
        self._alive[node] = True
        self.loads[node] = 0
        self._dead_count -= 1
        self.membership_epoch += 1

    # -- helpers for subclasses -------------------------------------------------

    def _check_alive(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise PolicyError(f"node id {node} out of range")
        if not self._alive[node]:
            raise PolicyError(f"node {node} is not alive")

    def least_loaded_node(self) -> int:
        """Alive node with the fewest active connections (lowest id wins ties).

        With heterogeneous ``weights`` the comparison is *load per unit
        weight*, so a weight-2 node carrying 10 connections looks as busy
        as a weight-1 node carrying 5.
        """
        loads = self.loads
        inv = self._inv_weights
        if inv is not None:
            best = -1
            best_key = None
            for node in range(self.num_nodes):
                if not self._alive[node]:
                    continue
                key = loads[node] * inv[node]
                if best_key is None or key < best_key:
                    best, best_key = node, key
            if best < 0:  # pragma: no cover - guarded by failure handling
                raise PolicyError("no alive back-end nodes")
            return best
        if not self._dead_count:
            # list.index(min(...)) runs both scans in C and returns the
            # first minimal element, so lowest id wins.
            return loads.index(min(loads))
        best = -1
        best_load = None
        for node in range(self.num_nodes):
            if not self._alive[node]:
                continue
            load = loads[node]
            if best_load is None or load < best_load:
                best, best_load = node, load
        if best < 0:  # pragma: no cover - guarded by failure handling
            raise PolicyError("no alive back-end nodes")
        return best

    def has_node_below(self, threshold: int) -> bool:
        """True if any alive node's load is strictly below ``threshold``.

        With heterogeneous ``weights`` the threshold scales with capacity:
        node ``n`` counts as "below" when ``loads[n] < threshold * weights[n]``.
        """
        # Plain loop: this runs on the per-request imbalance test, where
        # a generator expression's frame setup would dominate for the
        # cluster sizes the paper studies (4-32 nodes).
        loads = self.loads
        alive = self._alive
        weights = self.weights
        if weights is not None:
            for node in range(len(alive)):
                if alive[node] and loads[node] < threshold * weights[node]:
                    return True
            return False
        for node in range(len(alive)):
            if alive[node] and loads[node] < threshold:
                return True
        return False

    def describe(self) -> str:
        """Short human-readable configuration summary."""
        return f"{self.name}(n={self.num_nodes}, T_low={self.t_low}, T_high={self.t_high})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()} loads={self.loads}>"
