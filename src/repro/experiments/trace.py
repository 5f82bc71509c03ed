"""State-trace hashing: the end-state half of the equivalence oracle for
where the network lets a delivery wait.

:func:`state_trace_hash` folds everything the simulation *computed* --
per-replica protocol state, every commit event, network statistics
including the per-type byte ledger, the clock, the sequence counter and
both RNG streams -- into one sha256 hex digest.  Two runs of the same
scenario agree on this hash iff they delivered the same messages at the
same times in the same order and drew the same randomness; it is the
invariant the test suite asserts -- with the delivery-order digest of
``tests/oracles.py`` -- between a heap-only run and one whose wide
multicasts wait in the row store.

What is deliberately **excluded**:

* ``sim.events_processed`` -- the two disagree on it by design (a store
  drain of k messages is one heap event, not k), and it carries no
  simulation-visible state;
* the pending event heap -- cursor entries and per-message entries
  represent the same future deliveries differently; everything the heap
  will cause is already pinned down by the RNG states and the counters;
* wall-clock anything.

The hash is built from ``repr`` of plain-Python state, so it is stable
across processes under ``PYTHONHASHSEED`` randomisation: sets are
sorted before repr, dicts are folded in key order.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Tuple

#: Per-replica attributes folded into the trace, in order.  Missing
#: attributes are skipped (each protocol contributes its own subset), so
#: one list serves PBFT, HotStuff and Kauri.  Sets among these are
#: sorted; dicts folded in sorted-key order.
_REPLICA_ATTRS: Tuple[str, ...] = (
    # PBFT family
    "view",
    "seq",
    "executed_seq",
    "low_water",
    "log_view",
    # HotStuff family
    "last_voted_height",
    "qc_heights",
    # Kauri family (also next_height/committed_height below)
    "next_height",
    "committed_height",
    "current_height",
    # Shared bookkeeping
    "running",
)


def _fold(hasher: "hashlib._Hash", label: str, value: Any) -> None:
    hasher.update(label.encode())
    hasher.update(b"=")
    hasher.update(_canonical(value).encode())
    hasher.update(b";")


def _canonical(value: Any) -> str:
    """Deterministic repr: sorts sets, folds dicts in key order."""
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(_canonical(item) for item in sorted(value)) + "}"
    if isinstance(value, dict):
        return (
            "{"
            + ",".join(
                f"{_canonical(key)}:{_canonical(value[key])}"
                for key in sorted(value)
            )
            + "}"
        )
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    return repr(value)


def _commit_rows(metrics: Any) -> Iterable[Tuple[Any, ...]]:
    commits = getattr(metrics, "commits", None)
    if commits is None:
        return ()
    return (tuple(event) for event in commits)


def state_trace_hash(cluster: Any) -> str:
    """sha256 over the cluster's simulation-visible end state.

    ``cluster`` is any of the protocol clusters (PBFT / HotStuff /
    Kauri): the function relies only on ``sim``, ``network``,
    ``replicas`` and the per-replica attribute subset above.
    """
    hasher = hashlib.sha256()
    sim = cluster.sim
    _fold(hasher, "now", sim.now)
    _fold(hasher, "seq", sim._seq)
    _fold(hasher, "rng", sim.rng.getstate())

    network = cluster.network
    jitter_rng = getattr(network, "_jitter_rng", None)
    if jitter_rng is not None:
        _fold(hasher, "jitter_rng", jitter_rng.getstate())
    stats = network.stats
    _fold(hasher, "messages_sent", stats.messages_sent)
    _fold(hasher, "messages_delivered", stats.messages_delivered)
    _fold(hasher, "messages_dropped", stats.messages_dropped)
    _fold(hasher, "bytes_sent", stats.bytes_sent)
    _fold(hasher, "per_type_bytes", dict(stats.per_type_bytes))

    for replica in cluster.replicas:
        prefix = f"r{replica.id}."
        for name in _REPLICA_ATTRS:
            value = getattr(replica, name, None)
            if value is not None:
                _fold(hasher, prefix + name, value)
        for row in _commit_rows(replica.metrics):
            _fold(hasher, prefix + "c", row)

    workload = getattr(cluster, "workload", None)
    if workload is not None:
        summary = workload.summary()
        if summary is not None:
            _fold(hasher, "client", summary)
    return hasher.hexdigest()
