"""The measurement plane: one observer interface, exact or sketched.

Replicas and workloads record through the same interface
(:mod:`repro.metrics.runmetrics`): each holds one observer, set through
``use_metrics``, and feeds it one :class:`CommitEvent` per committed
block or completed request.  Two observers implement it:

* :class:`RunMetrics` -- the exact event list (percentiles through
  :func:`percentile`); every scenario ``prepare_scenario`` builds
  measures with it;
* :class:`MetricsSketch` -- O(1) memory: a :class:`LogHistogram`
  (fixed-bin log-scale latency histogram with quantile queries inside a
  documented relative-error bound, plus the exact count / sum / min /
  max / mean) and a :class:`ThroughputWindows` timeline (committed work
  per fixed time window, O(duration / window) memory independent of
  request volume).  A campaign swaps fresh sketches into every replica
  and its workload before the run starts.

No option picks between them: the run's shape does (a run measures
exactly, a campaign sketches).

Every sketch is **mergeable**: ``merge`` is associative and commutative
with an identity (the freshly constructed sketch), so a sharded campaign
can combine per-shard sketches in shard order and land byte-identical to
the serial run.  Every sketch serialises to a plain dict
(``state_dict``/``from_state``) containing only ints and floats, so
cross-process merges never pickle live objects.
"""

from repro.metrics.hist import LogHistogram
from repro.metrics.runmetrics import (
    CommitEvent,
    MetricsSketch,
    Observer,
    RunMetrics,
    percentile,
)
from repro.metrics.windows import ThroughputWindows

__all__ = [
    "CommitEvent",
    "LogHistogram",
    "MetricsSketch",
    "Observer",
    "RunMetrics",
    "ThroughputWindows",
    "percentile",
]
