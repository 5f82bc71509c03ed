"""Streaming measurement plane: mergeable online sketches.

A million-request campaign cannot afford the exact measurement path --
one :class:`~repro.consensus.base.CommitEvent` per committed block at
every replica, one ``(time, latency)`` tuple per completed request at
every client, and a full sort at the end.  This package provides the
O(1)-memory twin:

* :class:`LogHistogram` -- fixed-bin log-scale latency histogram with
  quantile queries inside a documented relative-error bound, plus the
  exact count / sum / min / max / mean;
* :class:`ThroughputWindows` -- committed work per fixed time window
  (the timeline series the figures plot), O(duration / window) memory
  independent of request volume;
* :class:`MetricsSketch` -- the two combined, the unit a campaign
  shard checkpoints and merges;
* :class:`StreamingRunMetrics` -- drop-in twin of
  :class:`repro.consensus.base.RunMetrics` selected through
  ``MeasurementPolicy(metrics="sketch")`` in the scenario runner.

Every sketch is **mergeable**: ``merge`` is associative and commutative
with an identity (the freshly constructed sketch), so a sharded campaign
can combine per-shard sketches in shard order and land byte-identical to
the serial run.  Every sketch serialises to a plain dict
(``state_dict``/``from_state``) containing only ints and floats, so
checkpoints and cross-process merges never pickle live objects.
"""

from repro.metrics.hist import LogHistogram
from repro.metrics.runmetrics import MetricsSketch, StreamingRunMetrics
from repro.metrics.windows import ThroughputWindows

__all__ = [
    "LogHistogram",
    "MetricsSketch",
    "StreamingRunMetrics",
    "ThroughputWindows",
]
