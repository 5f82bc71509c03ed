"""Aware's score function (§5, Example C.1).

Aware scores a (leader, weights) configuration by predicting the round
duration from the latency matrix: Propose fan-out, Write exchange, Accept
exchange, with the *fastest weighted quorum* at every collection point.
Appendix C notes this is exactly the ``d_rnd`` derived from timeout
requirements TR1-TR3, so the implementation delegates to
:func:`repro.core.timeouts.weighted_round_duration`.
"""

from __future__ import annotations

import numpy as np

from repro.aware.weights import WeightConfiguration
from repro.core.timeouts import weighted_round_duration


def weight_config_round_duration(
    latency: np.ndarray, configuration: WeightConfiguration
) -> float:
    """Predicted ``d_rnd`` for a weighted configuration (lower is better).

    Runs the vectorized :func:`weighted_round_duration` over the cached
    weight vector -- the search layer calls this per candidate, so no
    per-evaluation ``PbftTimeouts``/dict construction.
    """
    return weighted_round_duration(
        latency,
        configuration.leader,
        configuration.weight_vector(),
        configuration.quorum_weight,
    )
