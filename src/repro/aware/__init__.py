"""Wheat/Aware weighted voting and OptiAware (§5).

Aware [13] extends BFT-SMaRt with Wheat's weighted votes (a few replicas
get weight ``Vmax``, the rest ``Vmin = 1``) and picks the (leader, Vmax)
assignment minimising predicted round duration from measured latencies.
OptiAware adds OptiLog's misbehavior and suspicion monitoring so the
search avoids replicas outside the candidate set ``K``.
"""

from repro.aware.optiaware import OptiAware
from repro.aware.score import weight_config_round_duration
from repro.aware.search import exhaustive_weight_search
from repro.aware.weights import WeightConfiguration, WheatParameters

__all__ = [
    "OptiAware",
    "WeightConfiguration",
    "WheatParameters",
    "exhaustive_weight_search",
    "weight_config_round_duration",
]
