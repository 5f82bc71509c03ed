"""Tests for Aware's score function and configuration search."""

import numpy as np
import pytest

from repro.aware.score import weight_config_round_duration
from repro.aware.search import exhaustive_weight_search
from repro.aware.weights import WeightConfiguration


def test_exhaustive_search_returns_best_leader(europe21_links):
    best = exhaustive_weight_search(europe21_links, 21, 6)
    assert best is not None
    best_score = weight_config_round_duration(europe21_links, best)
    # No other leader with the same greedy Vmax strategy does better.
    for leader in range(21):
        other = WeightConfiguration(
            n=21, f=6, leader=leader, vmax_replicas=best.vmax_replicas
        )
        assert best_score <= weight_config_round_duration(europe21_links, other) + 1e-12


def test_exhaustive_search_respects_candidates(europe21_links):
    candidates = frozenset(range(13))
    best = exhaustive_weight_search(europe21_links, 21, 6, candidates=candidates)
    assert best.special_replicas() <= candidates


def test_exhaustive_search_too_few_candidates(europe21_links):
    assert exhaustive_weight_search(
        europe21_links, 21, 6, candidates=frozenset(range(5))
    ) is None


def test_exhaustive_search_deterministic(europe21_links):
    a = exhaustive_weight_search(europe21_links, 21, 6)
    b = exhaustive_weight_search(europe21_links, 21, 6)
    assert a == b


def test_optimized_beats_static_configuration(europe21_links):
    """The Fig. 7 effect: optimization beats the static default config."""
    static = WeightConfiguration(
        n=21, f=6, leader=0, vmax_replicas=frozenset(range(12))
    )
    optimized = exhaustive_weight_search(europe21_links, 21, 6)
    assert weight_config_round_duration(europe21_links, optimized) < (
        weight_config_round_duration(europe21_links, static)
    )
