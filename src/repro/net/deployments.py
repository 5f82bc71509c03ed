"""Named replica deployments used by the evaluation.

The paper distributes replicas across predefined city sets: 21 European
cities (Fig. 7, Fig. 11, Fig. 15), 43 cities across Europe and North
America, and 73 cities worldwide (Fig. 9), plus random world-wide
placements for the scoring studies (Figs. 10, 12, 14).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.net.cities import ALL_CITIES, City, city_by_name
from repro.net.latency_model import LatencyModel

# 21 European cities (one replica each); includes Nuremberg, the client
# location shown in Fig. 7.
EUROPE21: List[str] = [
    "London",
    "Paris",
    "Berlin",
    "Madrid",
    "Rome",
    "Amsterdam",
    "Brussels",
    "Vienna",
    "Zurich",
    "Frankfurt",
    "Munich",
    "Nuremberg",
    "Milan",
    "Barcelona",
    "Lisbon",
    "Dublin",
    "Oslo",
    "Stockholm",
    "Copenhagen",
    "Helsinki",
    "Warsaw",
]

# 43 cities across Europe and North America.
NA_EU43: List[str] = EUROPE21 + [
    "Prague",
    "Budapest",
    "Athens",
    "New York",
    "Los Angeles",
    "Chicago",
    "Houston",
    "Philadelphia",
    "Dallas",
    "San Francisco",
    "Seattle",
    "Denver",
    "Boston",
    "Miami",
    "Atlanta",
    "Washington",
    "Toronto",
    "Montreal",
    "Vancouver",
    "Mexico City",
    "Minneapolis",
    "Salt Lake City",
]

# 73 cities worldwide.
GLOBAL73: List[str] = NA_EU43 + [
    "Tokyo",
    "Osaka",
    "Seoul",
    "Beijing",
    "Shanghai",
    "Hong Kong",
    "Taipei",
    "Singapore",
    "Kuala Lumpur",
    "Bangkok",
    "Jakarta",
    "Manila",
    "Mumbai",
    "Delhi",
    "Bangalore",
    "Dubai",
    "Tel Aviv",
    "Sao Paulo",
    "Rio de Janeiro",
    "Buenos Aires",
    "Santiago",
    "Lima",
    "Bogota",
    "Cairo",
    "Lagos",
    "Nairobi",
    "Johannesburg",
    "Cape Town",
    "Sydney",
    "Melbourne",
]


@dataclass
class Deployment:
    """A concrete placement of ``n`` replicas in cities.

    Attributes
    ----------
    name:
        Label used in experiment output (e.g. ``Europe21``).
    cities:
        One city per replica; index equals replica id.
    latency:
        The latency model for this placement.
    """

    name: str
    cities: List[City]
    latency: LatencyModel

    @property
    def n(self) -> int:
        return len(self.cities)


def _build(name: str, city_names: Sequence[str]) -> Deployment:
    cities = [city_by_name(city_name) for city_name in city_names]
    return Deployment(name=name, cities=cities, latency=LatencyModel(cities))


def deployment_for(name: str) -> Deployment:
    """Build one of the paper's named deployments.

    ``name`` is one of ``Europe21``, ``NA-EU43``, ``Global73`` or
    ``Stellar56`` (the latter is delegated to :mod:`repro.net.stellar`).
    """
    if name == "Europe21":
        return _build(name, EUROPE21)
    if name == "NA-EU43":
        return _build(name, NA_EU43)
    if name == "Global73":
        return _build(name, GLOBAL73)
    if name == "Stellar56":
        from repro.net.stellar import stellar_deployment

        return stellar_deployment()
    raise ValueError(f"unknown deployment {name!r}")


def random_world_deployment(
    n: int,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
) -> Deployment:
    """Place ``n`` replicas in cities sampled worldwide (with replacement
    once the pool is exhausted), as in the paper's scoring studies.

    Repeated cities share a region and see only ``LOCAL_RTT_MS``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    rng = rng or random.Random(0)
    pool = list(ALL_CITIES)
    rng.shuffle(pool)
    if n <= len(pool):
        cities = pool[:n]
    else:
        cities = pool + [rng.choice(ALL_CITIES) for _ in range(n - len(pool))]
    return Deployment(
        name=name or f"World{n}", cities=cities, latency=LatencyModel(cities)
    )
