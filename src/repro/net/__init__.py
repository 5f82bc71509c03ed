"""Geographic latency substrate.

The paper's network emulator injects per-link delays taken from a
WonderProxy measurement dataset covering 220 world locations, with
intercontinental round trips between 150 and 250 ms plus a 1 ms local
delay.  We reproduce that envelope from first principles: each location is
a real city with coordinates, and round-trip times follow great-circle
distance through fibre with a routing-inflation factor.  Every
deployment is a list of cities; one model,
:class:`~repro.net.latency_model.LatencyModel`, stores it as a region
table, and one provider serves its one-way delays to the network (see
:mod:`repro.net.latency_model`).
"""

from repro.net.cities import ALL_CITIES, City, city_by_name
from repro.net.deployments import (
    EUROPE21,
    GLOBAL73,
    NA_EU43,
    Deployment,
    deployment_for,
    random_world_deployment,
)
from repro.net.latency_model import LatencyModel
from repro.net.stellar import STELLAR_VALIDATORS, stellar_deployment

__all__ = [
    "ALL_CITIES",
    "City",
    "Deployment",
    "EUROPE21",
    "GLOBAL73",
    "LatencyModel",
    "NA_EU43",
    "STELLAR_VALIDATORS",
    "city_by_name",
    "deployment_for",
    "random_world_deployment",
    "stellar_deployment",
]
