"""Tests for great-circle geometry and the city dataset."""

import math

import pytest

from oracles import haversine_km
from repro.net.cities import ALL_CITIES, city_by_name


def test_haversine_zero_for_same_point():
    assert haversine_km(48.0, 11.0, 48.0, 11.0) == 0.0


def test_haversine_known_distance_london_newyork():
    london = city_by_name("London")
    new_york = city_by_name("New York")
    distance = haversine_km(london.lat, london.lon, new_york.lat, new_york.lon)
    assert 5400 < distance < 5750  # ~5570 km


def test_haversine_symmetry():
    a = city_by_name("Tokyo")
    b = city_by_name("Sydney")
    assert haversine_km(a.lat, a.lon, b.lat, b.lon) == pytest.approx(
        haversine_km(b.lat, b.lon, a.lat, a.lon)
    )


def test_haversine_antipodal_bounded_by_half_circumference():
    distance = haversine_km(0.0, 0.0, 0.0, 180.0)
    assert distance == pytest.approx(math.pi * 6371.0, rel=1e-6)


def test_dataset_has_220_unique_cities():
    assert len(ALL_CITIES) == 220
    assert len({city.name for city in ALL_CITIES}) == 220


def test_all_coordinates_in_range():
    for city in ALL_CITIES:
        assert -90 <= city.lat <= 90
        assert -180 <= city.lon <= 180


def test_regions_cover_dataset():
    regions = ("EU", "NA", "AS", "SA", "AF", "OC")
    total = sum(city.region in regions for city in ALL_CITIES)
    assert total == 220


def test_city_by_name_unknown_raises():
    with pytest.raises(KeyError):
        city_by_name("Atlantis")
