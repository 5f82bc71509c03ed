"""World-city dataset used by the latency model.

The paper's emulator draws per-link delays from a WonderProxy dataset of
220 world locations.  The dataset itself is proprietary, so this module
provides a substitute: 220 real cities with approximate coordinates,
grouped by region.  The latency model derives round-trip times from
great-circle distances, reproducing the envelope the paper reports
(intercontinental RTTs of 150-250 ms plus a 1 ms local delay).

Coordinates are approximate (sub-degree accuracy); only relative distances
matter for the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class City:
    """A named location with coordinates and a coarse region tag."""

    name: str
    country: str
    lat: float
    lon: float
    region: str  # EU, NA, SA, AS, AF, OC

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.country})"


def _c(name: str, country: str, lat: float, lon: float, region: str) -> City:
    return City(name, country, lat, lon, region)


# --------------------------------------------------------------------------
# Europe (70)
# --------------------------------------------------------------------------
_EUROPE: List[City] = [
    _c("London", "GB", 51.51, -0.13, "EU"),
    _c("Paris", "FR", 48.86, 2.35, "EU"),
    _c("Berlin", "DE", 52.52, 13.41, "EU"),
    _c("Madrid", "ES", 40.42, -3.70, "EU"),
    _c("Rome", "IT", 41.90, 12.50, "EU"),
    _c("Amsterdam", "NL", 52.37, 4.90, "EU"),
    _c("Brussels", "BE", 50.85, 4.35, "EU"),
    _c("Vienna", "AT", 48.21, 16.37, "EU"),
    _c("Zurich", "CH", 47.38, 8.54, "EU"),
    _c("Geneva", "CH", 46.20, 6.15, "EU"),
    _c("Frankfurt", "DE", 50.11, 8.68, "EU"),
    _c("Munich", "DE", 48.14, 11.58, "EU"),
    _c("Hamburg", "DE", 53.55, 9.99, "EU"),
    _c("Nuremberg", "DE", 49.45, 11.08, "EU"),
    _c("Stuttgart", "DE", 48.78, 9.18, "EU"),
    _c("Cologne", "DE", 50.94, 6.96, "EU"),
    _c("Milan", "IT", 45.46, 9.19, "EU"),
    _c("Naples", "IT", 40.85, 14.27, "EU"),
    _c("Turin", "IT", 45.07, 7.69, "EU"),
    _c("Barcelona", "ES", 41.39, 2.17, "EU"),
    _c("Valencia", "ES", 39.47, -0.38, "EU"),
    _c("Lisbon", "PT", 38.72, -9.14, "EU"),
    _c("Porto", "PT", 41.15, -8.61, "EU"),
    _c("Dublin", "IE", 53.35, -6.26, "EU"),
    _c("Edinburgh", "GB", 55.95, -3.19, "EU"),
    _c("Manchester", "GB", 53.48, -2.24, "EU"),
    _c("Birmingham", "GB", 52.48, -1.90, "EU"),
    _c("Glasgow", "GB", 55.86, -4.25, "EU"),
    _c("Oslo", "NO", 59.91, 10.75, "EU"),
    _c("Stockholm", "SE", 59.33, 18.07, "EU"),
    _c("Gothenburg", "SE", 57.71, 11.97, "EU"),
    _c("Copenhagen", "DK", 55.68, 12.57, "EU"),
    _c("Helsinki", "FI", 60.17, 24.94, "EU"),
    _c("Reykjavik", "IS", 64.15, -21.94, "EU"),
    _c("Stavanger", "NO", 58.97, 5.73, "EU"),
    _c("Bergen", "NO", 60.39, 5.32, "EU"),
    _c("Warsaw", "PL", 52.23, 21.01, "EU"),
    _c("Krakow", "PL", 50.06, 19.94, "EU"),
    _c("Prague", "CZ", 50.08, 14.44, "EU"),
    _c("Budapest", "HU", 47.50, 19.04, "EU"),
    _c("Bucharest", "RO", 44.43, 26.10, "EU"),
    _c("Sofia", "BG", 42.70, 23.32, "EU"),
    _c("Athens", "GR", 37.98, 23.73, "EU"),
    _c("Thessaloniki", "GR", 40.64, 22.94, "EU"),
    _c("Belgrade", "RS", 44.79, 20.45, "EU"),
    _c("Zagreb", "HR", 45.81, 15.98, "EU"),
    _c("Ljubljana", "SI", 46.06, 14.51, "EU"),
    _c("Bratislava", "SK", 48.15, 17.11, "EU"),
    _c("Vilnius", "LT", 54.69, 25.28, "EU"),
    _c("Riga", "LV", 56.95, 24.11, "EU"),
    _c("Tallinn", "EE", 59.44, 24.75, "EU"),
    _c("Kyiv", "UA", 50.45, 30.52, "EU"),
    _c("Chisinau", "MD", 47.01, 28.86, "EU"),
    _c("Istanbul", "TR", 41.01, 28.98, "EU"),
    _c("Ankara", "TR", 39.93, 32.86, "EU"),
    _c("Moscow", "RU", 55.76, 37.62, "EU"),
    _c("Saint Petersburg", "RU", 59.93, 30.34, "EU"),
    _c("Minsk", "BY", 53.90, 27.57, "EU"),
    _c("Luxembourg", "LU", 49.61, 6.13, "EU"),
    _c("Marseille", "FR", 43.30, 5.37, "EU"),
    _c("Lyon", "FR", 45.76, 4.84, "EU"),
    _c("Toulouse", "FR", 43.60, 1.44, "EU"),
    _c("Nice", "FR", 43.70, 7.27, "EU"),
    _c("Bordeaux", "FR", 44.84, -0.58, "EU"),
    _c("Rotterdam", "NL", 51.92, 4.48, "EU"),
    _c("Antwerp", "BE", 51.22, 4.40, "EU"),
    _c("Gdansk", "PL", 54.35, 18.65, "EU"),
    _c("Seville", "ES", 37.39, -5.98, "EU"),
    _c("Palma", "ES", 39.57, 2.65, "EU"),
    _c("Malmo", "SE", 55.60, 13.00, "EU"),
]

# --------------------------------------------------------------------------
# North America (50)
# --------------------------------------------------------------------------
_NORTH_AMERICA: List[City] = [
    _c("New York", "US", 40.71, -74.01, "NA"),
    _c("Los Angeles", "US", 34.05, -118.24, "NA"),
    _c("Chicago", "US", 41.88, -87.63, "NA"),
    _c("Houston", "US", 29.76, -95.37, "NA"),
    _c("Phoenix", "US", 33.45, -112.07, "NA"),
    _c("Philadelphia", "US", 39.95, -75.17, "NA"),
    _c("San Antonio", "US", 29.42, -98.49, "NA"),
    _c("San Diego", "US", 32.72, -117.16, "NA"),
    _c("Dallas", "US", 32.78, -96.80, "NA"),
    _c("San Jose", "US", 37.34, -121.89, "NA"),
    _c("San Francisco", "US", 37.77, -122.42, "NA"),
    _c("Seattle", "US", 47.61, -122.33, "NA"),
    _c("Denver", "US", 39.74, -104.99, "NA"),
    _c("Boston", "US", 42.36, -71.06, "NA"),
    _c("Miami", "US", 25.76, -80.19, "NA"),
    _c("Atlanta", "US", 33.75, -84.39, "NA"),
    _c("Washington", "US", 38.91, -77.04, "NA"),
    _c("Detroit", "US", 42.33, -83.05, "NA"),
    _c("Minneapolis", "US", 44.98, -93.27, "NA"),
    _c("Portland", "US", 45.52, -122.68, "NA"),
    _c("Las Vegas", "US", 36.17, -115.14, "NA"),
    _c("Salt Lake City", "US", 40.76, -111.89, "NA"),
    _c("Kansas City", "US", 39.10, -94.58, "NA"),
    _c("Saint Louis", "US", 38.63, -90.20, "NA"),
    _c("Charlotte", "US", 35.23, -80.84, "NA"),
    _c("Columbus", "US", 39.96, -83.00, "NA"),
    _c("Indianapolis", "US", 39.77, -86.16, "NA"),
    _c("Nashville", "US", 36.16, -86.78, "NA"),
    _c("Austin", "US", 30.27, -97.74, "NA"),
    _c("Raleigh", "US", 35.78, -78.64, "NA"),
    _c("Tampa", "US", 27.95, -82.46, "NA"),
    _c("New Orleans", "US", 29.95, -90.07, "NA"),
    _c("Toronto", "CA", 43.65, -79.38, "NA"),
    _c("Montreal", "CA", 45.50, -73.57, "NA"),
    _c("Vancouver", "CA", 49.28, -123.12, "NA"),
    _c("Ottawa", "CA", 45.42, -75.70, "NA"),
    _c("Calgary", "CA", 51.05, -114.07, "NA"),
    _c("Edmonton", "CA", 53.55, -113.49, "NA"),
    _c("Winnipeg", "CA", 49.90, -97.14, "NA"),
    _c("Quebec City", "CA", 46.81, -71.21, "NA"),
    _c("Halifax", "CA", 44.65, -63.58, "NA"),
    _c("Mexico City", "MX", 19.43, -99.13, "NA"),
    _c("Guadalajara", "MX", 20.67, -103.35, "NA"),
    _c("Monterrey", "MX", 25.69, -100.32, "NA"),
    _c("Cancun", "MX", 21.16, -86.85, "NA"),
    _c("Panama City", "PA", 8.98, -79.52, "NA"),
    _c("San Juan", "PR", 18.47, -66.11, "NA"),
    _c("Havana", "CU", 23.11, -82.37, "NA"),
    _c("Guatemala City", "GT", 14.63, -90.51, "NA"),
    _c("San Jose CR", "CR", 9.93, -84.08, "NA"),
]

# --------------------------------------------------------------------------
# Asia & Middle East (45)
# --------------------------------------------------------------------------
_ASIA: List[City] = [
    _c("Tokyo", "JP", 35.68, 139.69, "AS"),
    _c("Osaka", "JP", 34.69, 135.50, "AS"),
    _c("Nagoya", "JP", 35.18, 136.91, "AS"),
    _c("Fukuoka", "JP", 33.59, 130.40, "AS"),
    _c("Sapporo", "JP", 43.06, 141.35, "AS"),
    _c("Seoul", "KR", 37.57, 126.98, "AS"),
    _c("Busan", "KR", 35.18, 129.08, "AS"),
    _c("Beijing", "CN", 39.90, 116.41, "AS"),
    _c("Shanghai", "CN", 31.23, 121.47, "AS"),
    _c("Shenzhen", "CN", 22.54, 114.06, "AS"),
    _c("Guangzhou", "CN", 23.13, 113.26, "AS"),
    _c("Chengdu", "CN", 30.57, 104.07, "AS"),
    _c("Hong Kong", "HK", 22.32, 114.17, "AS"),
    _c("Taipei", "TW", 25.03, 121.57, "AS"),
    _c("Singapore", "SG", 1.35, 103.82, "AS"),
    _c("Kuala Lumpur", "MY", 3.14, 101.69, "AS"),
    _c("Bangkok", "TH", 13.76, 100.50, "AS"),
    _c("Jakarta", "ID", -6.21, 106.85, "AS"),
    _c("Manila", "PH", 14.60, 120.98, "AS"),
    _c("Ho Chi Minh City", "VN", 10.82, 106.63, "AS"),
    _c("Hanoi", "VN", 21.03, 105.85, "AS"),
    _c("Mumbai", "IN", 19.08, 72.88, "AS"),
    _c("Delhi", "IN", 28.70, 77.10, "AS"),
    _c("Bangalore", "IN", 12.97, 77.59, "AS"),
    _c("Chennai", "IN", 13.08, 80.27, "AS"),
    _c("Hyderabad", "IN", 17.39, 78.49, "AS"),
    _c("Kolkata", "IN", 22.57, 88.36, "AS"),
    _c("Karachi", "PK", 24.86, 67.01, "AS"),
    _c("Lahore", "PK", 31.55, 74.34, "AS"),
    _c("Islamabad", "PK", 33.68, 73.05, "AS"),
    _c("Dhaka", "BD", 23.81, 90.41, "AS"),
    _c("Colombo", "LK", 6.93, 79.85, "AS"),
    _c("Kathmandu", "NP", 27.72, 85.32, "AS"),
    _c("Dubai", "AE", 25.20, 55.27, "AS"),
    _c("Abu Dhabi", "AE", 24.45, 54.38, "AS"),
    _c("Doha", "QA", 25.29, 51.53, "AS"),
    _c("Riyadh", "SA", 24.71, 46.68, "AS"),
    _c("Jeddah", "SA", 21.49, 39.19, "AS"),
    _c("Tel Aviv", "IL", 32.09, 34.78, "AS"),
    _c("Jerusalem", "IL", 31.77, 35.21, "AS"),
    _c("Amman", "JO", 31.96, 35.95, "AS"),
    _c("Beirut", "LB", 33.89, 35.50, "AS"),
    _c("Baku", "AZ", 40.41, 49.87, "AS"),
    _c("Almaty", "KZ", 43.22, 76.85, "AS"),
    _c("Tashkent", "UZ", 41.30, 69.24, "AS"),
]

# --------------------------------------------------------------------------
# South America (20)
# --------------------------------------------------------------------------
_SOUTH_AMERICA: List[City] = [
    _c("Sao Paulo", "BR", -23.55, -46.63, "SA"),
    _c("Rio de Janeiro", "BR", -22.91, -43.17, "SA"),
    _c("Brasilia", "BR", -15.79, -47.88, "SA"),
    _c("Fortaleza", "BR", -3.73, -38.53, "SA"),
    _c("Salvador", "BR", -12.97, -38.50, "SA"),
    _c("Porto Alegre", "BR", -30.03, -51.22, "SA"),
    _c("Recife", "BR", -8.05, -34.88, "SA"),
    _c("Buenos Aires", "AR", -34.60, -58.38, "SA"),
    _c("Cordoba", "AR", -31.42, -64.18, "SA"),
    _c("Santiago", "CL", -33.45, -70.67, "SA"),
    _c("Valparaiso", "CL", -33.05, -71.62, "SA"),
    _c("Lima", "PE", -12.05, -77.04, "SA"),
    _c("Bogota", "CO", 4.71, -74.07, "SA"),
    _c("Medellin", "CO", 6.25, -75.56, "SA"),
    _c("Quito", "EC", -0.18, -78.47, "SA"),
    _c("Guayaquil", "EC", -2.17, -79.92, "SA"),
    _c("Caracas", "VE", 10.48, -66.90, "SA"),
    _c("Montevideo", "UY", -34.90, -56.16, "SA"),
    _c("Asuncion", "PY", -25.26, -57.58, "SA"),
    _c("La Paz", "BO", -16.49, -68.12, "SA"),
]

# --------------------------------------------------------------------------
# Africa (20)
# --------------------------------------------------------------------------
_AFRICA: List[City] = [
    _c("Cairo", "EG", 30.04, 31.24, "AF"),
    _c("Alexandria", "EG", 31.20, 29.92, "AF"),
    _c("Lagos", "NG", 6.52, 3.38, "AF"),
    _c("Abuja", "NG", 9.06, 7.40, "AF"),
    _c("Accra", "GH", 5.60, -0.19, "AF"),
    _c("Nairobi", "KE", -1.29, 36.82, "AF"),
    _c("Addis Ababa", "ET", 9.01, 38.75, "AF"),
    _c("Johannesburg", "ZA", -26.20, 28.05, "AF"),
    _c("Cape Town", "ZA", -33.92, 18.42, "AF"),
    _c("Durban", "ZA", -29.86, 31.03, "AF"),
    _c("Casablanca", "MA", 33.57, -7.59, "AF"),
    _c("Rabat", "MA", 34.02, -6.84, "AF"),
    _c("Algiers", "DZ", 36.75, 3.06, "AF"),
    _c("Tunis", "TN", 36.81, 10.18, "AF"),
    _c("Dakar", "SN", 14.72, -17.47, "AF"),
    _c("Kampala", "UG", 0.35, 32.58, "AF"),
    _c("Dar es Salaam", "TZ", -6.79, 39.21, "AF"),
    _c("Kinshasa", "CD", -4.44, 15.27, "AF"),
    _c("Luanda", "AO", -8.84, 13.23, "AF"),
    _c("Harare", "ZW", -17.83, 31.05, "AF"),
]

# --------------------------------------------------------------------------
# Oceania & Pacific (15)
# --------------------------------------------------------------------------
_OCEANIA: List[City] = [
    _c("Sydney", "AU", -33.87, 151.21, "OC"),
    _c("Melbourne", "AU", -37.81, 144.96, "OC"),
    _c("Brisbane", "AU", -27.47, 153.03, "OC"),
    _c("Perth", "AU", -31.95, 115.86, "OC"),
    _c("Adelaide", "AU", -34.93, 138.60, "OC"),
    _c("Canberra", "AU", -35.28, 149.13, "OC"),
    _c("Hobart", "AU", -42.88, 147.33, "OC"),
    _c("Darwin", "AU", -12.46, 130.84, "OC"),
    _c("Auckland", "NZ", -36.85, 174.76, "OC"),
    _c("Wellington", "NZ", -41.29, 174.78, "OC"),
    _c("Christchurch", "NZ", -43.53, 172.64, "OC"),
    _c("Honolulu", "US", 21.31, -157.86, "OC"),
    _c("Suva", "FJ", -18.14, 178.44, "OC"),
    _c("Port Moresby", "PG", -9.44, 147.18, "OC"),
    _c("Noumea", "NC", -22.26, 166.45, "OC"),
]

ALL_CITIES: List[City] = (
    _EUROPE + _NORTH_AMERICA + _ASIA + _SOUTH_AMERICA + _AFRICA + _OCEANIA
)

_BY_NAME: Dict[str, City] = {city.name: city for city in ALL_CITIES}

if len(_BY_NAME) != len(ALL_CITIES):  # pragma: no cover - dataset sanity
    raise RuntimeError("duplicate city names in dataset")


def city_by_name(name: str) -> City:
    """Look up a city by its exact name; raises ``KeyError`` if unknown."""
    return _BY_NAME[name]
