"""Shared geographic helpers: great-circle distances in array form and a local planar projection."""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_KM = 6371.0


def haversine_km_to(lons, lats, lon0, lat0) -> np.ndarray:
    """Great-circle km from each point to lon0, lat0 on a sphere of radius 6371 km.

    lon0 and lat0 are one reference point, or one per point.  Each distance
    has the bits that ``haversine_km`` of ``tests/geo_oracle.py`` gives for
    that point alone: a scalar's ``** 2`` calls pow(), which can round the
    last bit differently from the multiplication numpy squares an array
    with, so the two squares are taken one value at a time.
    """
    phi1 = np.radians(lats)
    phi2 = np.radians(lat0)
    dphi = phi2 - phi1
    dlam = np.radians(np.subtract(lon0, lons))
    sin_dphi_sq = np.array([s ** 2 for s in np.sin(dphi / 2.0).tolist()])
    sin_dlam_sq = np.array([s ** 2 for s in np.sin(dlam / 2.0).tolist()])
    a = sin_dphi_sq + np.cos(phi1) * np.cos(phi2) * sin_dlam_sq
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def haversine_km_rows(lons, lats, row_lons, row_lats):
    """Yield per lat in row_lats the km [i, j] from (row_lons[i], lat) to (lons[j], lats[j]).

    Each has the bits of ``haversine_km(lons[None, :], lats[None, :],
    row_lons[:, None], lat)`` of ``tests/geo_oracle.py``: the terms that do
    not depend on the row's latitude are computed once, and each row applies
    the same ufuncs to the same shapes.
    """
    phi1 = np.radians(lats[None, :])
    cos_phi1 = np.cos(phi1)
    sin_dlam_sq = np.sin(np.radians(np.subtract(row_lons[:, None], lons[None, :])) / 2.0) ** 2
    for lat in row_lats:
        phi2 = np.radians(lat)
        a = np.sin((phi2 - phi1) / 2.0) ** 2 + cos_phi1 * np.cos(phi2) * sin_dlam_sq
        yield 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


class LocalProjection:
    """Equirectangular projection about a reference point, in km.

    Adequate for the tens-of-km extents this toolkit works at; distances
    are great-circle ones, from haversine_km_to and haversine_km_rows.
    """

    def __init__(self, lon0: float, lat0: float):
        self.lon0 = float(lon0)
        self.lat0 = float(lat0)
        self._kx = EARTH_RADIUS_KM * math.cos(math.radians(lat0)) * math.pi / 180.0
        self._ky = EARTH_RADIUS_KM * math.pi / 180.0

    def to_xy(self, lon: float, lat: float) -> tuple[float, float]:
        return ((lon - self.lon0) * self._kx, (lat - self.lat0) * self._ky)

    def to_lonlat(self, x: float, y: float) -> tuple[float, float]:
        return (x / self._kx + self.lon0, y / self._ky + self.lat0)
