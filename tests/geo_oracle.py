"""The scalar great-circle distance, kept as the reference of the array kernels in ``cdrlab.geo``.

``haversine_km`` takes scalars or broadcastable arrays, as ``cdrlab.geo`` once
did for every distance; ``geo.haversine_km_to`` must give, bit for bit, what it
gives one point at a time, and ``geo.haversine_km_rows`` what it gives one
raster row at a time.
"""

from __future__ import annotations

import numpy as np

from cdrlab.geo import EARTH_RADIUS_KM


def haversine_km(lon1, lat1, lon2, lat2):
    """Great-circle distance in km on a sphere of radius 6371 km.

    Accepts scalars or broadcastable arrays; returns a float for scalar
    input.
    """
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.subtract(lon2, lon1))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    return float(d) if np.ndim(d) == 0 else d
