"""Voronoi tessellation, area aggregation, IDW rasters, and raster text I/O.

Planar geometry runs in a local equirectangular projection (kilometres)
about the clip-polygon centroid; at country scale the distortion is far
below tower-spacing, and the arithmetic stays deterministic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geo import LocalProjection, haversine_km_rows
from .ingest import number, open_text

log = logging.getLogger(__name__)

NODATA_DEFAULT = -9999.0
COINCIDENT_JITTER_DEG = 1e-6
EXACT_HIT_KM = 0.001  # within one metre of a sample: take its value


@dataclass
class VoronoiPartition:
    towers: dict[str, tuple[float, float]]
    cells: dict[str, list[tuple[float, float]]]
    clip: list[tuple[float, float]]


@dataclass
class GridRaster:
    """Row-major grid; row 0 is the northmost row, origin is the lower-left
    corner of the lower-left cell."""

    xllcorner: float
    yllcorner: float
    cellsize: float
    values: np.ndarray
    nodata: float = NODATA_DEFAULT

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError("grid must be a 2-D array with positive dimensions")
        if self.cellsize <= 0:
            raise ValueError("cellsize must be positive")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def data_mask(self) -> np.ndarray:
        return self.values != self.nodata


def _clip_halfplane(poly, n, c):
    """Keep the part of poly with n . x <= c (Sutherland-Hodgman step)."""
    if not poly:
        return []
    out = []
    m = len(poly)
    for i in range(m):
        p = poly[i]
        q = poly[(i + 1) % m]
        dp = n[0] * p[0] + n[1] * p[1] - c
        dq = n[0] * q[0] + n[1] * q[1] - c
        if dp <= 0:
            out.append(p)
        if (dp < 0 < dq) or (dq < 0 < dp):
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _dedupe_ring(poly, eps=1e-9):
    out = []
    for p in poly:
        if not out or abs(p[0] - out[-1][0]) > eps or abs(p[1] - out[-1][1]) > eps:
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= eps and abs(out[0][1] - out[-1][1]) <= eps:
        out.pop()
    return out


def voronoi_partition(
    towers: dict[str, tuple[float, float]],
    clip: list[tuple[float, float]],
) -> VoronoiPartition:
    """Voronoi cells by iterated half-plane clipping of the clip polygon.

    Each tower's cell starts as the clip polygon and is cut against the
    perpendicular bisector with every other tower.  O(n^2) in towers, which
    is fine for a few hundred sites.  Coincident towers are jittered by
    1e-6 degrees with a warning.  A tower far outside the clip region can
    end up with an empty cell.
    """
    if not towers:
        raise ValueError("voronoi_partition needs at least one tower")
    if len(clip) < 3:
        raise ValueError("clip polygon needs at least 3 vertices")
    positions: dict[str, tuple[float, float]] = {}
    seen: dict[tuple[float, float], int] = {}
    for tid in sorted(towers):
        lon, lat = towers[tid]
        key = (lon, lat)
        bump = seen.get(key, 0)
        if bump:
            log.warning("tower %s coincides with another site; jittering", tid)
            lon += COINCIDENT_JITTER_DEG * bump
            lat += COINCIDENT_JITTER_DEG * bump
        seen[key] = bump + 1
        positions[tid] = (lon, lat)

    lon0 = sum(p[0] for p in clip) / len(clip)
    lat0 = sum(p[1] for p in clip) / len(clip)
    proj = LocalProjection(lon0, lat0)
    clip_xy = [proj.to_xy(lon, lat) for lon, lat in clip]
    sites = {tid: proj.to_xy(lon, lat) for tid, (lon, lat) in positions.items()}

    cells = {}
    for tid, (tx, ty) in sites.items():
        poly = list(clip_xy)
        for oid, (ox, oy) in sites.items():
            if oid == tid or not poly:
                continue
            n = (ox - tx, oy - ty)
            c = ((ox * ox + oy * oy) - (tx * tx + ty * ty)) / 2.0
            poly = _clip_halfplane(poly, n, c)
        poly = _dedupe_ring(poly)
        cells[tid] = [proj.to_lonlat(x, y) for x, y in poly]
    return VoronoiPartition(towers=positions, cells=cells, clip=list(clip))


def aggregate_to_areas(
    values: dict[str, float],
    home: dict[str, str],
    level: str | dict[str, str] = "tower",
    stat: str = "mean",
) -> dict[str, float]:
    """Grouped statistic of per-subscriber values at tower or area level.

    level="tower" groups by home tower; a dict maps tower id to area id.
    Subscribers without a home, with a None value, or (at area level) with
    an unmapped home tower are skipped.  Areas with no contributing
    subscriber are absent from the result.
    """
    if stat not in ("mean", "sum", "count"):
        raise ValueError(f"unknown stat {stat!r}")
    groups: dict[str, list[float]] = {}
    for sub, v in values.items():
        if v is None:
            continue
        tower = home.get(sub)
        if tower is None:
            continue
        if level == "tower":
            area = tower
        else:
            area = level.get(tower)
            if area is None:
                continue
        groups.setdefault(area, []).append(float(v))
    if stat == "count":
        return {a: float(len(g)) for a, g in groups.items()}
    if stat == "sum":
        return {a: float(sum(g)) for a, g in groups.items()}
    return {a: sum(g) / len(g) for a, g in groups.items()}


def idw_interpolate(
    samples: dict[tuple[float, float], float],
    nrows: int,
    ncols: int,
    xllcorner: float,
    yllcorner: float,
    cellsize: float,
    power: float = 2.0,
    max_radius: float | None = None,
    nodata: float = NODATA_DEFAULT,
) -> GridRaster:
    """Inverse-distance-weighted surface of point samples on a lat/lon grid.

    Weights are d^(-power) over samples within max_radius km (default: no
    limit); a cell within a metre of a sample takes that sample's value
    exactly; a cell with no in-radius sample gets nodata.
    """
    if not samples:
        raise ValueError("idw_interpolate needs at least one sample")
    if nrows < 1 or ncols < 1:
        raise ValueError("grid dimensions must be positive")
    pts = sorted(samples.items())
    s_lon = np.array([p[0][0] for p in pts])
    s_lat = np.array([p[0][1] for p in pts])
    s_val = np.array([p[1] for p in pts], dtype=float)
    lons = xllcorner + (np.arange(ncols) + 0.5) * cellsize
    lats = yllcorner + (nrows - np.arange(nrows) - 0.5) * cellsize
    radius = math.inf if max_radius is None else float(max_radius)
    values = np.full((nrows, ncols), nodata, dtype=float)
    for row, d in zip(values, haversine_km_rows(s_lon, s_lat, lons, lats)):
        in_range = d <= radius
        # an exact hit makes its weight infinite and the blend below nan;
        # both are overwritten by the sample value afterwards
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(in_range, d ** -power, 0.0)
            wsum = w.sum(axis=1)
            ok = wsum > 0
            if ok.any():
                row[ok] = (w[ok] @ s_val) / wsum[ok]
        hit = d < EXACT_HIT_KM
        exact = hit.any(axis=1)
        row[exact] = s_val[np.argmax(hit[exact], axis=1)]
    return GridRaster(xllcorner, yllcorner, cellsize, values, nodata)


def pearson_correlation(a: dict[str, float], b: dict[str, float]) -> tuple[float, int]:
    """Pearson r over the keys present in both mappings, plus that count."""
    keys = sorted(set(a) & set(b))
    if len(keys) < 3:
        raise ValueError(f"need at least 3 common areas, got {len(keys)}")
    x = np.array([float(a[k]) for k in keys])
    y = np.array([float(b[k]) for k in keys])
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        raise ValueError("constant input; correlation undefined")
    r = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    return r, len(keys)


def raster_correlation(a: GridRaster, b: GridRaster) -> tuple[float, int]:
    """Pearson r over cells where both rasters have data."""
    if a.values.shape != b.values.shape:
        raise ValueError("raster shapes differ")
    mask = a.data_mask() & b.data_mask()
    n = int(mask.sum())
    if n < 3:
        raise ValueError(f"need at least 3 shared data cells, got {n}")
    x = a.values[mask]
    y = b.values[mask]
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        raise ValueError("constant input; correlation undefined")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy)), n


def write_grid(raster: GridRaster, path: str, header_comment: str | None = None) -> None:
    """Plain-text grid: six header lines then row-major values, north first."""
    with open_text(path, "wt") as fh:
        if header_comment:
            fh.write(header_comment.rstrip("\n") + "\n")
        fh.write(f"ncols {raster.ncols}\n")
        fh.write(f"nrows {raster.nrows}\n")
        fh.write(f"xllcorner {raster.xllcorner!r}\n")
        fh.write(f"yllcorner {raster.yllcorner!r}\n")
        fh.write(f"cellsize {raster.cellsize!r}\n")
        fh.write(f"nodata {raster.nodata!r}\n")
        for row in raster.values.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def read_grid(path: str) -> GridRaster:
    with open_text(path, "rt") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip() and not ln.startswith("#")]
    header = {}
    for _, ln in lines[:6]:
        key, _, val = ln.partition(" ")
        header[key.lower()] = val.strip()
    try:
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
        xll = float(header["xllcorner"])
        yll = float(header["yllcorner"])
        cellsize = float(header["cellsize"])
        nodata = float(header["nodata"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad grid header in {path}: {exc}") from exc
    rows = []
    for n, ln in lines[6:]:
        cells = ln.split()
        if len(cells) != ncols:
            raise ValueError(f"{path}:{n}: expected {ncols} values")
        rows.append([number(path, n, v) for v in cells])
    values = np.array(rows)
    if values.shape != (nrows, ncols):
        raise ValueError(f"grid body {values.shape} does not match header ({nrows}, {ncols})")
    return GridRaster(xll, yll, cellsize, values, nodata)


def voronoi_geojson(partition: VoronoiPartition) -> dict:
    features = []
    for tid in sorted(partition.cells):
        ring = [[lon, lat] for lon, lat in partition.cells[tid]]
        if ring:
            ring.append(ring[0])
        features.append(
            {
                "type": "Feature",
                "properties": {"tower": tid},
                "geometry": {"type": "Polygon", "coordinates": [ring] if ring else []},
            }
        )
    return {"type": "FeatureCollection", "features": features}


def points_geojson(points: dict[str, tuple[float, float]], properties: dict[str, dict] | None = None) -> dict:
    """FeatureCollection of id -> (lon, lat) points with optional per-id properties."""
    features = []
    for pid in sorted(points):
        lon, lat = points[pid]
        props = {"id": pid}
        if properties and pid in properties:
            props.update(properties[pid])
        features.append(
            {
                "type": "Feature",
                "properties": props,
                "geometry": {"type": "Point", "coordinates": [lon, lat]},
            }
        )
    return {"type": "FeatureCollection", "features": features}

