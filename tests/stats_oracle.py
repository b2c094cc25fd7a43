"""The former one-replicate-at-a-time and one-row-at-a-time kernels, kept as oracles.

``node_kappa``, ``link_kappa`` and ``clustering_kappa`` drew every null
replicate from its own ``derive_rng`` stream and counted it alone; the
block versions in ``cdrlab.adoption`` must return equal ``KappaResult``s.
``idw_interpolate`` computed each raster row with ``haversine_km`` and
looked for exact hits cell by cell, and ``write_grid`` formatted one value at
a time; ``cdrlab.spatial`` must give the same raster and the same text.

``adopter_mask`` and ``edge_positions`` turn subscriber ids into the node
mask and edge positions the kappa and p_k functions take.
"""

from __future__ import annotations

import math

import numpy as np

from cdrlab.adoption import KappaResult, _kappa_result
from cdrlab.geo import haversine_km
from cdrlab.rng import derive_rng
from cdrlab.socialgraph import global_clustering_coefficient, triangle_counts
from cdrlab.spatial import EXACT_HIT_KM, NODATA_DEFAULT, GridRaster


def adopter_mask(g, adopters) -> np.ndarray:
    """Boolean node mask of the adopter ids, each of them a node of g."""
    pos = g.index(adopters)
    assert (pos >= 0).all(), "adopters not in graph"
    mask = np.zeros(g.node_count(), dtype=bool)
    mask[pos] = True
    return mask


def edge_positions(g, links) -> np.ndarray:
    """Sorted positions in g's edge arrays of the distinct links, each an id pair of an edge of g."""
    at = {(u, v): i for i, (u, v, _) in enumerate(g.edges())}
    return np.array(sorted({at[min(link), max(link)] for link in links}), dtype=np.int64)


def node_kappa(g, adopted, replicates=200, seed=0) -> KappaResult:
    n = g.node_count()
    m = int(adopted.sum())
    if m == 0:
        raise ValueError(
            "kappa undefined for an empty adopter set: "
            "random_mean equals empirical by construction only at full adoption"
        )
    empirical = int(np.count_nonzero(adopted[g.u] & adopted[g.v]))
    if m == n:
        if empirical == 0:
            raise ValueError("reference degenerate: graph has no edges")
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))

    def one(r: int) -> int:
        rng = derive_rng(seed, "node_kappa", r)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=m, replace=False)] = True
        return int(np.count_nonzero(mask[g.u] & mask[g.v]))

    return _kappa_result(empirical, [one(r) for r in range(replicates)])


def link_kappa(g, active, replicates=200, seed=0) -> KappaResult:
    n = g.node_count()
    m = len(active)
    if m == 0:
        raise ValueError("kappa undefined for an empty active-link set")

    def adjacent(edges: np.ndarray) -> int:
        deg = np.bincount(g.u[edges], minlength=n) + np.bincount(g.v[edges], minlength=n)
        return int((deg * (deg - 1)).sum() // 2)

    empirical = adjacent(active)
    if m == g.edge_count():
        if empirical == 0:
            raise ValueError("reference degenerate: full activation has no adjacent pairs")
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))

    def one(r: int) -> int:
        rng = derive_rng(seed, "link_kappa", r)
        return adjacent(rng.choice(g.edge_count(), size=m, replace=False))

    return _kappa_result(empirical, [one(r) for r in range(replicates)])


def _clustering(g, edges: np.ndarray) -> tuple[int, int]:
    closed, adjacent = triangle_counts(g.u[edges], g.v[edges], g.node_count())
    return int(closed[0]), int(adjacent[0])


def clustering_kappa(g, active, replicates=200, seed=0) -> KappaResult:
    m = len(active)
    if m == 0:
        raise ValueError("kappa undefined for an empty active-link set")
    closed, adjacent = _clustering(g, active)
    c_emp = closed / adjacent if adjacent else 0.0
    if m == g.edge_count():
        if global_clustering_coefficient(g) == 0.0:
            raise ValueError("reference degenerate: graph has no adjacent pairs")
        return KappaResult(1.0, c_emp, c_emp, 0.0, 0, (1.0, 1.0))

    def one(r: int) -> float:
        rng = derive_rng(seed, "clustering_kappa", r)
        closed, adjacent = _clustering(g, rng.choice(g.edge_count(), size=m, replace=False))
        return closed / adjacent if adjacent else np.nan

    return _kappa_result(c_emp, [one(r) for r in range(replicates)])


def idw_interpolate(samples, nrows, ncols, xllcorner, yllcorner, cellsize, power=2.0,
                    max_radius=None, nodata=NODATA_DEFAULT) -> GridRaster:
    pts = sorted(samples.items())
    s_lon = np.array([p[0][0] for p in pts])
    s_lat = np.array([p[0][1] for p in pts])
    s_val = np.array([p[1] for p in pts], dtype=float)
    lons = xllcorner + (np.arange(ncols) + 0.5) * cellsize
    lats = yllcorner + (nrows - np.arange(nrows) - 0.5) * cellsize
    radius = math.inf if max_radius is None else float(max_radius)

    def fill_row(r: int) -> np.ndarray:
        d = haversine_km(s_lon[None, :], s_lat[None, :], lons[:, None], lats[r])
        row = np.full(ncols, nodata, dtype=float)
        hit = d < EXACT_HIT_KM
        in_range = d <= radius
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(in_range, d ** -power, 0.0)
            wsum = w.sum(axis=1)
            ok = wsum > 0
            if ok.any():
                row[ok] = (w[ok] @ s_val) / wsum[ok]
        for j in range(ncols):
            if hit[j].any():
                row[j] = s_val[np.argmax(hit[j])]
        return row

    return GridRaster(xllcorner, yllcorner, cellsize, np.vstack([fill_row(r) for r in range(nrows)]), nodata)


def grid_body(raster: GridRaster) -> str:
    """The value lines of write_grid, one numpy value at a time."""
    return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in raster.values)
