import logging
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab import spatial as sp

import stats_oracle
from geo_oracle import haversine_km


def shoelace(poly):
    n = len(poly)
    s = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def contains(poly, pt, eps=1e-12):
    """Convex containment via consistent cross-product sign."""
    n = len(poly)
    sign = 0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1)
        if abs(cross) <= eps:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


# -- raster container ---------------------------------------------------------------

def test_grid_raster_geometry():
    g = sp.GridRaster(0.0, 0.0, 1.0, np.zeros((2, 3)))
    assert (g.nrows, g.ncols) == (2, 3)
    g.values[0, 1] = g.nodata
    assert g.data_mask().sum() == 5
    with pytest.raises(ValueError, match="2-D"):
        sp.GridRaster(0, 0, 1.0, np.zeros(4))
    with pytest.raises(ValueError, match="cellsize"):
        sp.GridRaster(0, 0, 0.0, np.zeros((2, 2)))


# -- polygon clipping ------------------------------------------------------------------

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_clip_halfplane_square():
    left = sp._clip_halfplane(SQUARE, (1.0, 0.0), 0.5)  # keep x <= 0.5
    assert left == [(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0)]
    assert sp._clip_halfplane(SQUARE, (1.0, 0.0), -1.0) == []  # all outside
    assert sp._clip_halfplane([], (1.0, 0.0), 0.0) == []


def test_dedupe_ring():
    ring = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]
    assert sp._dedupe_ring(ring) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]


# -- voronoi ----------------------------------------------------------------------------

CLIP = [(90.0, 23.0), (91.0, 23.0), (91.0, 24.0), (90.0, 24.0)]


def test_voronoi_single_tower_cell_is_clip():
    cells = sp.voronoi_partition({"T1": (90.4, 23.6)}, CLIP)
    cell = cells["T1"]
    assert len(cell) == 4
    for (gl, gt), (cl, ct) in zip(cell, CLIP):
        assert gl == pytest.approx(cl, abs=1e-9) and gt == pytest.approx(ct, abs=1e-9)


def test_voronoi_two_towers_split():
    cells = sp.voronoi_partition({"W": (90.25, 23.5), "E": (90.75, 23.5)}, CLIP)
    # the bisector is the meridian 90.5; every cell vertex stays on its side
    assert all(lon <= 90.5 + 1e-9 for lon, _ in cells["W"])
    assert all(lon >= 90.5 - 1e-9 for lon, _ in cells["E"])
    area = shoelace(cells["W"]) + shoelace(cells["E"])
    assert area == pytest.approx(shoelace(CLIP), rel=1e-9)


def test_voronoi_cells_partition_clip_and_match_nearest_site():
    rng = np.random.default_rng(4)
    towers = {
        f"T{i}": (90.0 + float(rng.uniform(0, 1)), 23.0 + float(rng.uniform(0, 1)))
        for i in range(12)
    }
    cells = sp.voronoi_partition(towers, CLIP)
    total = sum(shoelace(c) for c in cells.values() if len(c) >= 3)
    assert total == pytest.approx(shoelace(CLIP), rel=1e-6)

    ids = sorted(towers)
    for _ in range(200):
        pt = (90.0 + float(rng.uniform(0, 1)), 23.0 + float(rng.uniform(0, 1)))
        d = [haversine_km(towers[t][0], towers[t][1], pt[0], pt[1]) for t in ids]
        order = np.argsort(d)
        if d[order[1]] - d[order[0]] < 0.01:  # skip near-ties on cell borders
            continue
        nearest = ids[order[0]]
        inside = [t for t in ids if len(cells[t]) >= 3 and contains(cells[t], pt, eps=1e-9)]
        assert nearest in inside


def test_voronoi_jitters_coincident_towers(caplog):
    with caplog.at_level(logging.WARNING, logger="cdrlab.spatial"):
        cells = sp.voronoi_partition({"A": (90.5, 23.5), "B": (90.5, 23.5)}, CLIP)
    assert "jitter" in caplog.text
    assert cells["A"] != cells["B"]
    assert len(cells["A"]) >= 3 and len(cells["B"]) >= 3


def test_voronoi_validation():
    with pytest.raises(ValueError, match="at least one tower"):
        sp.voronoi_partition({}, CLIP)
    with pytest.raises(ValueError, match="3 vertices"):
        sp.voronoi_partition({"A": (90.5, 23.5)}, CLIP[:2])


# -- idw ------------------------------------------------------------------------------------

def equator_grid_samples():
    # 1x4 grid on the equator, cell centers at lon .005, .015, .025, .035
    samples = {(0.005, 0.0): 0.0, (0.035, 0.0): 1.0}
    return samples, dict(nrows=1, ncols=4, xllcorner=0.0, yllcorner=-0.005, cellsize=0.01)


def test_idw_exact_hits_and_one_third_point():
    samples, geom = equator_grid_samples()
    g = sp.idw_interpolate(samples, **geom)
    assert g.values[0, 0] == 0.0 and g.values[0, 3] == 1.0  # exact sample hits
    # cell 1 sits at distances d and 2d: weights 4:1, value 0.2
    assert g.values[0, 1] == pytest.approx(0.2, abs=1e-9)
    assert g.values[0, 2] == pytest.approx(0.8, abs=1e-9)


def test_idw_power_changes_falloff():
    samples, geom = equator_grid_samples()
    g = sp.idw_interpolate(samples, power=1.0, **geom)
    assert g.values[0, 1] == pytest.approx(1 / 3, abs=1e-9)


def test_idw_max_radius_yields_nodata():
    samples, geom = equator_grid_samples()
    # ~1.1 km reaches the adjacent cell center but not two cells over
    g = sp.idw_interpolate(samples, max_radius=1.2, **geom)
    assert g.values[0, 0] == 0.0
    assert g.values[0, 1] == 0.0  # only the left sample in range
    assert g.values[0, 2] == 1.0
    far = sp.idw_interpolate({(10.0, 0.0): 5.0}, max_radius=1.0, **geom)
    assert np.all(far.values == far.nodata)


def test_idw_values_bounded_by_samples_and_match_row_oracle():
    rng = np.random.default_rng(7)
    for _ in range(3):
        samples = {
            (float(rng.uniform(0, 1)), float(rng.uniform(0, 1))): float(rng.uniform(-5, 9))
            for _ in range(8)
        }
        g1 = sp.idw_interpolate(samples, 10, 10, 0.0, 0.0, 0.1)
        slow = stats_oracle.idw_interpolate(samples, 10, 10, 0.0, 0.0, 0.1)
        assert g1.values.tobytes() == slow.values.tobytes()
        lo, hi = min(samples.values()), max(samples.values())
        mask = g1.data_mask()
        assert np.all(g1.values[mask] >= lo - 1e-12)
        assert np.all(g1.values[mask] <= hi + 1e-12)


def test_idw_validation():
    with pytest.raises(ValueError, match="at least one sample"):
        sp.idw_interpolate({}, 2, 2, 0, 0, 1.0)
    with pytest.raises(ValueError, match="dimensions"):
        sp.idw_interpolate({(0.0, 0.0): 1.0}, 0, 2, 0, 0, 1.0)


# -- correlation ------------------------------------------------------------------------------

def test_pearson_correlation_known_cases():
    a = {k: float(i) for i, k in enumerate("abcde")}
    b = {k: 3.0 * float(i) + 1.0 for i, k in enumerate("abcde")}
    r, n = sp.pearson_correlation(a, b)
    assert r == pytest.approx(1.0) and n == 5
    neg = {k: -v for k, v in b.items()}
    assert sp.pearson_correlation(a, neg)[0] == pytest.approx(-1.0)
    x = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0}
    y = {"a": 2.0, "b": 1.0, "c": 4.0, "d": 3.0, "e": 5.0}
    want = np.corrcoef([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])[0, 1]
    assert sp.pearson_correlation(x, y)[0] == pytest.approx(want, abs=1e-12)
    # only the shared keys participate
    r2, n2 = sp.pearson_correlation({**x, "zz": 9.0}, y)
    assert (r2, n2) == (pytest.approx(want, abs=1e-12), 5)


def test_pearson_correlation_validation():
    with pytest.raises(ValueError, match="at least 3"):
        sp.pearson_correlation({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0})
    flat = {"a": 1.0, "b": 1.0, "c": 1.0}
    with pytest.raises(ValueError, match="constant"):
        sp.pearson_correlation(flat, {"a": 1.0, "b": 2.0, "c": 3.0})


def test_raster_correlation_masks_nodata():
    a = sp.GridRaster(0, 0, 1.0, [[1.0, 2.0], [3.0, -9999.0]])
    b = sp.GridRaster(0, 0, 1.0, [[2.0, 4.0], [6.0, 100.0]])
    r, n = sp.raster_correlation(a, b)
    assert r == pytest.approx(1.0) and n == 3
    with pytest.raises(ValueError, match="shapes"):
        sp.raster_correlation(a, sp.GridRaster(0, 0, 1.0, np.zeros((3, 3))))
    with pytest.raises(ValueError, match="shared data cells"):
        sp.raster_correlation(a, sp.GridRaster(0, 0, 1.0, np.full((2, 2), -9999.0)))


@st.composite
def idw_cases(draw):
    """Samples on and off the cell centres of a small grid, with the IDW options."""
    geom = dict(nrows=draw(st.integers(1, 6)), ncols=draw(st.integers(1, 8)),
                xllcorner=draw(st.floats(-30, 30)), yllcorner=draw(st.floats(-60, 60)),
                cellsize=draw(st.sampled_from([0.001, 0.01, 0.25])))
    centre = st.tuples(st.integers(0, geom["nrows"] - 1), st.integers(0, geom["ncols"] - 1)).map(
        lambda rc: (geom["xllcorner"] + (rc[1] + 0.5) * geom["cellsize"],
                    geom["yllcorner"] + (geom["nrows"] - rc[0] - 0.5) * geom["cellsize"]))
    span = 10 * geom["cellsize"]
    anywhere = st.tuples(st.floats(geom["xllcorner"] - span, geom["xllcorner"] + span),
                         st.floats(geom["yllcorner"] - span, geom["yllcorner"] + span))
    samples = draw(st.dictionaries(st.one_of(centre, anywhere), st.floats(-1e6, 1e6), min_size=1, max_size=6))
    options = dict(power=draw(st.sampled_from([2.0, 1.0, 0.5, 3.5])),
                   max_radius=draw(st.one_of(st.none(), st.floats(0.0005, 2000.0))),
                   nodata=draw(st.sampled_from([sp.NODATA_DEFAULT, -1.0, 0.0, 1e30])))
    return samples, geom, options


@settings(max_examples=200, deadline=None)
@given(idw_cases())
def test_idw_raster_and_grid_text_match_row_oracle(case):
    samples, geom, options = case
    fast = sp.idw_interpolate(samples, **geom, **options)
    slow = stats_oracle.idw_interpolate(samples, **geom, **options)
    assert fast.values.tobytes() == slow.values.tobytes()
    assert fast.nodata == slow.nodata == options["nodata"]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "grid.txt")
        sp.write_grid(fast, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    header = "".join(text.splitlines(keepends=True)[:6])
    assert text == header + stats_oracle.grid_body(slow)


# -- io ----------------------------------------------------------------------------------------

def test_grid_round_trip(tmp_path):
    g = sp.GridRaster(90.0, 23.0, 0.25, [[1.5, -9999.0], [0.1, 2.0]])
    path = tmp_path / "grid.txt"
    sp.write_grid(g, str(path), header_comment="# surface")
    back = sp.read_grid(str(path))
    assert back.xllcorner == 90.0 and back.yllcorner == 23.0
    assert back.cellsize == 0.25 and back.nodata == -9999.0
    assert np.array_equal(back.values, g.values)
    assert path.read_text().startswith("# surface\nncols 2\nnrows 2\n")


def test_read_grid_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("ncols x\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata -9999\n")
    with pytest.raises(ValueError, match="bad grid header"):
        sp.read_grid(str(p))
    p2 = tmp_path / "short.txt"
    p2.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata -9999\n1 2\n"
    )
    with pytest.raises(ValueError, match="does not match header"):
        sp.read_grid(str(p2))


GRID_HEAD = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata -9999\n"


def test_read_grid_bad_number_names_its_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text(GRID_HEAD + "1 2\n3 x\n")
    with pytest.raises(ValueError, match=f"^{p}:8: bad number 'x'$"):
        sp.read_grid(str(p))


def test_read_grid_short_row_names_its_line(tmp_path):
    p = tmp_path / "short.txt"
    p.write_text(GRID_HEAD + "# note\n1\n3 4\n")
    with pytest.raises(ValueError, match=f"^{p}:8: expected 2 values$"):
        sp.read_grid(str(p))


def test_geojson_outputs():
    cells = sp.voronoi_partition({"W": (90.25, 23.5), "E": (90.75, 23.5)}, CLIP)
    gj = sp.voronoi_geojson(cells)
    assert gj["type"] == "FeatureCollection" and len(gj["features"]) == 2
    ring = gj["features"][0]["geometry"]["coordinates"][0]
    assert ring[0] == ring[-1]  # closed ring
    pts = sp.points_geojson({"A": (90.0, 23.0)}, properties={"A": {"v": 1}})
    feat = pts["features"][0]
    assert feat["geometry"]["coordinates"] == [90.0, 23.0]
    assert feat["properties"]["v"] == 1

