import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_oracle as oracle
from cdrlab import config
from cdrlab import synthgen as syn
from cdrlab.records import SECONDS_PER_DAY, parse_timestamp
from cdrlab.rng import derive_rng

from conftest import T0, DAY, cdr_rows, topup_rows
from graph_oracle import nearest_tower

GRID = (90.0, 22.0, 92.5, 26.0)


def small_cfg(**kw):
    """config.SCHEMA's [synth] defaults at a small size, as a SynthConfig."""
    s = config.default_config()["synth"]
    del s["graph_model"]
    base = dict(s, seed=11, start=parse_timestamp(s["start"]), subscribers=24, towers=6, sw_k=4, days=7,
                event_rate=4.0)
    return syn.SynthConfig(**{**base, **kw})


# -- config validation ---------------------------------------------------------

def test_older_spelling_takes_the_schema_defaults():
    # perfbench/selftest.py's dirty-input fixture builds its config this way
    older = syn.SynthConfig(seed=2, n_subscribers=80, n_towers=12, grid=GRID, graph_model=syn.SmallWorld(6, 0.1),
                            days=7, event_rate=6.0)
    assert older == small_cfg(seed=2, subscribers=80, towers=12, sw_k=6, sw_rewire=0.1, days=7, event_rate=6.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(subscribers=1),
        dict(towers=0),
        dict(days=0),
        dict(event_rate=-1.0),
        dict(denominations=(50.0, 10.0)),
        dict(denominations=(10.0, 10.0)),
        dict(denominations=(-5.0, 10.0)),
        dict(grid=(92.5, 22.0, 90.0, 26.0)),
        dict(visit_concentration=1.0),
        dict(label_low_fraction=1.5),
        dict(denominations=()),
        dict(grid=(90.0, 22.0, 92.5)),
        dict(data_rate=-0.5),
        dict(topup_gap_days=0.0),
        dict(label_effect=2.5),
        dict(label_effect=-0.1),
    ],
)
def test_config_rejects_bad_values(kw):
    ((key, value),) = kw.items()
    with pytest.raises(ValueError, match=rf"^\[synth\] {key} = {re.escape(repr(value))}: must be "):
        small_cfg(**kw)


def test_ground_truth_json_round_trip():
    gt = syn.GroundTruth(
        shock_intervals=[(("tower", "T001"), (100, 200), 3.0)],
        home_tower={"S1": "T001"},
        label={"S1": "low", "S2": "high"},
    )
    assert json.loads(json.dumps(gt.to_dict())) == {
        "adopters_by_day": {},  # synth simulates no adoption
        "shock_intervals": [{"entity": ["tower", "T001"], "interval": [100, 200], "multiplier": 3.0}],
        "home_tower": {"S1": "T001"},
        "label": {"S1": "low", "S2": "high"},
    }


def test_id_formatting():
    assert syn.subscriber_ids(500)[:2] == ["S0000", "S0001"]
    assert syn.subscriber_ids(20000)[-1] == "S19999"
    assert syn.tower_ids(30)[0] == "T000"
    assert syn.tower_ids(2000)[-1] == "T1999"


def test_towers_inside_grid_and_deterministic():
    cfg = small_cfg()
    towers = syn.towers_for(cfg)
    assert len(towers) == 6
    for lon, lat in towers.values():
        assert GRID[0] <= lon <= GRID[2] and GRID[1] <= lat <= GRID[3]
    assert syn.towers_for(cfg) == towers


# -- graph generators ------------------------------------------------------------

def test_small_world_lattice_without_rewiring():
    edges = syn._small_world_edges(10, 4, 0.0, derive_rng(0, "x"))
    assert len(edges) == 20
    degrees = np.zeros(10, dtype=int)
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
        assert (b - a) % 10 in (1, 2, 8, 9)
    assert all(degrees == 4)


def test_small_world_rewiring_preserves_edge_count():
    for seed in range(5):
        edges = syn._small_world_edges(30, 6, 0.4, derive_rng(seed, "sw"))
        assert len(edges) == 90
        assert all(a != b for a, b in edges)


def test_small_world_parameter_validation():
    with pytest.raises(ValueError, match=r"^\[synth\] sw_k = 3: must be even$"):
        small_cfg(subscribers=10, sw_k=3)
    with pytest.raises(ValueError, match=r"^\[synth\] sw_k = 4: must be >= 0 and smaller than subscribers$"):
        small_cfg(subscribers=4, sw_k=4)
    with pytest.raises(ValueError, match=r"^\[synth\] sw_k = -2: must be >= 0"):
        small_cfg(sw_k=-2)
    assert small_cfg(subscribers=5, sw_k=4).sw_k == 4


def test_generate_population_small_world():
    cfg = small_cfg(sw_rewire=0.0)
    g, gt = syn.generate_population(cfg)
    subs = syn.subscriber_ids(24)
    assert list(g.ids) == subs
    assert g.degrees().tolist() == [4] * 24
    towers = syn.towers_for(cfg)
    assert set(gt.home_tower) == set(subs)
    assert set(gt.home_tower.values()) <= set(towers)
    assert set(gt.label.values()) <= {"low", "high"}
    g2, gt2 = syn.generate_population(cfg)
    assert list(g2.edges()) == list(g.edges()) and gt2 == gt


@pytest.mark.parametrize("seed", range(4))
def test_generate_population_homes_match_scalar_nearest_tower(seed):
    cfg = small_cfg(seed=seed, subscribers=90, towers=40)
    _, gt = syn.generate_population(cfg)
    towers = syn.towers_for(cfg)
    lon_min, lat_min, lon_max, lat_max = cfg.grid
    for i, s in enumerate(syn.subscriber_ids(cfg.subscribers)):
        theta = 2 * math.pi * i / cfg.subscribers
        lon = (lon_min + lon_max) / 2 + 0.35 * (lon_max - lon_min) * math.cos(theta)
        lat = (lat_min + lat_max) / 2 + 0.35 * (lat_max - lat_min) * math.sin(theta)
        assert gt.home_tower[s] == nearest_tower(lon, lat, towers)


def test_generate_events_needs_the_population_graph():
    cfg = small_cfg()
    g, gt = syn.generate_population(cfg)
    other, _ = syn.generate_population(small_cfg(subscribers=25))
    with pytest.raises(ValueError, match="subscribers"):
        syn.generate_events(cfg, other, gt)


# -- event generation --------------------------------------------------------------

def test_generate_events_deterministic_and_in_window():
    cfg = small_cfg()
    g, gt = syn.generate_population(cfg)
    ds1 = syn.generate_events(cfg, g, gt)
    ds2 = syn.generate_events(cfg, g, gt)
    assert cdr_rows(ds1.cdrs) == cdr_rows(ds2.cdrs)
    assert topup_rows(ds1.topups) == topup_rows(ds2.topups)
    assert len(ds1.cdrs) > 0 and len(ds1.topups) > 0
    lo, hi = ds1.window
    assert (lo, hi) == (T0, T0 + 7 * DAY)
    assert all(lo <= r.timestamp < hi for r in cdr_rows(ds1.cdrs))
    assert all(lo <= r.timestamp < hi for r in topup_rows(ds1.topups))
    assert cdr_rows(ds1.cdrs) == sorted(cdr_rows(ds1.cdrs), key=lambda r: r.timestamp)


def test_generate_events_kind_mix_and_magnitudes():
    cfg = small_cfg(sms_fraction=1.0)
    g, gt = syn.generate_population(cfg)
    ds = syn.generate_events(cfg, g, gt)
    assert len(ds.cdrs) and all(r.kind == "sms" and r.magnitude == 1.0 for r in cdr_rows(ds.cdrs))
    cfg0 = small_cfg(sms_fraction=0.0)
    ds0 = syn.generate_events(cfg0, g, gt)
    assert len(ds0.cdrs) and all(r.kind == "voice" and r.magnitude >= 1 for r in cdr_rows(ds0.cdrs))
    linked = {frozenset((u, v)) for u, v, _ in g.edges()}
    assert all(frozenset((r.caller, r.callee)) in linked for r in cdr_rows(ds0.cdrs))


def test_generate_events_data_and_topups():
    cfg = small_cfg(data_rate=2.0)
    g, gt = syn.generate_population(cfg)
    ds = syn.generate_events(cfg, g, gt)
    data = [r for r in cdr_rows(ds.cdrs) if r.kind == "data"]
    assert data and all(r.callee is None and r.magnitude > 0 for r in data)
    denoms = set(cfg.denominations)
    assert len(ds.topups) and all(t.amount in denoms for t in topup_rows(ds.topups))
    assert all(t.retailer_tower in ds.towers for t in topup_rows(ds.topups))


def test_generate_events_zero_rate_still_tops_up():
    cfg = small_cfg(event_rate=0.0)
    g, gt = syn.generate_population(cfg)
    ds = syn.generate_events(cfg, g, gt)
    assert len(ds.cdrs) == 0 and len(ds.topups) > 0


@st.composite
def small_configs(draw):
    """Configs of 2-60 subscribers, 1-10 towers and 1-5 days, with data sessions and a label effect."""
    n = draw(st.integers(2, 60))
    unit = st.floats(0.0, 1.0)
    return small_cfg(
        seed=draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))),
        subscribers=n, towers=draw(st.integers(1, 10)),
        sw_k=2 * draw(st.integers(0, (n - 1) // 2)), sw_rewire=draw(unit),
        days=draw(st.integers(1, 5)),
        denominations=tuple(draw(st.lists(st.sampled_from([5.0, 10.0, 20.0, 50.0, 100.0]),
                                          min_size=1, unique=True).map(sorted))),
        event_rate=draw(st.floats(0.0, 5.0)), sms_fraction=draw(unit),
        data_rate=draw(st.floats(0.01, 3.0)), topup_gap_days=draw(st.floats(0.2, 4.0)),
        visit_concentration=draw(st.floats(0.05, 0.95)), label_low_fraction=draw(unit),
        label_effect=draw(st.floats(0.01, 1.0)),
    )


def assert_same_table(table, expected):
    for name in table.COLUMNS:
        got, want = getattr(table, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert vars(table).keys() == vars(expected).keys()
    assert all(getattr(table, k) == getattr(expected, k) for k in vars(table) if k not in table.COLUMNS)


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_grouped_synthesis_matches_the_per_subscriber_oracle(cfg):
    g, gt = syn.generate_population(cfg)
    og, ogt = oracle.generate_population(cfg)
    assert g.ids == og.ids and list(g.edges()) == list(og.edges())
    assert gt == ogt and list(gt.home_tower) == list(ogt.home_tower) and list(gt.label) == list(ogt.label)
    ds, expected = syn.generate_events(cfg, g, gt), oracle.generate_events(cfg, og, ogt)
    assert_same_table(ds.cdrs, expected.cdrs)
    assert_same_table(ds.topups, expected.topups)
    assert (ds.towers, ds.window) == (expected.towers, expected.window)


def test_grouped_synthesis_spans_blocks():
    # more subscribers than one block, some with low labels that change their streams
    cfg = small_cfg(subscribers=2 * syn.BLOCK + 3, towers=12, days=2, data_rate=1.0, label_effect=0.5)
    g, gt = syn.generate_population(cfg)
    ds, expected = syn.generate_events(cfg, g, gt), oracle.generate_events(cfg, g, gt)
    assert_same_table(ds.cdrs, expected.cdrs)
    assert_same_table(ds.topups, expected.topups)


# -- shock injection -----------------------------------------------------------------

def make_synth_ds():
    cfg = small_cfg()
    g, gt = syn.generate_population(cfg)
    return cfg, syn.generate_events(cfg, g, gt), gt


def test_inject_shock_identity_and_removal():
    _, ds, gt = make_synth_ds()
    span = (T0 + DAY, T0 + 2 * DAY)
    same, gt1 = syn.inject_shock(ds, gt, ("global",), span, 1.0, seed=5)
    assert cdr_rows(same.cdrs) == cdr_rows(ds.cdrs)
    assert topup_rows(same.topups) == topup_rows(ds.topups)
    assert gt1.shock_intervals == [(("global",), span, 1.0)]

    gone, _ = syn.inject_shock(ds, gt, ("global",), span, 0.0, seed=5)
    assert all(not (span[0] <= r.timestamp < span[1]) for r in cdr_rows(gone.cdrs))
    untouched = [r for r in cdr_rows(ds.cdrs) if not (span[0] <= r.timestamp < span[1])]
    assert cdr_rows(gone.cdrs) == untouched


def test_inject_shock_doubles_exactly_inside_entity():
    _, ds, gt = make_synth_ds()
    span = (T0 + DAY, T0 + 2 * DAY)
    tid = cdr_rows(ds.cdrs)[len(ds.cdrs) // 2].tower
    out, _ = syn.inject_shock(ds, gt, ("tower", tid), span, 2.0, seed=5)

    def n_hit(d):
        return sum(1 for r in cdr_rows(d.cdrs) if r.tower == tid and span[0] <= r.timestamp < span[1])

    def n_rest(d):
        return sum(1 for r in cdr_rows(d.cdrs) if not (r.tower == tid and span[0] <= r.timestamp < span[1]))

    assert n_hit(ds) > 0
    assert n_hit(out) == 2 * n_hit(ds)
    assert n_rest(out) == n_rest(ds)
    assert topup_rows(out.topups) == topup_rows(ds.topups)  # calls stream leaves recharges alone


def test_inject_shock_fractional_multiplier_bounds():
    _, ds, gt = make_synth_ds()
    span = (T0, T0 + 3 * DAY)
    out, _ = syn.inject_shock(ds, gt, ("global",), span, 2.5, seed=5)

    def n_hit(d):
        return sum(1 for r in cdr_rows(d.cdrs) if span[0] <= r.timestamp < span[1])

    assert 2 * n_hit(ds) <= n_hit(out) <= 3 * n_hit(ds)


def test_inject_shock_recharge_stream_and_district():
    _, ds, gt = make_synth_ds()
    span = (T0, T0 + 7 * DAY)
    tower = sorted(ds.towers)[0]
    assert any(t.retailer_tower == tower for t in topup_rows(ds.topups))
    out, _ = syn.inject_shock(ds, gt, ("tower", tower), span, 0.0, seed=1, stream="recharges")
    assert cdr_rows(out.cdrs) == cdr_rows(ds.cdrs)
    assert all(t.retailer_tower != tower for t in topup_rows(out.topups))
    assert len(out.topups) == len(ds.topups) - sum(t.retailer_tower == tower for t in topup_rows(ds.topups))


def test_inject_shock_validation():
    _, ds, gt = make_synth_ds()
    with pytest.raises(ValueError, match="multiplier"):
        syn.inject_shock(ds, gt, ("global",), (T0, T0 + DAY), -1.0)
    with pytest.raises(ValueError, match="stream"):
        syn.inject_shock(ds, gt, ("global",), (T0, T0 + DAY), 1.0, stream="sms")
    with pytest.raises(ValueError, match="entity"):
        syn.inject_shock(ds, gt, ("district", "D1"), (T0, T0 + DAY), 1.0)


# -- adoption simulation ---------------------------------------------------------------

def ring_graph(n):
    from conftest import graph_from
    return graph_from([(f"n{i:02d}", f"n{(i + 1) % n:02d}") for i in range(n)])


def test_adoption_sets_are_cumulative_and_deterministic():
    g = ring_graph(40)
    for seed in range(9, 14):
        first = syn.simulate_adoption(g, 0.05, 1.0, days=12, seed=seed)
        assert first.min() >= -1 and first.max() < 12
        assert np.array_equal(syn.simulate_adoption(g, 0.05, 1.0, days=12, seed=seed), first)
        # day d's cumulative adopter set is every node adopted by day d
        assert oracle.adopters_by_day(g, 0.05, 1.0, days=12, seed=seed) == {
            d: frozenset(g.ids[i] for i in np.flatnonzero((first >= 0) & (first <= d)).tolist())
            for d in range(12)
        }


def test_adoption_extremes():
    g = ring_graph(10)
    all_in = syn.simulate_adoption(g, p0=1.0, beta=0.0, days=1, seed=0)
    assert all_in.tolist() == [0] * 10
    none = syn.simulate_adoption(g, p0=0.0, beta=5.0, days=5, seed=0)
    assert none.tolist() == [-1] * 10


def test_adoption_validation():
    g = ring_graph(6)
    with pytest.raises(ValueError):
        syn.simulate_adoption(g, p0=1.5, beta=0.0, days=3)
    with pytest.raises(ValueError):
        syn.simulate_adoption(g, p0=0.1, beta=-0.5, days=3)
    with pytest.raises(ValueError):
        syn.simulate_adoption(g, p0=0.1, beta=0.0, days=0)
