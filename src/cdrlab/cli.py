"""Command-line front end: one subcommand per analysis, one shared config.

Every output file starts with a comment line carrying the tool version,
the effective-config hash, and the seed, and every file is written to a
temp name and renamed only after the whole command succeeds, so a failed
run leaves no partial artifacts.  Exit codes: 0 success, 1 usage error,
2 data/config error.

Each handler imports its own analysis modules (and numpy), so a subcommand
pays at start-up only for what it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__, ingest
from .config import CONFIG_ENV_VAR, ConfigError, config_hash, load_config
from .records import SECONDS_PER_DAY, day_start, parse_timestamp

SUBCOMMANDS = (
    "synth", "ingest-check", "features", "graph", "adoption", "kappa", "pk",
    "anomaly", "flows", "rank-curves", "distance-matrix", "voronoi", "idw",
    "correlate", "train", "eval", "select-covariates", "campaign",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


@dataclass
class Outputs:
    """Atomic output set: write to hidden temp names, rename on success."""

    outdir: str
    pending: list[tuple[str, str]] = field(default_factory=list)

    def stage(self, name: str) -> str:
        final = os.path.join(self.outdir, name)
        tmp = os.path.join(self.outdir, f".tmp.{name.replace(os.sep, '_')}")
        self.pending.append((tmp, final))
        return tmp

    def names(self) -> list[str]:
        return sorted(os.path.basename(final) for _, final in self.pending)

    def commit(self) -> None:
        for tmp, final in self.pending:
            os.replace(tmp, final)

    def abort(self) -> None:
        for tmp, _ in self.pending:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass


@dataclass
class RunContext:
    cfg: dict
    cfg_hash: str
    seed: int
    outputs: Outputs

    @property
    def header(self) -> str:
        return f"# cdrlab {__version__} config={self.cfg_hash[:12]} seed={self.seed}"

    def meta(self) -> dict:
        return {"tool": "cdrlab", "version": __version__,
                "config_hash": self.cfg_hash, "seed": self.seed}


def _parse_ts(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return parse_timestamp(text)


def _day_label(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y%m%d")


def _side_rows(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A side file's stripped header cells and its (line, fields) data rows."""
    with ingest.open_text(path) as fh:
        rows = list(ingest.numbered_rows(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    return [c.strip() for c in rows[0][1]], rows[1:]


def _read_area_map(path: str) -> dict[str, str]:
    header, rows = _side_rows(path)
    if header[:2] != ["tower", "area"]:
        raise ValueError(f"{path}: expected header tower,area")
    return {r[0]: r[1] for _, r in rows if len(r) >= 2}


def _read_area_values(path: str) -> dict[str, float]:
    header, rows = _side_rows(path)
    if header[:2] != ["area", "value"]:
        raise ValueError(f"{path}: expected header area,value")
    values = {}
    for n, r in rows:
        if len(r) >= 2 and r[1] != "":
            value = ingest.number(path, n, r[1])
            if not math.isfinite(value):
                raise ValueError(f"{path}:{n}: non-finite value")
            values[r[0]] = value
    return values


def _read_id_list(path: str, column: str = "subscriber") -> list[str]:
    header, rows = _side_rows(path)
    if column not in header:
        raise ValueError(f"{path}: expected a {column!r} column")
    j = header.index(column)
    return [r[j] for _, r in rows if len(r) > j and r[j]]


def _read_adopters(path: str) -> dict[str, int | None]:
    header, rows = _side_rows(path)
    if header[0] != "subscriber":
        raise ValueError(f"{path}: expected header subscriber[,day]")
    has_day = header[1:2] == ["day"]
    out: dict[str, int | None] = {}
    for n, r in rows:
        if r[0]:
            out[r[0]] = ingest.number(path, n, r[1], int) if has_day and len(r) > 1 and r[1] != "" else None
    return out


def _read_feature_table(path: str) -> tuple[list[str], list[str], list[list]]:
    """features.csv -> (ids, numeric column names, rows with None absents)."""
    header, rows = _side_rows(path)
    if "subscriber" not in header:
        raise ValueError(f"{path}: expected a subscriber column")
    id_j = header.index("subscriber")
    numeric_cols = [(j, name) for j, name in enumerate(header) if j != id_j and name != "home_tower"]
    ids, data = [], []
    for n, r in rows:
        if len(r) <= id_j or not r[id_j]:
            continue
        ids.append(r[id_j])
        data.append([None if (j >= len(r) or r[j] == "") else ingest.number(path, n, r[j]) for j, _ in numeric_cols])
    return ids, [name for _, name in numeric_cols], data


def _dataset_paths(args, cfg) -> dict[str, str | None]:
    d = cfg["dataset"]
    return {
        "cdr": getattr(args, "cdr", None) or d["cdr"] or None,
        "topups": getattr(args, "topups", None) or d["topups"] or None,
        "towers": getattr(args, "towers", None) or d["towers"] or None,
        "labels": getattr(args, "labels", None) or d["labels"] or None,
    }


def _load_dataset(args, cfg):
    paths = _dataset_paths(args, cfg)
    if not paths["cdr"] or not paths["towers"]:
        raise ValueError("need --cdr and --towers (or [dataset] config entries)")
    ds, reports = ingest.load_dataset(
        paths["cdr"], paths["topups"], paths["towers"], labels_path=paths["labels"]
    )
    return ds, reports, paths


def _build_graph(ds, cfg):
    from . import socialgraph

    g = cfg["graph"]
    return socialgraph.build_graph(
        ds,
        sms_weight=g["sms_weight"],
        min_monthly_interactions=g["min_monthly_interactions"],
    )


def _adopter_set(args, ds, graph, ctx) -> tuple[dict[str, int | None], str]:
    """Adopters from --adopters file, or simulated per the adoption config."""
    from . import synthgen

    if getattr(args, "adopters", None):
        table = _read_adopters(args.adopters)
        unknown = set(table) - graph.nodes
        if unknown:
            raise ValueError(f"adopters not in graph: {sorted(unknown)[:5]}")
        return table, f"file:{args.adopters}"
    a = ctx.cfg["adoption"]
    if a["mechanism"] == "random":
        mech = synthgen.RandomAdoption(a["p"])
    elif a["mechanism"] == "contagion":
        mech = synthgen.ContagionAdoption(a["p0"], a["beta"])
    else:
        raise ValueError(f"unknown adoption mechanism {a['mechanism']!r}")
    gt = synthgen.simulate_adoption(graph, mech, a["days"], seed=ctx.seed)
    first: dict[str, int | None] = {}
    for day in sorted(gt.adopters_by_day):
        for sub in gt.adopters_by_day[day]:
            first.setdefault(sub, day)
    return first, f"simulated:{a['mechanism']}"


def _synth_config(args, cfg):
    from . import synthgen

    s = cfg["synth"]
    if s["graph_model"] != "small_world":
        raise ValueError("synth.graph_model: small_world is the only model")
    return synthgen.SynthConfig(
        seed=args.effective_seed,
        n_subscribers=s["subscribers"],
        n_towers=s["towers"],
        grid=tuple(s["grid"]),
        graph_model=synthgen.SmallWorld(s["sw_k"], s["sw_rewire"]),
        days=s["days"],
        recharge_denominations=tuple(s["denominations"]),
        event_rate=s["event_rate"],
        start=_parse_ts(s["start"]),
        sms_fraction=s["sms_fraction"],
        data_rate=s["data_rate"],
        topup_gap_days=s["topup_gap_days"],
        visit_concentration=s["visit_concentration"],
        label_low_fraction=s["label_low_fraction"],
        label_effect=s["label_effect"],
    )


# ---------------------------------------------------------------- handlers


def _cmd_synth(args, ctx: RunContext) -> dict:
    from . import synthgen

    scfg = _synth_config(args, ctx.cfg)
    graph, gt = synthgen.generate_population(scfg)
    ds = synthgen.generate_events(scfg, graph, gt)
    if args.shock_multiplier is not None:
        entity = ("global",) if args.shock_entity == "global" else ("tower", args.shock_entity)
        lo = scfg.start + args.shock_start_day * SECONDS_PER_DAY
        hi = lo + args.shock_days * SECONDS_PER_DAY
        ds, gt = synthgen.inject_shock(
            ds, gt, entity, (lo, hi), args.shock_multiplier,
            seed=ctx.seed, stream=args.shock_stream,
        )
    ingest.write_cdr_csv(ds.cdrs, ctx.outputs.stage("cdr.csv"), header_comment=ctx.header)
    ingest.write_topup_csv(ds.topups, ctx.outputs.stage("topups.csv"), header_comment=ctx.header)
    ingest.write_towers_csv(ds.towers, ctx.outputs.stage("towers.csv"), header_comment=ctx.header)
    ingest.write_labels_csv(gt.label, ctx.outputs.stage("labels.csv"), header_comment=ctx.header)
    payload = json.loads(gt.to_json())
    payload["_meta"] = ctx.meta()
    with open(ctx.outputs.stage("ground_truth.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"synth: {len(ds.cdrs)} events, {len(ds.topups)} top-ups, "
          f"{len(ds.towers)} towers, {scfg.n_subscribers} subscribers")
    return {"events": len(ds.cdrs), "topups": len(ds.topups),
            "subscribers": scfg.n_subscribers, "days": scfg.days}


def _cmd_ingest_check(args, ctx: RunContext) -> dict:
    ds, reports, paths = _load_dataset(args, ctx.cfg)
    params: dict = {"paths": {k: v for k, v in paths.items() if v}}
    for source in sorted(reports):
        rep = reports[source]
        ingest.write_rejects_csv(rep, ctx.outputs.stage(f"rejects_{source}.csv"),
                                 header_comment=ctx.header)
        print(f"{source}: {rep.total_rows} rows, {len(rep.rejects)} rejected "
              f"({rep.fraction():.4f})")
        params[source] = {"rows": rep.total_rows, "rejects": len(rep.rejects)}
    print(f"dataset: {len(ds.cdrs)} events, {len(ds.topups)} top-ups, "
          f"{len(ds.subscribers())} subscribers, window {ds.window}")
    params["events"] = len(ds.cdrs)
    return params


def _cmd_features(args, ctx: RunContext) -> dict:
    from . import features

    ds, _, _ = _load_dataset(args, ctx.cfg)
    if args.denominations:
        denoms = tuple(float(x) for x in args.denominations.split(","))
    else:
        denoms = features.dataset_denominations(ds)
    # Serial on purpose: the per-subscriber work holds the GIL, so threads
    # only add overhead.  --threads is accepted and changes nothing here.
    vectors = [features.extract_features(ds, s, denominations=denoms) for s in ds.subscribers()]
    features.write_features_csv(vectors, ctx.outputs.stage("features.csv"), header_comment=ctx.header)
    print(f"features: {len(vectors)} subscribers x {len(features.FEATURE_ORDER)} features")
    return {"subscribers": len(vectors), "columns": len(features.FEATURE_ORDER)}


def _cmd_graph(args, ctx: RunContext) -> dict:
    from . import socialgraph

    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    report = socialgraph.connected_components(g)
    socialgraph.write_edges_csv(g, ctx.outputs.stage("edges.csv"), header_comment=ctx.header)
    socialgraph.write_components_csv(report, ctx.outputs.stage("components.csv"),
                                     header_comment=ctx.header)
    params = {"nodes": g.node_count(), "edges": g.edge_count(),
              "components": len(report.components), "isolates": report.isolate_count}
    if args.evc:
        scores = socialgraph.eigenvector_centrality(g)
        ingest.write_csv(ctx.outputs.stage("evc.csv"), ["subscriber", "score"],
                         ([sub, repr(scores[sub])] for sub in sorted(scores)), ctx.header)
    print(f"graph: {params['nodes']} nodes, {params['edges']} edges, "
          f"{params['components']} components")
    return params


def _cmd_adoption(args, ctx: RunContext) -> dict:
    from . import adoption

    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    table, source = _adopter_set(args, ds, g, ctx)
    ingest.write_csv(ctx.outputs.stage("adopters.csv"), ["subscriber", "day"],
                     ([sub, "" if table[sub] is None else table[sub]] for sub in sorted(table)), ctx.header)
    days = sorted({d for d in table.values() if d is not None})
    if days:
        snapshots = [
            adoption.adoption_network(g, {s for s, d in table.items() if d is not None and d <= day})
            for day in days
        ]
    else:
        snapshots = [adoption.adoption_network(g, set(table))]
    rows = adoption.component_evolution(snapshots)
    for row, day in zip(rows, days or [0]):
        row["snapshot"] = day
    adoption.write_component_evolution_csv(rows, ctx.outputs.stage("adoption_components.csv"),
                                           header_comment=ctx.header)
    final = rows[-1] if rows else {}
    print(f"adoption: {len(table)} adopters from {source}; "
          f"final isolate fraction {final.get('frac_isolates', 0.0):.3f}")
    return {"adopters": len(table), "source": source, "snapshots": len(rows)}


def _cmd_kappa(args, ctx: RunContext) -> dict:
    from . import adoption

    if args.replicates is not None:
        replicates, what = args.replicates, "--replicates"
    else:
        replicates, what = ctx.cfg["adoption"]["replicates"], "[adoption] replicates"
    if replicates < 1:
        raise ValueError(f"{what} must be >= 1, got {replicates}")
    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    table, source = _adopter_set(args, ds, g, ctx)
    adopters = set(table)
    modes = ("node", "link", "clustering") if args.mode == "all" else (args.mode,)
    results = {}
    if {"link", "clustering"} & set(modes):
        net = adoption.adoption_network(g, adopters)
    for mode in modes:
        if mode == "node":
            results[mode] = adoption.node_kappa(g, adopters, replicates=replicates, seed=ctx.seed)
        elif mode == "link":
            results[mode] = adoption.link_kappa(g, net.induced_edges, replicates=replicates, seed=ctx.seed)
        else:
            results[mode] = adoption.clustering_kappa(g, net.induced_edges, replicates=replicates,
                                                      seed=ctx.seed)
    adoption.write_kappa_csv(results, ctx.outputs.stage("kappa.csv"), header_comment=ctx.header)
    for mode in sorted(results):
        r = results[mode]
        print(f"kappa[{mode}] = {r.kappa:.4f}  ci95=({r.ci95[0]:.4f}, {r.ci95[1]:.4f})")
    return {"adopters": len(adopters), "source": source, "replicates": replicates,
            "kappa": {m: results[m].kappa for m in results}}


def _cmd_pk(args, ctx: RunContext) -> dict:
    from . import adoption

    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    table, source = _adopter_set(args, ds, g, ctx)
    curve = adoption.adoption_probability_curve(g, set(table), k_max=args.k_max,
                                                min_support=args.min_support)
    adoption.write_pk_csv(curve, ctx.outputs.stage("pk.csv"), header_comment=ctx.header)
    shown = ", ".join(
        f"p_{p.k}={p.p_k:.4f}" for p in curve.points if p.p_k is not None and p.k <= 3
    )
    print(f"pk: {shown}")
    return {"adopters": len(table), "source": source,
            "uplift": {str(k): v for k, v in curve.uplift.items()}}


def _parse_entity(text: str) -> tuple:
    if text == "global":
        return ("global",)
    for prefix in ("tower", "district"):
        if text.startswith(prefix + ":"):
            return (prefix, text.split(":", 1)[1])
    raise ValueError(f"bad entity {text!r}; use global, tower:ID, or district:ID")


def _cmd_anomaly(args, ctx: RunContext) -> dict:
    from . import anomaly

    ds, _, _ = _load_dataset(args, ctx.cfg)
    a = ctx.cfg["anomaly"]
    area_map = _read_area_map(args.areas) if args.areas else None
    if args.per_tower:
        entities = [("tower", t) for t in sorted(ds.towers)]
    else:
        entities = [_parse_entity(args.entity)]
    series = anomaly.bin_series(ds, entities, a["bin_width"], measure=a["measure"], area_map=area_map)
    reports = [anomaly.detect_anomalies(ts, baseline=a["baseline"], threshold_sigma=a["threshold_sigma"])
               for ts in series]
    anomaly.write_anomalies_csv(reports, ctx.outputs.stage("anomalies.csv"),
                                header_comment=ctx.header)
    flagged_total = sum(len(r.flags) for r in reports)
    if args.geojson:
        from . import spatial

        flagged = {
            r.entity[1]: {"flags": len(r.flags)}
            for r in reports if r.entity[0] == "tower" and r.flags
        }
        doc = spatial.points_geojson(
            {t: (ds.towers[t].lon, ds.towers[t].lat) for t in flagged}, flagged
        )
        doc["_meta"] = ctx.meta()
        with open(ctx.outputs.stage("anomalies.geojson"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"anomaly: {flagged_total} flags across {len(reports)} series "
          f"(baseline={a['baseline']}, sigma={a['threshold_sigma']})")
    return {"series": len(reports), "flags": flagged_total,
            "baseline": a["baseline"], "measure": a["measure"]}


def _cmd_flows(args, ctx: RunContext) -> dict:
    from . import anomaly

    ds, _, _ = _load_dataset(args, ctx.cfg)
    f = ctx.cfg["flows"]
    area_map = _read_area_map(args.areas) if args.areas else {t: t for t in ds.towers}
    first = day_start(ds.window[0])
    day_list = list(range(first, ds.window[1], SECONDS_PER_DAY))
    nets = [
        anomaly.build_flow_network(ds, day, area_map, min_count=f["min_count"],
                                   min_distance_km=f["min_distance_km"], mode=f["mode"])
        for day in day_list
    ]
    for net in nets:
        anomaly.write_flows_csv(net, ctx.outputs.stage(f"flows_{_day_label(net.day)}.csv"),
                                header_comment=ctx.header)
    params: dict = {"days": len(nets), "mode": f["mode"],
                    "pairs_last_day": len(nets[-1].od) if nets else 0}
    try:
        params["symmetry_r"] = anomaly.flow_symmetry(nets)
    except ValueError as exc:
        params["symmetry_r"] = None
        params["symmetry_note"] = str(exc)
    baseline_days = None
    if f["baseline_days"] > 0:
        baseline_days = set(day_list[: f["baseline_days"]])
    try:
        reports = anomaly.detect_flow_anomalies(nets, threshold_sigma=ctx.cfg["anomaly"]["threshold_sigma"],
                                                baseline_days=baseline_days)
    except ValueError as exc:
        reports = {}
        params["anomaly_note"] = str(exc)
    anomaly.write_anomalies_csv(
        [reports[p] for p in sorted(reports)], ctx.outputs.stage("flow_anomalies.csv"),
        header_comment=ctx.header,
    )
    flags = sum(len(r.flags) for r in reports.values())
    sym = params["symmetry_r"]
    print(f"flows: {len(nets)} days, symmetry r={sym if sym is None else round(sym, 4)}, "
          f"{flags} flow anomalies")
    params["flow_flags"] = flags
    return params


def _cmd_rank_curves(args, ctx: RunContext) -> dict:
    from . import anomaly

    ds, _, _ = _load_dataset(args, ctx.cfg)
    rc = ctx.cfg["rank_curves"]
    comparison = [
        _parse_ts(d) for d in (args.comparison_days.split(",") if args.comparison_days
                               else rc["comparison_days"])
    ]
    if not comparison:
        raise ValueError("need comparison days (--comparison-days or config)")
    curves = anomaly.rank_activation_curves(
        ds, _parse_ts(args.event_time),
        ranks=tuple(range(1, rc["max_rank"] + 1)),
        bin_width=rc["bin_width"],
        comparison_days=comparison,
    )
    anomaly.write_rank_curves_csv(curves, ctx.outputs.stage("rank_curves.csv"),
                                  header_comment=ctx.header)
    print(f"rank-curves: event day {_day_label(curves.event_day)}, "
          f"{len(comparison)} comparison days, ranks 1..{rc['max_rank']}")
    return {"event_day": curves.event_day, "comparison_days": comparison,
            "bin_width": rc["bin_width"]}


def _cmd_distance_matrix(args, ctx: RunContext) -> dict:
    import numpy as np

    from . import anomaly

    ds, _, _ = _load_dataset(args, ctx.cfg)
    lon, lat = (float(x) for x in args.epicenter.split(","))
    edges = [float(x) for x in args.bins.split(",")]
    comparison = [_parse_ts(d) for d in args.comparison_days.split(",")]
    ratio, counts = anomaly.distance_activation_matrix(
        ds, (lon, lat), _parse_ts(args.event_day),
        (args.hour_start * 3600, args.hour_end * 3600), edges, comparison,
    )
    anomaly.write_distance_matrix_csv(ratio, ctx.outputs.stage("distance_matrix.csv"),
                                      header_comment=ctx.header)
    defined = int(np.isfinite(ratio).sum())
    print(f"distance-matrix: {ratio.shape[0]}x{ratio.shape[1]} bins, "
          f"{defined} defined cells, {int(counts.sum())} event-day ties")
    return {"bins": len(edges) + 1, "defined_cells": defined,
            "event_ties": int(counts.sum())}


def _cmd_voronoi(args, ctx: RunContext) -> dict:
    from . import spatial

    paths = _dataset_paths(args, ctx.cfg)
    if not paths["towers"]:
        raise ValueError("need --towers (or [dataset] config entry)")
    towers, _ = ingest.parse_tower_file(paths["towers"])
    if args.clip:
        x0, y0, x1, y1 = (float(v) for v in args.clip.split(","))
    else:
        lons = [t.lon for t in towers.values()]
        lats = [t.lat for t in towers.values()]
        pad = 0.1
        x0, y0, x1, y1 = min(lons) - pad, min(lats) - pad, max(lons) + pad, max(lats) + pad
    clip = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    part = spatial.voronoi_partition({t: (tw.lon, tw.lat) for t, tw in towers.items()}, clip)
    doc = spatial.voronoi_geojson(part)
    doc["_meta"] = ctx.meta()
    with open(ctx.outputs.stage("voronoi.geojson"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"voronoi: {len(part.cells)} cells, clip=({x0}, {y0}, {x1}, {y1})")
    return {"towers": len(towers), "clip": [x0, y0, x1, y1]}


def _cmd_idw(args, ctx: RunContext) -> dict:
    from . import spatial

    paths = _dataset_paths(args, ctx.cfg)
    if not paths["towers"]:
        raise ValueError("need --towers (or [dataset] config entry)")
    towers, _ = ingest.parse_tower_file(paths["towers"])
    values = _read_area_values(args.samples)
    unknown = set(values) - set(towers)
    if unknown:
        raise ValueError(f"sample areas are not tower ids: {sorted(unknown)[:5]}")
    samples = {(towers[t].lon, towers[t].lat): v for t, v in values.items()}
    s = ctx.cfg["spatial"]
    raster = spatial.idw_interpolate(
        samples, s["grid_nrows"], s["grid_ncols"], s["grid_xll"], s["grid_yll"],
        s["grid_cellsize"], power=s["idw_power"],
        max_radius=s["idw_max_radius"] or None, nodata=s["nodata"],
    )
    spatial.write_grid(raster, ctx.outputs.stage("grid.txt"), header_comment=ctx.header)
    filled = int(raster.data_mask().sum())
    print(f"idw: {raster.nrows}x{raster.ncols} grid, {filled} filled cells "
          f"from {len(samples)} samples")
    return {"samples": len(samples), "filled_cells": filled, "power": s["idw_power"]}


def _load_correlate_input(path: str):
    from . import spatial

    if path.endswith((".txt", ".grid")):
        return spatial.read_grid(path)
    return _read_area_values(path)


def _cmd_correlate(args, ctx: RunContext) -> dict:
    from . import spatial

    a = _load_correlate_input(args.a)
    b = _load_correlate_input(args.b)
    if isinstance(a, spatial.GridRaster) != isinstance(b, spatial.GridRaster):
        raise ValueError("cannot correlate a raster with an area table")
    if isinstance(a, spatial.GridRaster):
        r, n = spatial.raster_correlation(a, b)
    else:
        r, n = spatial.pearson_correlation(a, b)
    ingest.write_csv(ctx.outputs.stage("correlate.csv"), ["r", "n"], [[repr(r), n]], ctx.header)
    print(f"correlate: r={r:.4f} over n={n}")
    return {"r": r, "n": n}


def _model_table(args, ctx: RunContext):
    from . import mlkit

    ids, columns, rows = _read_feature_table(args.features)
    if not args.labels:
        raise ValueError("need --labels")
    labels, _ = ingest.parse_labels_file(args.labels)
    pos = args.positive_label
    keep = [i for i, sid in enumerate(ids) if sid in labels]
    if not keep:
        raise ValueError("no feature rows have labels")
    return mlkit.LabeledTable.from_records(
        [ids[i] for i in keep], columns,
        [rows[i] for i in keep],
        [1.0 if labels[ids[i]] == pos else 0.0 for i in keep],
        na_policy=ctx.cfg["model"]["na_policy"],
    )


def _hyperparameters(cfg, family: str) -> dict:
    m = cfg["model"]
    cw = m["class_weight"] or None
    if family == "logistic":
        return {"class_weight": cw}
    if family == "bagged_stumps":
        return {"rounds": m["rounds"], "class_weight": cw}
    if family == "mlp":
        return {"hidden": m["hidden"], "learning_rate": m["learning_rate"],
                "batch_size": m["batch_size"], "max_epochs": m["max_epochs"],
                "patience": m["patience"], "class_weight": cw}
    raise ValueError(f"unknown family {family!r}")


def _cmd_train(args, ctx: RunContext) -> dict:
    from . import mlkit

    table = _model_table(args, ctx)
    family = args.family or ctx.cfg["model"]["family"]
    train_tab, test_tab = mlkit.split_train_test(table, fraction=args.split_fraction,
                                                 seed=ctx.seed)
    if ctx.cfg["model"]["upsample"]:
        train_tab = mlkit.upsample_minority(train_tab, seed=ctx.seed)
    model = mlkit.train(train_tab, family, _hyperparameters(ctx.cfg, family), seed=ctx.seed)
    mlkit.save_model(model, ctx.outputs.stage("model.json"))
    ingest.write_csv(ctx.outputs.stage("test_ids.csv"), ["subscriber"],
                     ([sid] for sid in test_tab.ids), ctx.header)
    print(f"train: {family} on {len(train_tab)} rows "
          f"({len(table)} labeled, {len(test_tab)} held out)")
    return {"family": family, "train_rows": len(train_tab), "test_rows": len(test_tab),
            "columns": len(table.columns)}


def _cmd_eval(args, ctx: RunContext) -> dict:
    from . import mlkit

    model = mlkit.load_model(args.model)
    table = _model_table(args, ctx)
    if list(table.columns) != list(model.columns):
        raise ValueError("feature columns do not match the model schema")
    if args.test_ids:
        wanted = set(_read_id_list(args.test_ids))
        idx = [i for i, sid in enumerate(table.ids) if sid in wanted]
        if not idx:
            raise ValueError("no test ids present in the feature table")
        table = table.take(idx)
    report = mlkit.evaluate(model, table, threshold=ctx.cfg["model"]["threshold"])
    mlkit.metrics.write_eval_csv(report, ctx.outputs.stage("eval.csv"), header_comment=ctx.header)
    mlkit.metrics.write_lift_csv(report, ctx.outputs.stage("lift.csv"), header_comment=ctx.header)
    print(f"eval: accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
          f"sensitivity={report.sensitivity:.4f} specificity={report.specificity:.4f}")
    return {"rows": len(table), "accuracy": report.accuracy, "auc": report.auc,
            "sensitivity": report.sensitivity, "specificity": report.specificity}


def _cmd_select_covariates(args, ctx: RunContext) -> dict:
    import numpy as np

    from . import mlkit

    path = args.table
    header, rows = _side_rows(path)
    if args.response not in header:
        raise ValueError(f"response column {args.response!r} not in table")
    skip = {args.response, "id", "subscriber", "area", "home_tower"}
    columns = [c for c in header if c not in skip]
    resp_j = header.index(args.response)
    col_j = [header.index(c) for c in columns]
    X, y = [], []
    incomplete = 0
    for n, r in rows:
        if all(not c for c in r):
            continue
        if len(r) <= max(col_j + [resp_j]):
            raise ValueError(f"{path}:{n}: wrong field count")
        cells = [r[j] for j in col_j] + [r[resp_j]]
        if any(c.strip() == "" for c in cells):
            incomplete += 1     # absent feature: drop the row, like na_policy=drop
            continue
        X.append([ingest.number(path, n, r[j]) for j in col_j])
        y.append(ingest.number(path, n, r[resp_j]))
    if not X:
        raise ValueError(f"{args.table}: no complete rows for the requested columns")
    sel = ctx.cfg["select"]
    result = mlkit.select_covariates(
        np.array(X), np.array(y), columns,
        r_cut=sel["r_cut"],
        priority=list(sel["priority"]) or None,
        exhaustive=sel["exhaustive"] or args.exhaustive,
    )
    records = [["pruned", dropped, repr(r), f"correlated_with={partner}"]
               for dropped, partner, r in result.dropped_by_pruning]
    records += [["selected", feat, repr(float(result.model.coef[i])), f"order={i}"]
                for i, feat in enumerate(result.selected)]
    records += [["model", name, repr(getattr(result.model, name)), ""] for name in ("intercept", "aic", "r2")]
    ingest.write_csv(ctx.outputs.stage("selection.csv"), ["record", "feature", "value", "detail"],
                     records, ctx.header)
    print(f"select-covariates: kept {len(result.kept_after_pruning)}/{len(columns)} "
          f"after pruning; selected {result.selected}")
    return {"candidates": len(columns), "rows": len(y), "incomplete_rows": incomplete,
            "pruned": len(result.dropped_by_pruning),
            "selected": result.selected, "aic": result.model.aic}


def _cmd_campaign(args, ctx: RunContext) -> dict:
    from . import mlkit

    model = mlkit.load_model(args.model)
    ids, columns, rows = _read_feature_table(args.features)
    if list(columns) != list(model.columns):
        raise ValueError("feature columns do not match the model schema")
    table = mlkit.LabeledTable.from_records(
        ids, columns, rows, [0.0] * len(ids), na_policy=ctx.cfg["model"]["na_policy"]
    )
    control = _read_id_list(args.control)
    outcomes: dict[str, dict] = {}
    header, orows = _side_rows(args.outcomes)
    if header[:3] != ["subscriber", "converted", "renewed"]:
        raise ValueError(f"{args.outcomes}: expected header subscriber,converted,renewed")
    for _, r in orows:
        if len(r) >= 3 and r[0]:
            outcomes[r[0]] = {"converted": r[1] == "1", "renewed": r[2] == "1"}
    size = args.treatment_size or ctx.cfg["campaign"]["treatment_size"]
    outcome = mlkit.run_campaign(table, model, size, control, outcomes)
    mlkit.campaign.write_campaign_csv(outcome, ctx.outputs.stage("campaign.csv"),
                                      header_comment=ctx.header)
    print(f"campaign: treatment {outcome.treatment_rate:.4f} vs control "
          f"{outcome.control_rate:.4f} (z={outcome.z:.2f}, p={outcome.p_value:.4g})")
    return {"treatment_size": len(outcome.treatment_ids),
            "control_size": len(outcome.control_ids),
            "treatment_rate": outcome.treatment_rate,
            "control_rate": outcome.control_rate,
            "z": outcome.z, "p_value": outcome.p_value}


_HANDLERS = {
    "synth": _cmd_synth,
    "ingest-check": _cmd_ingest_check,
    "features": _cmd_features,
    "graph": _cmd_graph,
    "adoption": _cmd_adoption,
    "kappa": _cmd_kappa,
    "pk": _cmd_pk,
    "anomaly": _cmd_anomaly,
    "flows": _cmd_flows,
    "rank-curves": _cmd_rank_curves,
    "distance-matrix": _cmd_distance_matrix,
    "voronoi": _cmd_voronoi,
    "idw": _cmd_idw,
    "correlate": _cmd_correlate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "select-covariates": _cmd_select_covariates,
    "campaign": _cmd_campaign,
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
    common.add_argument("--outdir", help="output directory (default from config)")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--threads", type=int, help="override run.threads")

    dataset = _Parser(add_help=False)
    dataset.add_argument("--cdr")
    dataset.add_argument("--topups")
    dataset.add_argument("--towers")
    dataset.add_argument("--labels")

    adopt_src = _Parser(add_help=False)
    adopt_src.add_argument("--adopters", help="adopters csv (subscriber[,day]); "
                                              "otherwise simulated per [adoption] config")

    model_io = _Parser(add_help=False)
    model_io.add_argument("--features", required=True)
    model_io.add_argument("--labels", required=True)
    model_io.add_argument("--positive-label", default="low")

    parser = _Parser(prog="cdrlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cdrlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--shock-entity", default="global")
    p.add_argument("--shock-start-day", type=int, default=0)
    p.add_argument("--shock-days", type=int, default=1)
    p.add_argument("--shock-multiplier", type=float)
    p.add_argument("--shock-stream", default="calls", choices=["calls", "recharges", "both"])

    sub.add_parser("ingest-check", parents=[common, dataset],
                   help="parse inputs and report rejects")

    p = sub.add_parser("features", parents=[common, dataset],
                       help="per-subscriber behavioral features")
    p.add_argument("--denominations", help="comma-separated recharge denominations")

    p = sub.add_parser("graph", parents=[common, dataset], help="build the social graph")
    p.add_argument("--evc", action="store_true", help="also write eigenvector centrality")

    sub.add_parser("adoption", parents=[common, dataset, adopt_src],
                   help="adoption network components over time")

    p = sub.add_parser("kappa", parents=[common, dataset, adopt_src],
                       help="co-adoption randomization tests")
    p.add_argument("--mode", default="all", choices=["node", "link", "clustering", "all"])
    p.add_argument("--replicates", type=int)

    p = sub.add_parser("pk", parents=[common, dataset, adopt_src],
                       help="adoption probability vs adopting neighbors")
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--min-support", type=int, default=30)

    p = sub.add_parser("anomaly", parents=[common, dataset],
                       help="sigma-model time-series anomalies")
    p.add_argument("--entity", default="global", help="global | tower:ID | district:ID")
    p.add_argument("--per-tower", action="store_true")
    p.add_argument("--areas", help="tower,area csv for district entities")
    p.add_argument("--geojson", action="store_true", help="write flagged towers as GeoJSON")

    p = sub.add_parser("flows", parents=[common, dataset],
                       help="daily origin-destination flow networks")
    p.add_argument("--areas", help="tower,area csv (default: each tower is its own area)")

    p = sub.add_parser("rank-curves", parents=[common, dataset],
                       help="top-contact activation around an event")
    p.add_argument("--event-time", required=True)
    p.add_argument("--comparison-days", help="comma-separated days (overrides config)")

    p = sub.add_parser("distance-matrix", parents=[common, dataset],
                       help="activated ties by distance from an epicenter")
    p.add_argument("--epicenter", required=True, help="lon,lat")
    p.add_argument("--event-day", required=True)
    p.add_argument("--hour-start", type=int, default=0)
    p.add_argument("--hour-end", type=int, default=24)
    p.add_argument("--bins", default="1,3,10,30,100", help="distance bin edges in km")
    p.add_argument("--comparison-days", required=True)

    p = sub.add_parser("voronoi", parents=[common, dataset], help="tower Voronoi cells")
    p.add_argument("--clip", help="lon_min,lat_min,lon_max,lat_max")

    p = sub.add_parser("idw", parents=[common, dataset],
                       help="inverse-distance-weighted raster")
    p.add_argument("--samples", required=True, help="area,value csv keyed by tower id")

    p = sub.add_parser("correlate", parents=[common],
                       help="Pearson correlation of two area tables or rasters")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("train", parents=[common, model_io], help="fit a classifier")
    p.add_argument("--family", choices=["logistic", "bagged_stumps", "mlp"])
    p.add_argument("--split-fraction", type=float, default=0.75)

    p = sub.add_parser("eval", parents=[common, model_io], help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--test-ids", help="restrict to these subscribers")

    p = sub.add_parser("select-covariates", parents=[common],
                       help="correlation pruning plus stepwise regression")
    p.add_argument("--table", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("campaign", parents=[common, dataset],
                       help="treatment/control campaign report")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--control", required=True, help="csv with a subscriber column")
    p.add_argument("--outcomes", required=True, help="subscriber,converted,renewed csv")
    p.add_argument("--treatment-size", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"cdrlab: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1

    outputs = None
    try:
        cfg = load_config(args.config or os.environ.get(CONFIG_ENV_VAR) or None)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.threads is not None:
            cfg["run"]["threads"] = args.threads
        if args.outdir is not None:
            cfg["run"]["outdir"] = args.outdir
        if cfg["run"]["threads"] < 1:
            raise ConfigError("run.threads must be >= 1")
        outdir = cfg["run"]["outdir"]
        os.makedirs(outdir, exist_ok=True)
        args.effective_seed = cfg["run"]["seed"]
        outputs = Outputs(outdir)
        ctx = RunContext(
            cfg=cfg,
            cfg_hash=config_hash(cfg),
            seed=cfg["run"]["seed"],
            outputs=outputs,
        )
        params = _HANDLERS[args.command](args, ctx)
        # thread count is an execution detail: it must not appear anywhere
        # in the outputs, so N=1 and N=k runs stay byte-identical
        manifest = {
            "subcommand": args.command,
            "tool_version": __version__,
            "config_hash": ctx.cfg_hash,
            "seed": ctx.seed,
            "params": params,
            "outputs": outputs.names(),
        }
        mpath = outputs.stage(f"manifest_{args.command.replace('-', '_')}.json")
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.commit()
        return 0
    except UsageError as exc:
        print(f"cdrlab: {exc}", file=sys.stderr)
        if outputs:
            outputs.abort()
        return 1
    except (ConfigError, ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"cdrlab: error: {exc}", file=sys.stderr)
        if outputs:
            outputs.abort()
        return 2


if __name__ == "__main__":
    sys.exit(main())
