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
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__, ingest
from .config import CONFIG_ENV_VAR, ConfigError, config_hash, load_config
from .records import SECONDS_PER_DAY, day_start, distinct, parse_timestamp

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


def _parse_ts(flag: str, text: str) -> int:
    """Epoch seconds or ISO-8601 text as epoch seconds; else an error naming the flag or config key."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _numbers(flag: str, text: str, count: int = 0) -> list[float]:
    """A flag's comma-separated finite numbers, count of them when count > 0; else an error naming the flag."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)) or count not in (0, len(values)):
        raise ValueError(f"{flag}: expected {count or 'one or more'} comma-separated finite numbers, got {text!r}")
    return values


def _day_label(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y%m%d")


def _check_days(window: tuple[int, int], *flagged: tuple[str, list[int]]) -> None:
    """An error naming the flag or config key of the first time whose UTC day misses the dataset window."""
    for flag, day in ((f, day_start(t)) for f, times in flagged for t in times):
        if not window[0] - SECONDS_PER_DAY < day < window[1]:
            raise ValueError(f"{flag}: day {_day_label(day)} lies outside the dataset window "
                             f"{_day_label(window[0])}..{_day_label(window[1] - 1)}")


def _side_rows(path: str, required=(), key: str | None = None) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A side file's stripped header cells and its checked (line, fields) data rows.

    required and key name header columns; required=None requires every one.  A row of blank
    cells is skipped; a row too short to reach a required column, and a blank or repeated key
    cell, is an error naming path:line.
    """
    with ingest.open_text(path) as fh:
        lines = list(ingest.numbered_rows(fh))
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0][1]]
    if required is None:
        required = header
    names = (*required, key) if key else tuple(required)
    missing = [c for c in names if c not in header]
    if missing:
        raise ValueError(f"{path}: expected column(s) {', '.join(missing)}")
    last = max(map(header.index, names), default=-1)
    key_j = header.index(key) if key else None
    rows, seen = [], set()
    for n, r in lines[1:]:
        if not any(c.strip() for c in r):
            continue
        if len(r) <= last:
            raise ValueError(f"{path}:{n}: wrong field count")
        if key:
            if not r[key_j].strip():
                raise ValueError(f"{path}:{n}: missing {key}")
            if r[key_j] in seen:
                raise ValueError(f"{path}:{n}: repeated {key} {r[key_j]!r}")
            seen.add(r[key_j])
        rows.append((n, r))
    return header, rows


def _read_area_map(path: str) -> dict[str, str]:
    header, rows = _side_rows(path, ("area",), key="tower")
    t, a = header.index("tower"), header.index("area")
    return {r[t]: r[a] for _, r in rows}


def _read_area_values(path: str) -> dict[str, float]:
    """area -> value; a blank value is absent and skipped."""
    header, rows = _side_rows(path, ("value",), key="area")
    a, v = header.index("area"), header.index("value")
    return {r[a]: ingest.number(path, n, r[v]) for n, r in rows if r[v] != ""}


def _read_id_list(path: str) -> list[str]:
    header, rows = _side_rows(path, key="subscriber")
    j = header.index("subscriber")
    return [r[j] for _, r in rows]


def _read_adopters(path: str) -> dict[str, int | None]:
    """subscriber -> adoption day, None where the optional day column or cell is absent."""
    header, rows = _side_rows(path, key="subscriber")
    s, d = header.index("subscriber"), header.index("day") if "day" in header else None
    out: dict[str, int | None] = {}
    for n, r in rows:
        day = r[d] if d is not None and d < len(r) else ""
        out[r[s]] = ingest.number(path, n, day, int) if day != "" else None
    return out


def _read_feature_table(path: str) -> tuple[list[str], list[str], list[list]]:
    """features.csv -> (ids, numeric column names, rows with None for blank cells)."""
    header, rows = _side_rows(path, None, key="subscriber")
    id_j = header.index("subscriber")
    numeric_cols = [(j, name) for j, name in enumerate(header) if j != id_j and name != "home_tower"]
    ids = [r[id_j] for _, r in rows]
    data = [[None if r[j] == "" else ingest.number(path, n, r[j]) for j, _ in numeric_cols] for n, r in rows]
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


def _adopters(args, graph, ctx) -> tuple["np.ndarray", "np.ndarray", list[int], str]:
    """Adopters from --adopters file, or simulated per the adoption config.

    Returns the adopters' node mask; each node's adoption day as a position
    in `days`, -1 for a node without one; `days`, the distinct adoption days
    ascending; and the source.  A file's day is any integer, so the arrays
    hold positions, not days.
    """
    import numpy as np

    from . import synthgen

    n = graph.node_count()
    if getattr(args, "adopters", None):
        table = _read_adopters(args.adopters)
        pos = graph.index(table)
        if (pos < 0).any():
            unknown = {sub for sub, p in zip(table, pos.tolist()) if p < 0}
            raise ValueError(f"adopters not in graph: {sorted(unknown)[:5]}")
        days = sorted({d for d in table.values() if d is not None})
        at = {d: i for i, d in enumerate(days)}
        adopted, day_pos = np.zeros(n, dtype=bool), np.full(n, -1)
        adopted[pos] = True
        day_pos[pos] = [at.get(d, -1) for d in table.values()]
        return adopted, day_pos, days, f"file:{args.adopters}"
    a = ctx.cfg["adoption"]
    if a["mechanism"] == "random":
        mech = synthgen.ContagionAdoption(a["p"], 0.0)
    elif a["mechanism"] == "contagion":
        mech = synthgen.ContagionAdoption(a["p0"], a["beta"])
    else:
        raise ValueError(f"unknown adoption mechanism {a['mechanism']!r}")
    first = synthgen.simulate_adoption(graph, mech, a["days"], seed=ctx.seed)
    adopted = first >= 0
    days = distinct(first[adopted])
    day_pos = np.where(adopted, np.searchsorted(days, first), -1)
    return adopted, day_pos, days.tolist(), f"simulated:{a['mechanism']}"


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
        start=_parse_ts("[synth] start", s["start"]),
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
    if args.shock_multiplier is not None:
        if not (math.isfinite(args.shock_multiplier) and args.shock_multiplier >= 0):
            raise ValueError(f"--shock-multiplier must be a finite number >= 0, got {args.shock_multiplier}")
        if args.shock_days < 1:
            raise ValueError(f"--shock-days must be >= 1, got {args.shock_days}")
        if args.shock_start_day < 0 or args.shock_start_day + args.shock_days > scfg.days:
            raise ValueError(f"--shock-start-day {args.shock_start_day} with --shock-days {args.shock_days} "
                             f"leaves the synthesized days [0, {scfg.days})")
        if args.shock_entity != "global" and args.shock_entity not in synthgen.towers_for(scfg):
            raise ValueError(f"--shock-entity: unknown tower {args.shock_entity!r}")
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
    ingest.write_json(ctx.outputs.stage("ground_truth.json"), {**gt.to_dict(), "_meta": ctx.meta()}, indent=0)
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
    denoms = tuple(_numbers("--denominations", args.denominations)) if args.denominations else None
    columns = features.extract_features(ds, denominations=denoms)
    features.write_features_csv(ds, columns, ctx.outputs.stage("features.csv"), header_comment=ctx.header)
    n = len(ds.subscribers())
    print(f"features: {n} subscribers x {len(features.FEATURE_ORDER)} features")
    return {"subscribers": n, "columns": len(features.FEATURE_ORDER)}


def _cmd_graph(args, ctx: RunContext) -> dict:
    from . import socialgraph

    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    report = socialgraph.connected_components(g)
    socialgraph.write_edges_csv(g, ctx.outputs.stage("edges.csv"), header_comment=ctx.header)
    socialgraph.write_components_csv(report, ctx.outputs.stage("components.csv"),
                                     header_comment=ctx.header)
    params = {"nodes": g.node_count(), "edges": g.edge_count(),
              "components": len(report.sizes), "isolates": report.isolate_count}
    if args.evc:
        scores = socialgraph.eigenvector_centrality(g)
        ingest.write_csv(ctx.outputs.stage("evc.csv"), ["subscriber", "score"],
                         ([sub, repr(scores[sub])] for sub in sorted(scores)), ctx.header)
    print(f"graph: {params['nodes']} nodes, {params['edges']} edges, "
          f"{params['components']} components")
    return params


def _cmd_adoption(args, ctx: RunContext) -> dict:
    import numpy as np

    from . import adoption

    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    adopted, day_pos, days, source = _adopters(args, g, ctx)
    ingest.write_csv(ctx.outputs.stage("adopters.csv"), ["subscriber", "day"],
                     ([g.ids[i], "" if d < 0 else days[d]]
                      for i, d in zip(np.flatnonzero(adopted).tolist(), day_pos[adopted].tolist())), ctx.header)
    snapshots = [g.induced((day_pos >= 0) & (day_pos <= i)) for i in range(len(days))] or [g.induced(adopted)]
    rows = adoption.component_evolution(snapshots)
    for row, day in zip(rows, days or [0]):
        row["snapshot"] = day
    adoption.write_component_evolution_csv(rows, ctx.outputs.stage("adoption_components.csv"),
                                           header_comment=ctx.header)
    final = rows[-1] if rows else {}
    count = int(adopted.sum())
    print(f"adoption: {count} adopters from {source}; "
          f"final isolate fraction {final.get('frac_isolates', 0.0):.3f}")
    return {"adopters": count, "source": source, "snapshots": len(rows)}


def _cmd_kappa(args, ctx: RunContext) -> dict:
    import numpy as np

    from . import adoption

    if args.replicates is not None:
        replicates, what = args.replicates, "--replicates"
    else:
        replicates, what = ctx.cfg["adoption"]["replicates"], "[adoption] replicates"
    if replicates < 1:
        raise ValueError(f"{what} must be >= 1, got {replicates}")
    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    adopted, _, _, source = _adopters(args, g, ctx)
    active = np.flatnonzero(adopted[g.u] & adopted[g.v])
    modes = ("node", "link", "clustering") if args.mode == "all" else (args.mode,)
    results, undefined = {}, {}
    # Under --mode all, a mode whose null or reference is undefined is an
    # absent row; a single mode that is undefined is an error.
    for mode in modes:
        try:
            if mode == "node":
                results[mode] = adoption.node_kappa(g, adopted, replicates=replicates, seed=ctx.seed)
            elif mode == "link":
                results[mode] = adoption.link_kappa(g, active, replicates=replicates, seed=ctx.seed)
            else:
                results[mode] = adoption.clustering_kappa(g, active, replicates=replicates, seed=ctx.seed)
        except ValueError as exc:
            if len(modes) == 1:
                raise
            results[mode], undefined[mode] = None, str(exc)
    if len(undefined) == len(modes):
        raise ValueError("no kappa mode is defined: " + "; ".join(f"{m}: {why}" for m, why in undefined.items()))
    adoption.write_kappa_csv(results, ctx.outputs.stage("kappa.csv"), header_comment=ctx.header)
    for mode in sorted(results):
        r = results[mode]
        if r is None:
            print(f"kappa[{mode}] undefined: {undefined[mode]}")
        else:
            print(f"kappa[{mode}] = {r.kappa:.4f}  ci95=({r.ci95[0]:.4f}, {r.ci95[1]:.4f})")
    params = {"adopters": int(adopted.sum()), "source": source, "replicates": replicates,
              "kappa": {m: r.kappa for m, r in results.items() if r is not None}}
    if undefined:
        params["undefined"] = undefined
    return params


def _cmd_pk(args, ctx: RunContext) -> dict:
    from . import adoption

    if args.k_max < 0:
        raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
    ds, _, _ = _load_dataset(args, ctx.cfg)
    g = _build_graph(ds, ctx.cfg)
    adopted, _, _, source = _adopters(args, g, ctx)
    # No node has more adopting friends than friends: the curve stops at the
    # largest degree, and write_pk_csv streams the empty rows up to --k-max.
    top = min(args.k_max, int(g.degrees().max(initial=0)))
    curve = adoption.adoption_probability_curve(g, adopted, k_max=top, min_support=args.min_support)
    adoption.write_pk_csv(curve, ctx.outputs.stage("pk.csv"), header_comment=ctx.header,
                          k_max=args.k_max, min_support=args.min_support)
    shown = ", ".join(
        f"p_{p.k}={p.p_k:.4f}" for p in curve.points if p.p_k is not None and p.k <= 3
    )
    print(f"pk: {shown}")
    return {"adopters": int(adopted.sum()), "source": source,
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
    try:
        reports = [anomaly.detect_anomalies(ts, baseline=a["baseline"], threshold_sigma=a["threshold_sigma"])
                   for ts in series]
    except ValueError as exc:
        raise ValueError(f"[anomaly] baseline = {a['baseline']}: {exc}") from None
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
        ingest.write_json(ctx.outputs.stage("anomalies.geojson"), doc, indent=2)
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

    rc = ctx.cfg["rank_curves"]
    if rc["max_rank"] < 1:
        raise ValueError(f"[rank_curves] max_rank must be >= 1, got {rc['max_rank']}")
    event_time = _parse_ts("--event-time", args.event_time)
    given = args.comparison_days is not None  # an empty flag is a bad value, not an absent one
    key = "--comparison-days" if given else "[rank_curves] comparison_days"
    comparison = [_parse_ts(key, d) for d in (args.comparison_days.split(",") if given else rc["comparison_days"])]
    if not comparison:
        raise ValueError("need comparison days (--comparison-days or config)")
    ds, _, _ = _load_dataset(args, ctx.cfg)
    _check_days(ds.window, ("--event-time", [event_time]), (key, comparison))
    curves = anomaly.rank_activation_curves(
        ds, event_time,
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

    if not 0 <= args.hour_start < args.hour_end <= 24:
        raise ValueError(f"--hour-start {args.hour_start}, --hour-end {args.hour_end}: "
                         "expected 0 <= --hour-start < --hour-end <= 24")
    lon, lat = _numbers("--epicenter", args.epicenter, 2)
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise ValueError(f"--epicenter: expected lon in [-180, 180] and lat in [-90, 90], got {args.epicenter!r}")
    edges = _numbers("--bins", args.bins)
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"--bins: expected strictly ascending edges, got {args.bins!r}")
    if edges[0] <= 0:
        raise ValueError(f"--bins: expected a first edge above 0, got {args.bins!r}")
    event_day = _parse_ts("--event-day", args.event_day)
    comparison = [_parse_ts("--comparison-days", d) for d in args.comparison_days.split(",")]
    ds, _, _ = _load_dataset(args, ctx.cfg)
    _check_days(ds.window, ("--event-day", [event_day]), ("--comparison-days", comparison))
    ratio, counts = anomaly.distance_activation_matrix(
        ds, (lon, lat), event_day, (args.hour_start * 3600, args.hour_end * 3600), edges, comparison,
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
        x0, y0, x1, y1 = _numbers("--clip", args.clip, 4)
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"--clip: expected lon_min < lon_max and lat_min < lat_max, got {args.clip!r}")
    else:
        lons, lats = [t.lon for t in towers.values()], [t.lat for t in towers.values()]
        x0, y0, x1, y1 = min(lons) - 0.1, min(lats) - 0.1, max(lons) + 0.1, max(lats) + 0.1
    clip = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    cells = spatial.voronoi_partition({t: (tw.lon, tw.lat) for t, tw in towers.items()}, clip)
    doc = spatial.voronoi_geojson(cells)
    doc["_meta"] = ctx.meta()
    ingest.write_json(ctx.outputs.stage("voronoi.geojson"), doc, indent=2)
    print(f"voronoi: {len(cells)} cells, clip=({x0}, {y0}, {x1}, {y1})")
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


def _labeled_table(path, ids, columns, rows, labels, na_policy):
    """mlkit.data.LabeledTable.from_records, with its errors naming the features file."""
    from .mlkit import data

    try:
        return data.LabeledTable.from_records(ids, columns, rows, labels, na_policy=na_policy)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc} (na_policy={na_policy})") from None


def _model_table(args, ctx: RunContext):
    ids, columns, rows = _read_feature_table(args.features)
    if not args.labels:
        raise ValueError("need --labels")
    labels, _ = ingest.parse_labels_file(args.labels)
    pos = args.positive_label
    keep = [i for i, sid in enumerate(ids) if sid in labels]
    if not keep:
        raise ValueError("no feature rows have labels")
    na_policy = ctx.cfg["model"]["na_policy"]
    table = _labeled_table(args.features, [ids[i] for i in keep], columns, [rows[i] for i in keep],
                           [1.0 if labels[ids[i]] == pos else 0.0 for i in keep], na_policy)
    if not len(table):
        raise ValueError(f"{args.features}: every one of the {len(keep)} labeled rows has a blank feature "
                         f"cell, and na_policy={na_policy} drops them all")
    return table


def _cmd_train(args, ctx: RunContext) -> dict:
    from .mlkit import data, models

    table = _model_table(args, ctx)
    if len(set(table.y.tolist())) < 2:
        side = "positive" if table.y[0] == 1.0 else "negative"
        raise ValueError(f"{args.labels}: all {len(table)} labeled feature rows are {side} "
                         f"(--positive-label {args.positive_label!r}); train needs both classes")
    family = args.family or ctx.cfg["model"]["family"]
    if family not in models.FAMILIES:
        raise ValueError(f"[model] family: unknown family {family!r}")
    m = dict(ctx.cfg["model"], class_weight=ctx.cfg["model"]["class_weight"] or None)
    train_tab, test_tab = data.split_train_test(table, fraction=args.split_fraction, seed=ctx.seed)
    if m["upsample"]:
        train_tab = data.upsample_minority(train_tab, seed=ctx.seed)
    model = models.train(train_tab, family, {k: m[k] for k in models.FAMILIES[family][2]}, seed=ctx.seed)
    models.save_model(model, ctx.outputs.stage("model.json"))
    ingest.write_csv(ctx.outputs.stage("test_ids.csv"), ["subscriber"],
                     ([sid] for sid in test_tab.ids), ctx.header)
    print(f"train: {family} on {len(train_tab)} rows "
          f"({len(table)} labeled, {len(test_tab)} held out)")
    return {"family": family, "train_rows": len(train_tab), "test_rows": len(test_tab),
            "columns": len(table.columns)}


def _cmd_eval(args, ctx: RunContext) -> dict:
    from .mlkit import metrics, models

    model = models.load_model(args.model)
    table = _model_table(args, ctx)
    if list(table.columns) != list(model.columns):
        raise ValueError("feature columns do not match the model schema")
    if args.test_ids:
        wanted = set(_read_id_list(args.test_ids))
        idx = [i for i, sid in enumerate(table.ids) if sid in wanted]
        if not idx:
            raise ValueError("no test ids present in the feature table")
        table = table.take(idx)
    report = metrics.evaluate(model, table, threshold=ctx.cfg["model"]["threshold"])
    metrics.write_eval_csv(report, ctx.outputs.stage("eval.csv"), header_comment=ctx.header)
    metrics.write_lift_csv(report, ctx.outputs.stage("lift.csv"), header_comment=ctx.header)
    print(f"eval: accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
          f"sensitivity={report.sensitivity:.4f} specificity={report.specificity:.4f}")
    return {"rows": len(table), "accuracy": report.accuracy, "auc": report.auc,
            "sensitivity": report.sensitivity, "specificity": report.specificity}


def _cmd_select_covariates(args, ctx: RunContext) -> dict:
    import numpy as np

    from .mlkit import selection

    path = args.table
    header, rows = _side_rows(path, (args.response,))
    skip = {args.response, "id", "subscriber", "area", "home_tower"}
    columns = [c for c in header if c not in skip]
    resp_j = header.index(args.response)
    col_j = [header.index(c) for c in columns]
    X, y = [], []
    incomplete = 0
    for n, r in rows:
        if len(r) <= max(col_j + [resp_j]):
            raise ValueError(f"{path}:{n}: wrong field count")
        cells = [r[j] for j in col_j] + [r[resp_j]]
        if any(c.strip() == "" for c in cells):
            incomplete += 1     # absent feature: drop the row, like na_policy=drop
            continue
        X.append([ingest.number(path, n, r[j]) for j in col_j])
        y.append(ingest.number(path, n, r[resp_j]))
    if not X:
        raise ValueError(f"{path}: no complete rows for the requested columns")
    if min(y) == max(y):
        raise ValueError(f"{path}: response column {args.response!r} is constant ({y[0]!r}) "
                         f"over its {len(y)} complete rows; r2 and AIC are undefined")
    sel = ctx.cfg["select"]
    result = selection.select_covariates(
        np.array(X), np.array(y), columns,
        r_cut=sel["r_cut"],
        priority=list(sel["priority"]) or None,
        exhaustive=sel["exhaustive"] or args.exhaustive,
    )
    if not math.isfinite(result.model.aic):
        raise ValueError(f"{path}: response column {args.response!r} is fitted exactly by {result.selected} "
                         f"over its {len(y)} complete rows; AIC is undefined")
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
    from .mlkit import campaign, models

    if args.treatment_size is not None:
        size, what = args.treatment_size, "--treatment-size"
    else:
        size, what = ctx.cfg["campaign"]["treatment_size"], "[campaign] treatment_size"
    if size < 1:
        raise ValueError(f"{what} must be >= 1, got {size}")
    model = models.load_model(args.model)
    ids, columns, rows = _read_feature_table(args.features)
    if list(columns) != list(model.columns):
        raise ValueError("feature columns do not match the model schema")
    table = _labeled_table(args.features, ids, columns, rows, [0.0] * len(ids), ctx.cfg["model"]["na_policy"])
    control = _read_id_list(args.control)
    path = args.outcomes
    header, rows = _side_rows(path, ("converted", "renewed"), key="subscriber")
    s, c, w = (header.index(name) for name in ("subscriber", "converted", "renewed"))
    outcomes = {}
    for n, r in rows:
        for flag in (r[c], r[w]):
            if flag not in ("0", "1"):
                raise ValueError(f"{path}:{n}: bad flag {flag!r}")
        outcomes[r[s]] = {"converted": r[c] == "1", "renewed": r[w] == "1"}
    outcome = campaign.run_campaign(table, model, size, control, outcomes)
    campaign.write_campaign_csv(outcome, ctx.outputs.stage("campaign.csv"),
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
        ingest.write_json(outputs.stage(f"manifest_{args.command.replace('-', '_')}.json"), manifest, indent=2)
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
