"""Run configuration: an INI file validated against a fixed schema.

Unknown sections or keys are rejected so a typo cannot silently fall back
to a default.  The effective configuration (defaults plus file plus
command-line overrides) is hashed into every output header, which is what
makes byte-identical reruns checkable.
"""

from __future__ import annotations

import configparser
import hashlib
import math

CONFIG_ENV_VAR = "CDRLAB_CONFIG"


class ConfigError(Exception):
    pass


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return v


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(p) for p in raw.split(",") if p.strip())


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


_PARSERS = {"int": int, "float": _float, "str": str, "bool": _bool, "floats": _floats, "strs": _strs}

# section -> key -> (type name, default)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "dataset": {
        "cdr": ("str", ""),
        "topups": ("str", ""),
        "towers": ("str", ""),
        "labels": ("str", ""),
    },
    "synth": {
        "subscribers": ("int", 500),
        "towers": ("int", 30),
        "days": ("int", 28),
        "event_rate": ("float", 6.0),
        "graph_model": ("str", "small_world"),
        "sw_k": ("int", 6),
        "sw_rewire": ("float", 0.1),
        "start": ("str", "2016-05-01T00:00:00Z"),
        "grid": ("floats", (90.0, 22.0, 92.5, 26.0)),
        "denominations": ("floats", (10.0, 20.0, 50.0, 100.0, 200.0)),
        "sms_fraction": ("float", 0.3),
        "data_rate": ("float", 0.0),
        "topup_gap_days": ("float", 3.0),
        "visit_concentration": ("float", 0.6),
        "label_low_fraction": ("float", 0.5),
        "label_effect": ("float", 0.0),
    },
    "graph": {
        "min_monthly_interactions": ("int", 3),
        "sms_weight": ("float", 60.0),
    },
    "adoption": {
        "mechanism": ("str", "contagion"),
        "p": ("float", 0.01),
        "p0": ("float", 0.005),
        "beta": ("float", 1.0),
        "days": ("int", 28),
        "replicates": ("int", 200),
    },
    "anomaly": {
        "measure": ("str", "call_count"),
        "bin_width": ("int", 3600),
        "baseline": ("str", "hour_of_day"),
        "threshold_sigma": ("float", 3.0),
    },
    "flows": {
        "min_count": ("int", 10),
        "min_distance_km": ("float", 10.0),
        "mode": ("str", "first_last"),
        "baseline_days": ("int", 0),
    },
    "rank_curves": {
        "max_rank": ("int", 5),
        "bin_width": ("int", 300),
        "comparison_days": ("strs", ()),
    },
    "spatial": {
        "idw_power": ("float", 2.0),
        "idw_max_radius": ("float", 0.0),
        "grid_xll": ("float", 90.0),
        "grid_yll": ("float", 22.0),
        "grid_cellsize": ("float", 0.05),
        "grid_nrows": ("int", 80),
        "grid_ncols": ("int", 50),
        "nodata": ("float", -9999.0),
    },
    "model": {
        "family": ("str", "logistic"),
        "threshold": ("float", 0.5),
        "upsample": ("bool", True),
        "class_weight": ("str", ""),
        "na_policy": ("str", "drop"),
        "rounds": ("int", 50),
        "hidden": ("int", 64),
        "learning_rate": ("float", 0.05),
        "batch_size": ("int", 32),
        "max_epochs": ("int", 200),
        "patience": ("int", 10),
        "folds": ("int", 10),
    },
    "select": {
        "r_cut": ("float", 0.70),
        "exhaustive": ("bool", False),
        "priority": ("strs", ()),
    },
    "campaign": {
        "treatment_size": ("int", 100),
    },
    "run": {
        "seed": ("int", 0),
        "threads": ("int", 1),
        "outdir": ("str", "."),
    },
}


def default_config() -> dict[str, dict[str, object]]:
    return {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in SCHEMA.items()}


def load_config(path: str | None) -> dict[str, dict[str, object]]:
    """Parse and validate an INI file against the schema; None gives defaults."""
    cfg = default_config()
    if path is None:
        return cfg
    # No section header can be empty, so [DEFAULT] reads as a plain section and fails the schema.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte order mark, as Notepad saves one, is skipped
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.line.strip()!r} comes before any [section] header") from None
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        what = f"key {exc.option!r} in section" if hasattr(exc, "option") else "section"
        raise ConfigError(f"{path}:{exc.lineno}: {what} [{exc.section}] appears twice") from None
    except configparser.ParsingError as exc:
        line, text = exc.errors[0]
        raise ConfigError(f"{path}:{line}: cannot parse {text}") from None
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            type_name = SCHEMA[section][key][0]
            try:
                cfg[section][key] = _PARSERS[type_name](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return cfg


# Execution details that must not change analysis outputs; excluded from
# the hash so thread count and output location never break byte-identity.
_HASH_EXEMPT = {("run", "threads"), ("run", "outdir")}


def config_hash(cfg: dict[str, dict[str, object]]) -> str:
    """Stable hash of the effective configuration."""
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            if (section, key) in _HASH_EXEMPT:
                continue
            v = cfg[section][key]
            if isinstance(v, tuple):
                v = ",".join(repr(p) for p in v)
            lines.append(f"{section}.{key}={v!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
