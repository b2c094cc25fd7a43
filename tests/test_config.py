"""Configuration parsing, schema validation, and the run-identity hash."""

import pytest

from cdrlab.config import ConfigError, config_hash, default_config, load_config


def write_cfg(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_defaults_cover_every_section():
    cfg = load_config(None)
    assert cfg == default_config()
    assert cfg["synth"]["subscribers"] == 500
    assert cfg["run"]["seed"] == 0
    assert cfg["graph"]["min_monthly_interactions"] == 3
    assert cfg["synth"]["grid"] == (90.0, 22.0, 92.5, 26.0)


def test_file_overrides_defaults_with_typed_values(tmp_path):
    path = write_cfg(tmp_path, """
[synth]
subscribers = 42
sms_fraction = 0.5
denominations = 5, 25

[model]
upsample = no

[select]
priority = deg, entropy
""")
    cfg = load_config(path)
    assert cfg["synth"]["subscribers"] == 42
    assert cfg["synth"]["sms_fraction"] == 0.5
    assert cfg["synth"]["denominations"] == (5.0, 25.0)
    assert cfg["model"]["upsample"] is False
    assert cfg["select"]["priority"] == ("deg", "entropy")
    # untouched keys keep their defaults
    assert cfg["synth"]["towers"] == 30


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown config section \[synht\]"):
        load_config(write_cfg(tmp_path, "[synht]\nsubscribers = 10\n"))
    with pytest.raises(ConfigError, match="unknown key 'subscriber'"):
        load_config(write_cfg(tmp_path, "[synth]\nsubscriber = 10\n"))
    # configparser's [DEFAULT] would feed its keys to every section past the schema
    for text in ("[DEFAULT]\nsubscribers = 7\n", "[DEFAULT]\nsubscribers = 7\n[synth]\ntowers = 5\n",
                 "[DEFAULT]\nsubscribers = 7\n[synth]\ntowers = 5\n[run]\nseed = 1\n"):
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(write_cfg(tmp_path, text))


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bad value for synth.subscribers"):
        load_config(write_cfg(tmp_path, "[synth]\nsubscribers = many\n"))
    with pytest.raises(ConfigError, match="bad value for model.upsample"):
        load_config(write_cfg(tmp_path, "[model]\nupsample = maybe\n"))
    for ini, named in (("[graph]\nsms_weight = nan\n", "graph.sms_weight: not a finite number: 'nan'"),
                       ("[spatial]\nnodata = -inf\n", "spatial.nodata: not a finite number: '-inf'"),
                       ("[synth]\ngrid = 90, 22, inf, 26\n", "synth.grid: not a finite number: 'inf'")):
        with pytest.raises(ConfigError, match=f"bad value for {named}"):
            load_config(write_cfg(tmp_path, ini))
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.ini"))


def test_bool_spellings(tmp_path):
    for raw, want in (("1", True), ("true", True), ("YES", True), ("on", True),
                      ("0", False), ("False", False), ("no", False), ("off", False)):
        cfg = load_config(write_cfg(tmp_path, f"[model]\nupsample = {raw}\n"))
        assert cfg["model"]["upsample"] is want


def test_config_hash_stable_and_sensitive(tmp_path):
    base = load_config(None)
    assert config_hash(base) == config_hash(load_config(None))
    assert len(config_hash(base)) == 64

    changed = load_config(write_cfg(tmp_path, "[run]\nseed = 7\n"))
    assert config_hash(changed) != config_hash(base)


def test_config_hash_ignores_execution_details():
    cfg = default_config()
    h = config_hash(cfg)
    cfg["run"]["threads"] = 8
    cfg["run"]["outdir"] = "/tmp/elsewhere"
    assert config_hash(cfg) == h
    cfg["run"]["seed"] = 1
    assert config_hash(cfg) != h
