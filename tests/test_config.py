"""Configuration merging and hashing."""

from dataclasses import fields

import pytest

from wordbits.config import RunConfig, config_hash, load_config, read_config_file


def test_defaults():
    cfg = load_config(env={})
    assert cfg.lpair == "de-en"
    assert cfg.src_lang == "DE" and cfg.tgt_lang == "EN"
    assert cfg.mode == "sp"
    assert cfg.target_ttype() == "SI"
    assert cfg.cap == 150 and cfg.window == 64
    assert cfg.align_threshold == 0.01


def test_target_ttype_follows_mode():
    assert load_config(env={}, overrides={"mode": "wr"}).target_ttype() == "TR"
    assert load_config(env={}, overrides={"mode": "sp"}).target_ttype() == "SI"
    with pytest.raises(ValueError, match=r"unknown config keys: \['tgt_ttype'\]"):
        load_config(env={}, overrides={"mode": "wr", "tgt_ttype": "SI"})


def test_precedence_file_env_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nseed=3\nlpair = en-de\ncap=99\n", encoding="utf-8")

    cfg = load_config(p, env={})
    assert (cfg.seed, cfg.lpair, cfg.cap) == (3, "en-de", 99)

    # env beats file
    cfg = load_config(p, env={"WORDBITS_SEED": "7", "WORDBITS_CAP": "120"})
    assert (cfg.seed, cfg.cap, cfg.lpair) == (7, 120, "en-de")

    # explicit overrides beat both; None override is a no-op
    cfg = load_config(p, env={"WORDBITS_SEED": "7"},
                      overrides={"seed": 11, "cap": None})
    assert (cfg.seed, cfg.cap) == (11, 99)


def test_coercion_from_strings():
    cfg = load_config(env={"WORDBITS_ALIGN_THRESHOLD": "0.2",
                           "WORDBITS_WORKERS": "4",
                           "WORDBITS_SCORING": "window"})
    assert cfg.align_threshold == 0.2
    assert cfg.workers == 4
    assert cfg.scoring == "window"
    # seed arrives as int when passed through overrides untouched
    assert load_config(env={}, overrides={"seed": 5}).seed == 5


def test_checked_values(tmp_path):
    cfg = load_config(env={"WORDBITS_CAP": "1", "WORDBITS_WINDOW": "1",
                           "WORDBITS_LPAIR": "en-de"})
    assert (cfg.cap, cfg.window, cfg.lpair) == (1, 1, "en-de")
    with pytest.raises(ValueError, match="config key 'align_threshold': 'x' is not float"):
        load_config(env={"WORDBITS_ALIGN_THRESHOLD": "x"})
    with pytest.raises(ValueError, match="config key 'seed': '1.5' is not int"):
        load_config(env={}, overrides={"seed": "1.5"})
    with pytest.raises(ValueError, match="config key 'mode': 'SP' is not one of sp, wr"):
        load_config(env={}, overrides={"mode": "SP"})
    with pytest.raises(ValueError, match="config key 'window': 0 is below 1"):
        load_config(env={}, overrides={"window": 0})


@pytest.mark.parametrize("value", ["0", "0.0", "0.5", "0.999"])
def test_align_threshold_in_unit_interval_accepted(value):
    assert load_config(env={"WORDBITS_ALIGN_THRESHOLD": value}).align_threshold == float(value)


def test_unknown_keys_fail(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("sede=3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(p, env={})
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(env={}, overrides={"capp": 10})


def test_corpus_constants_are_not_keys(tmp_path):
    """The id widths, text types and score cutoffs are fixed by the corpus:
    a file or an override that sets one fails naming it, and a WORDBITS_
    variable for one is ignored, like any variable that names no key."""
    assert len(fields(RunConfig)) == 18
    p = tmp_path / "run.cfg"
    for key, value in (("doc_pad", "4"), ("seg_pad", "3"), ("src_ttype", "TR"),
                       ("tgt_ttype", "SI"), ("score_cutoff_deen", "0.1"),
                       ("score_cutoff_ende", "0.1")):
        p.write_text(f"{key}={value}\n", encoding="utf-8")
        for source in ({"path": p}, {"overrides": {key: value}}):
            with pytest.raises(ValueError, match=rf"unknown config keys: \[{key!r}\]"):
                load_config(env={}, **source)
        cfg = load_config(env={f"WORDBITS_{key.upper()}": value})
        assert cfg == RunConfig()
        assert (cfg.doc_pad, cfg.seg_pad, cfg.src_ttype) == (3, 2, "ORG")


def test_malformed_file_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("seed\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(p)


def test_config_hash_stable_and_sensitive():
    a = load_config(env={})
    b = load_config(env={})
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert all(c in "0123456789abcdef" for c in config_hash(a))
    c = load_config(env={}, overrides={"seed": 2})
    assert config_hash(c) != config_hash(a)
    # env-as-string and override-as-int hash the same once coerced
    d = load_config(env={"WORDBITS_SEED": "2"})
    assert config_hash(d) == config_hash(c)
