"""Pinned output bytes of normalize -> annotate.

A seeded corpus with transcript notation, filled pauses, contractions and an
empty side runs through the command line with mock adapters in three modes,
and the worked example of conftest.py runs through the replay adapters.  The
sha256 of each output body (everything below the provenance lines, which
carry the config hash and so the run's paths) is pinned: a change that
alters any table byte fails here.
"""

import gzip
import hashlib
import json
import os
import random
from dataclasses import replace

import pytest

from wordbits.cli import main
from wordbits.config import RunConfig
from wordbits.pipeline import (INPUT_COLUMNS, adapters_from_config, annotate_stage,
                               normalize_stage)

_DE = ("wir", "haben", "das", "Verfahren", "heute", "nicht", "gesehen",
       "Kommission", "Parlament", "3,5", "Prozent", "z.B.", "Haushalt",
       "und", "die", "Abstimmung", "über", "Änderungsanträge")
_EN = ("we", "have", "the", "procedure", "today", "not", "seen",
       "Commission", "Parliament", "3.5", "percent", "e.g.", "budget",
       "and", "it's", "don't", "we're", "vote", "amendments", "that's")
_MARKS = (",", ".", "?", "!")
_NOTATION = ("/", "wor/ word [1#word]", "the [e:] ", "s/ [s:]", "to to [2#]")
_FPS = ("euh", "hum", "hm", "Euh")


def _side(rng, vocab, n_words, spoken):
    out = []
    for _ in range(n_words):
        word = rng.choice(vocab)
        if rng.random() < 0.12:
            word += rng.choice(_MARKS)
        out.append(word)
        if spoken and rng.random() < 0.15:
            out.append(rng.choice(_FPS))
        if spoken and rng.random() < 0.08:
            out.append(rng.choice(_NOTATION))
    return " ".join(out)


def _write_corpus(path, src_vocab, tgt_vocab, spoken, seed):
    rng = random.Random(seed)
    lines = ["\t".join(INPUT_COLUMNS)]
    for doc in range(1, 4):
        for seg in range(1, 7):
            n = rng.randint(2, 18) if seg != 3 else 30
            src = _side(rng, src_vocab, n, spoken)
            tgt = _side(rng, tgt_vocab, max(1, n + rng.randint(-3, 3)), spoken)
            if doc == 2 and seg == 2:
                tgt = ""  # an empty target side
            if doc == 3 and seg == 1 and spoken:
                tgt = "euh / hm"  # fillers only
            lines.append("\t".join((str(doc), str(seg), f"spk{doc}", f"int{doc}",
                                    src, tgt)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _body_sha(path):
    """sha256 of a gzip output below its "#" or {"meta": ...} provenance."""
    with gzip.open(path, "rt", encoding="utf-8") as f:
        lines = f.read().split("\n")
    while lines and (lines[0].startswith("#") or lines[0].startswith('{"meta"')):
        lines.pop(0)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


_MODES = {
    "sp-bounded": (["--mode", "sp", "--direction", "de-en"], _DE, _EN),
    "sp-window8": (["--mode", "sp", "--direction", "de-en",
                    "--scoring", "window", "--window", "8"], _DE, _EN),
    "wr-window8-ende": (["--mode", "wr", "--direction", "en-de",
                         "--scoring", "window", "--window", "8"], _EN, _DE),
}

_PINNED = {
    "sp-bounded": {
        "clean.jsonl.gz":
            "eff4f08725236fb61db2fc7b61c2769c5370a8fa5fc18f568f376ae011c28df9",
        "vertical.tsv.gz":
            "458c48a55f4f3a7b77577d15cf0ed3bdfc244c8f50d8827e36b5a2aabeee7054",
        "long.tsv.gz":
            "9464ef5db3e3cd1235658356393cb88720c103c50ce9d13e031c0fb582868a7a",
        "wide.tsv.gz":
            "10291ccade8f9f82f25669c6a8cf8fe2db0da34278ec86419da9db1de34ef494",
    },
    "sp-window8": {
        "clean.jsonl.gz":
            "eff4f08725236fb61db2fc7b61c2769c5370a8fa5fc18f568f376ae011c28df9",
        "vertical.tsv.gz":
            "10f2186ef515f5604b35840ce23055b2c9dfc7badfd32666b70f15538c305406",
        "long.tsv.gz":
            "e42fd3957c0addfcad94805614a0ed407bda713522f1be5e3bb7c3bf427d648e",
        "wide.tsv.gz":
            "10291ccade8f9f82f25669c6a8cf8fe2db0da34278ec86419da9db1de34ef494",
    },
    "wr-window8-ende": {
        "clean.jsonl.gz":
            "1cdd38d544deeeb676ac4f82e498dab9f4125e4c56e86f886def5cc3dfc08c04",
        "vertical.tsv.gz":
            "cdc7e78898afdcde4c4faeaadc4413dfc683236e301dbc76e02a2c34da80d1ba",
        "long.tsv.gz":
            "40f2c736debd3f6a0433194cba39b8fa2629eb867dc2b13d1e7a5e36b648da0a",
        "wide.tsv.gz":
            "39120568bd5906bce54c779a9d0fa0380488bd5cda511b32bc1b1ad7a0dd3017",
    },
}

_OUTPUTS = ("clean.jsonl.gz", "vertical.tsv.gz", "long.tsv.gz", "wide.tsv.gz")


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_outputs_match_pinned_bytes(mode, tmp_path):
    flags, src_vocab, tgt_vocab = _MODES[mode]
    tsv = tmp_path / "input.tsv"
    _write_corpus(tsv, src_vocab, tgt_vocab, spoken=flags[1] == "sp", seed=3)
    out = tmp_path / "out"
    common = ["--output-dir", str(out)] + flags
    assert main(["normalize", "--input", str(tsv)] + common) == 0
    assert main(["annotate", "--input", str(out / "clean.jsonl.gz"), "--mock"]
                + common) == 0
    got = {name: _body_sha(out / name) for name in _OUTPUTS}
    assert got == _PINNED[mode]


def test_stage_functions_write_the_pinned_and_the_cli_bytes(tmp_path):
    """The two stage functions, called from Python with the adapters that
    --mock builds, write the pinned bodies, and the same whole files as the
    command line with the same config and paths."""
    flags, src_vocab, tgt_vocab = _MODES["sp-bounded"]
    tsv = tmp_path / "input.tsv"
    _write_corpus(tsv, src_vocab, tgt_vocab, spoken=True, seed=3)
    out = tmp_path / "out"
    cfg = RunConfig(input=str(tsv), output_dir=str(out), lpair="de-en", mode="sp")
    [clean] = normalize_stage(cfg)
    annotate_cfg = replace(cfg, input=clean)
    written = annotate_stage(
        annotate_cfg, adapters_from_config(annotate_cfg, mock_fallback=True))
    assert [os.path.basename(p) for p in written] == list(_OUTPUTS[1:])
    assert {name: _body_sha(out / name) for name in _OUTPUTS} == _PINNED["sp-bounded"]
    staged = {name: (out / name).read_bytes() for name in _OUTPUTS}

    common = ["--output-dir", str(out)] + flags
    assert main(["normalize", "--input", str(tsv)] + common) == 0
    assert main(["annotate", "--input", clean, "--mock"] + common) == 0
    assert {name: (out / name).read_bytes() for name in _OUTPUTS} == staged


# The worked example through a --replay manifest: the mock cases above never
# reach ReplayParser or the replay scorers and encoder.
_PINNED_REPLAY = {
    "clean.jsonl.gz":
        "bb54a34aabafecf1bcb3bd6af0f5bfd143bc42c27becbdb4f1d871bb9dcbb280",
    "vertical.tsv.gz":
        "b11061c0357c97f7c309bc45c132d6c9396b833ceaa8c7baec0619eff80ff255",
    "long.tsv.gz":
        "d83f6765f5e3f0e916c55afeec88b5a5ad81344768d665227dbbbfb7d55c9e3d",
    "wide.tsv.gz":
        "0bdf63151affa082641237e0f5a29ba4acdec349b117096e2a36f76678cc4192",
}


def test_replay_outputs_match_pinned_bytes(replay_files, example_input_tsv, tmp_path):
    out = tmp_path / "out"
    manifest = tmp_path / "replay.json"
    manifest.write_text(json.dumps({role.replace("_", "-"): path
                                    for role, path in replay_files.items()}),
                        encoding="utf-8")
    common = ["--output-dir", str(out), "--mode", "sp", "--direction", "de-en"]
    assert main(["normalize", "--input", example_input_tsv] + common) == 0
    assert main(["annotate", "--input", str(out / "clean.jsonl.gz"),
                 "--replay", str(manifest)] + common) == 0
    got = {name: _body_sha(out / name) for name in _OUTPUTS}
    assert got == _PINNED_REPLAY
