"""Command line pipeline, end to end on the worked example."""

import gzip
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    EXPECTED_SRC_ALIGNED,
    EXPECTED_TGT,
    SRC_TEXT,
    TGT_CLEAN,
    TGT_FP_POSITIONS,
    _LM_BASE,
    _MT_BASE,
)
import wordbits
from wordbits import pipeline
from wordbits.adapters import write_replay
from wordbits.cli import _config_from_args, build_parser, main
from wordbits.config import RunConfig
from wordbits.fp import PREDICTORS
from wordbits.ids import ItemId
from wordbits.records import SegmentPairRecord, SegmentRecord, WordRow
from wordbits.tables import read_table, write_table

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, replay_files, example_input_tsv):
    """Run normalize -> annotate -> aggregate once; return paths and argv."""
    out = tmp_path_factory.mktemp("cli_out")
    manifest = out / "replay.json"
    manifest.write_text(json.dumps({
        "lm-base": replay_files["lm_base"],
        "lm-ft": replay_files["lm_ft"],
        "mt-base": replay_files["mt_base"],
        "mt-ft": replay_files["mt_ft"],
        "encoder": replay_files["encoder"],
        "parser": replay_files["parser"],
    }), encoding="utf-8")

    common = ["--output-dir", str(out), "--direction", "de-en",
              "--mode", "sp"]
    argv = {
        "normalize": ["normalize", "--input", example_input_tsv] + common,
        "annotate": ["annotate", "--input", str(out / "clean.jsonl.gz"),
                     "--replay", str(manifest)] + common,
        "aggregate": ["aggregate", "--input", str(out / "vertical.tsv.gz"),
                      "--sidecar", str(out / "sidecar.jsonl.gz")] + common,
    }
    for stage in ("normalize", "annotate", "aggregate"):
        assert main(argv[stage]) == 0, stage
    return {"dir": out, "argv": argv}


def test_normalize_stage(pipeline_run):
    meta, segs = pipeline.read_jsonl(pipeline_run["dir"] / "clean.jsonl.gz")
    assert meta["command"] == "normalize"
    assert len(meta["config"]) == 16
    assert len(segs) == 1
    seg = segs[0]
    assert seg["doc_id"] == "30" and seg["seg_id"] == "21"
    assert seg["sides"]["src"]["clean"] == SRC_TEXT
    assert seg["sides"]["tgt"]["clean"] == TGT_CLEAN
    assert seg["sides"]["tgt"]["fp_positions"] == TGT_FP_POSITIONS
    assert seg["sides"]["tgt"]["counts"]["fillers"] == 3
    # one pause plus three FPs
    assert seg["sides"]["tgt"]["counts"]["disfluencies"] == 4
    assert seg["sides"]["src"]["counts"]["fillers"] == 0


def test_vertical_reproduces_worked_example(pipeline_run):
    rows = read_table(pipeline_run["dir"] / "vertical.tsv.gz", "vertical")
    tgt = [r for r in rows if r.ttype == "SI" and not r.is_expansion]
    src = [r for r in rows if r.ttype == "ORG" and not r.is_expansion]

    words = [r for r in tgt if not r.is_fp]
    assert [r.token for r in words] == list(EXPECTED_TGT)
    for row in words:
        base, ft, mt_base, mt_ft, aligned = EXPECTED_TGT[row.token]
        assert row.srp_base_gpt2 == pytest.approx(base, abs=1e-9), row.token
        assert row.srp_ft_gpt2 == pytest.approx(ft, abs=1e-9), row.token
        assert row.srp_base_mt == pytest.approx(mt_base, abs=1e-9), row.token
        assert row.srp_ft_mt == pytest.approx(mt_ft, abs=1e-9), row.token
        assert row.aligned_word == aligned, row.token

    fps = [r for r in tgt if r.is_fp]
    assert [r.token for r in fps] == ["euh", "hm", "euh"]
    assert all(r.srp_base_gpt2 is None for r in fps)

    assert [r.token for r in src] == list(EXPECTED_SRC_ALIGNED)
    for row in src:
        assert row.aligned_word == EXPECTED_SRC_ALIGNED[row.token], row.token
        # no source-language LM was configured
        assert row.srp_base_gpt2 is None

    assert str(words[0].word_id) == "SI_DE_EN_030-21:001"
    assert str(src[0].word_id) == "ORG_SP_DE_EN_030-21:001"
    expansions = [r for r in rows if r.is_expansion]
    assert str(expansions[0].word_id) == "SI_DE_EN_030-21:001:1"


def test_aggregate_stage(pipeline_run):
    longs = read_table(pipeline_run["dir"] / "long.tsv.gz", "long")
    assert len(longs) == 2
    by_lang = {r.lang: r for r in longs}

    tgt = by_lang["EN"]
    assert tgt.ttype == "SI" and tgt.mode == "sp"
    assert tgt.wc_tok == 7
    assert tgt.fillers == 3 and tgt.disfluencies == 4
    expect_avs = sum(v[0] for v in EXPECTED_TGT.values()) / len(EXPECTED_TGT)
    assert tgt.base_gpt_avs == pytest.approx(expect_avs, abs=1e-9)
    subw = [-lp for _, lp, _ in _LM_BASE]
    assert tgt.base_gpt_avs_subw == pytest.approx(sum(subw) / len(subw), abs=1e-9)
    assert len(tgt.tokens) == 10  # 7 words + 3 FPs

    src = by_lang["DE"]
    assert src.ttype == "ORG" and src.wc_tok == 5
    assert src.base_gpt_avs is None

    wides = read_table(pipeline_run["dir"] / "wide.tsv.gz", "wide")
    assert len(wides) == 1
    wide = wides[0]
    assert wide.base_bleu == 100.0
    assert wide.ft_bleu == 100.0
    expect_mt = sum(v[2] for v in EXPECTED_TGT.values()) / len(EXPECTED_TGT)
    assert wide.base_mt_avs == pytest.approx(expect_mt, abs=1e-9)
    mt_subw = [-lp for _, lp, _ in _MT_BASE]
    assert wide.base_mt_avs_subw == pytest.approx(sum(mt_subw) / len(mt_subw),
                                                  abs=1e-9)


def test_rerun_is_byte_identical(pipeline_run):
    names = ("clean.jsonl.gz", "vertical.tsv.gz", "sidecar.jsonl.gz",
             "long.tsv.gz", "wide.tsv.gz")
    before = {n: (pipeline_run["dir"] / n).read_bytes() for n in names}
    for stage in ("normalize", "annotate", "aggregate"):
        assert main(pipeline_run["argv"][stage]) == 0
    for n in names:
        assert (pipeline_run["dir"] / n).read_bytes() == before[n], n


def test_source_lm_replay_flag(pipeline_run, tmp_path, capsys):
    """--replay-src-lm-base scores the source side; a manifest naming an
    unknown role is an error record, not a silently ignored entry."""
    src_lm = tmp_path / "src_lm.jsonl"
    subwords = [{"surface": w, "logprob": -2.0, "begins_word": True}
                for w in SRC_TEXT.split()]
    write_replay(src_lm, {"kind": "causal_lm", "name": "src-gpt2", "log_base": "2"},
                 [({"text": SRC_TEXT}, subwords)])
    clean = str(pipeline_run["dir"] / "clean.jsonl.gz")
    out = tmp_path / "out"
    assert main(["annotate", "--input", clean,
                 "--replay", str(pipeline_run["dir"] / "replay.json"),
                 "--replay-src-lm-base", str(src_lm), "--output-dir", str(out),
                 "--direction", "de-en", "--mode", "sp"]) == 0
    rows = read_table(out / "vertical.tsv.gz", "vertical")
    src = [r for r in rows if r.lang == "DE"]
    assert [r.srp_base_gpt2 for r in src] == [2.0] * len(SRC_TEXT.split())
    assert all(r.srp_ft_gpt2 is None for r in src)
    with gzip.open(out / "vertical.tsv.gz", "rt", encoding="utf-8") as f:
        prov = dict(ln[2:].rstrip("\n").split("=", 1) for ln in f if ln.startswith("# "))
    assert prov["adapter_src_lm_base"] == "src-gpt2"
    assert "adapter_src_lm_ft" not in prov
    capsys.readouterr()

    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"lm-base": str(src_lm), "lm-huge": str(src_lm)}),
                        encoding="utf-8")
    assert main(["annotate", "--input", clean, "--output-dir", str(tmp_path / "bad"),
                 "--replay", str(manifest)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "'lm-huge'" in record["message"]


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_workers_flag_is_gone(capsys):
    """Annotation runs on one thread; --workers is no longer an option."""
    with pytest.raises(SystemExit) as exc:
        main(["annotate", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key, value", [
    (["--direction", "en-de"], "lpair", "en-de"),
    (["--cap", "7"], "cap", 7),
    (["--window", "9"], "window", 9),
    (["--align-threshold", "0.2"], "align_threshold", 0.2),
    (["--seed", "11"], "seed", 11),
    (["--seed", "0"], "seed", 0),  # a zero value still overrides
    (["--scoring", "window"], "scoring", "window"),
    (["--mode", "wr"], "mode", "wr"),
    (["--input", "in.tsv"], "input", "in.tsv"),
    (["--output-dir", "elsewhere"], "output_dir", "elsewhere"),
] + [([f"--replay-{role.replace('_', '-')}", f"{role}.jsonl"], f"replay_{role}",
      f"{role}.jsonl") for role in pipeline.ROLES])
def test_common_flag_sets_its_config_key(flags, key, value, monkeypatch):
    for var in [v for v in os.environ if v.startswith("WORDBITS_")]:
        monkeypatch.delenv(var)
    cfg = _config_from_args(build_parser().parse_args(["annotate"] + flags))
    assert cfg == replace(RunConfig(), **{key: value})


def test_errors_become_json_on_stderr(tmp_path, capsys):
    rc = main(["normalize", "--input", str(tmp_path / "missing.tsv"),
               "--output-dir", str(tmp_path)])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "FileNotFoundError"
    assert "missing.tsv" in record["message"]

    rc = main(["normalize", "--output-dir", str(tmp_path)])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "no input path" in record["message"]


def test_console_script_reports_version():
    """The declared console entry point, run as its own process, reports the
    package version.  The child runs the same two lines as the wrapper that
    an install puts on PATH, against the code under test, so no install is
    needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as f:
        project = tomllib.load(f)["project"]
    module, _, attr = project["scripts"]["wordbits"].partition(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
    pkg_root = str(Path(wordbits.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": pkg_root}
    out = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                         capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == wordbits.__version__
    assert out.stdout.strip() == project["version"]


@pytest.mark.skipif(shutil.which("wordbits") is None,
                    reason="wordbits console script not installed")
def test_installed_console_script_reports_version():
    """The script on PATH runs the code under test, not a stale install."""
    out = subprocess.run(["wordbits", "--version"], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == wordbits.__version__


def _write_documents(path, n_docs, n_segs=12):
    docs = []
    for i in range(n_docs):
        segs = [{"seg_id": f"{j:02d}",
                 "src_raw": "drei kurze worte hier",
                 "tgt_raw": "three short words here"}
                for j in range(n_segs)]
        docs.append({"doc_id": f"{i:03d}", "lpair": "de-en", "mode": "wr",
                     "alignment_score": 0.9, "speaker_id": f"sp{i % 9}",
                     "segments": segs})
    pipeline.write_jsonl(path, docs)


def test_build_and_stats_subcommands(tmp_path):
    docs_path = tmp_path / "docs.jsonl.gz"
    _write_documents(docs_path, 180)

    rc = main(["build", "--input", str(docs_path),
               "--output-dir", str(tmp_path), "--mode", "wr", "--seed", "5"])
    assert rc == 0
    with gzip.open(tmp_path / "splits.tsv.gz", "rt", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "doc_id\tlpair\tsplit\tn_segments"
    assert len(body) - 1 == 180
    splits = {ln.split("\t")[2] for ln in body[1:]}
    assert splits <= {"test", "train", "dropped"}

    rc = main(["stats", "--input", str(docs_path),
               "--output-dir", str(tmp_path), "--mode", "wr"])
    assert rc == 0
    with gzip.open(tmp_path / "stats.tsv.gz", "rt", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    header = lines[0].split("\t")
    assert "pct_empty" in header and "len_mean" in header
    assert len(lines) >= 2


def _fp_vertical_rows():
    rng = random.Random(42)
    rows = []
    for seg in range(40):
        seg_id = f"{seg:02d}"
        speaker = f"fEN{seg % 4}"
        src_ids = []
        for i in range(1, 4):
            wid = ItemId("ORG", "SP", "DE", "EN", "001", seg_id, f"{i:03d}")
            src_ids.append(str(wid))
            rows.append(WordRow(word_id=wid, token=f"s{i}",
                                srp_base_gpt2=rng.uniform(1, 20),
                                doc_id="001", seg_id=seg_id, lpair="de-en",
                                lang="DE", mode="sp", ttype="ORG",
                                speaker_id=f"fDE{seg % 4}"))
        fp_before = rng.randrange(1, 6) if seg % 2 == 0 else None
        word_no = 1
        for i in range(1, 7):
            if i == fp_before:
                rows.append(WordRow(
                    word_id=ItemId("SI", "SP", "DE", "EN", "001", seg_id,
                                   f"{word_no:03d}", explicit_mode=False),
                    token="euh", pos="FP", doc_id="001", seg_id=seg_id,
                    lpair="de-en", lang="EN", mode="sp", ttype="SI",
                    speaker_id=speaker))
                word_no += 1
            rows.append(WordRow(
                word_id=ItemId("SI", "SP", "DE", "EN", "001", seg_id,
                               f"{word_no:03d}", explicit_mode=False),
                token=f"w{i}", srp_base_gpt2=rng.uniform(1, 20),
                srp_base_mt=rng.uniform(1, 40),
                aligned_word_id=[rng.choice(src_ids)],
                doc_id="001", seg_id=seg_id, lpair="de-en", lang="EN",
                mode="sp", ttype="SI", speaker_id=speaker))
            word_no += 1
    return rows


def test_fp_analyze_subcommand(tmp_path):
    vertical = tmp_path / "vertical.tsv.gz"
    write_table(_fp_vertical_rows(), "vertical", vertical)
    rc = main(["fp-analyze", "--input", str(vertical),
               "--output-dir", str(tmp_path), "--direction", "de-en",
               "--mode", "sp"])
    assert rc == 0
    with gzip.open(tmp_path / "fp_model.tsv.gz", "rt", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    prov = {ln[2:].split("=", 1)[0] for ln in lines if ln.startswith("# ")}
    assert {"aic", "c", "n_obs", "loglik", "sigma2_speaker_id"} <= prov
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "term\testimate\tstd_error\tz"
    terms = [ln.split("\t")[0] for ln in body[1:]]
    assert terms[0] == "intercept" and "nxtwS_tgt" in terms
    for ln in body[1:]:
        float(ln.split("\t")[1])  # estimates parse


def _fp_analyze(tmp_path, *extra):
    vertical = tmp_path / "vertical.tsv.gz"
    write_table(_fp_vertical_rows(), "vertical", vertical)
    return main(["fp-analyze", "--input", str(vertical),
                 "--output-dir", str(tmp_path), "--direction", "de-en",
                 "--mode", "sp", *extra])


def _fp_provenance(tmp_path):
    with gzip.open(tmp_path / "fp_model.tsv.gz", "rt", encoding="utf-8") as f:
        return dict(ln[2:].rstrip("\n").split("=", 1) for ln in f
                    if ln.startswith("# "))


def test_fp_analyze_header_fit_values_are_numbers(tmp_path):
    assert _fp_analyze(tmp_path) == 0
    prov = _fp_provenance(tmp_path)
    for key in ("aic", "c", "loglik", "sigma2_speaker_id"):
        float(prov[key])  # not e.g. "np.float64(...)"


def test_fp_analyze_empty_random_intercepts_fits_glm(tmp_path):
    assert _fp_analyze(tmp_path, "--random-intercepts", "") == 0
    prov = _fp_provenance(tmp_path)
    assert not [k for k in prov if k.startswith("sigma2_")]
    assert float(prov["aic"]) == pytest.approx(
        2.0 * (1 + len(PREDICTORS)) - 2.0 * float(prov["loglik"]))


def test_fp_analyze_unknown_factor_lists_grouping_fields(tmp_path, capsys):
    assert _fp_analyze(tmp_path, "--random-intercepts", "speaker_id,spekaer") == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "spekaer" in record["message"]
    for name in ("speaker_id", "doc_id", "direction"):
        assert name in record["message"]
    assert not (tmp_path / "fp_model.tsv.gz").exists()


def test_gam_subcommand(tmp_path):
    rng = random.Random(7)
    longs, wides = [], []
    for i in range(80):
        x = rng.uniform(2.0, 12.0)
        y = 2.0 * x + rng.gauss(0.0, 0.3)
        seg_id = f"{i:03d}"
        longs.append(SegmentRecord(doc_id="001", seg_id=seg_id, lpair="de-en",
                                   lang="EN", mode="sp", ttype="SI",
                                   base_gpt_avs=y))
        wides.append(SegmentPairRecord(src_doc_id="001", src_seg_id=seg_id,
                                       tgt_doc_id="001", tgt_seg_id=seg_id,
                                       lpair="de-en", mode="sp",
                                       base_mt_avs=x))
    long_path = tmp_path / "long.tsv.gz"
    wide_path = tmp_path / "wide.tsv.gz"
    write_table(longs, "long", long_path)
    write_table(wides, "wide", wide_path)

    rc = main(["gam", "--input", str(long_path), "--wide", str(wide_path),
               "--output-dir", str(tmp_path), "--direction", "de-en",
               "--mode", "sp", "--grid-points", "60"])
    assert rc == 0
    with gzip.open(tmp_path / "gam_curve.tsv.gz", "rt", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    prov = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    assert float(prov["pseudo_r2"]) > 0.9
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x\tyhat\tci_lower\tci_upper"
    assert len(body) - 1 == 60
    first = [float(v) for v in body[1].split("\t")]
    assert first[2] <= first[1] <= first[3]
