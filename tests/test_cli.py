"""Command line pipeline, end to end on the worked example."""

import gzip
import json
import os
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
    fp_vertical_rows,
    write_gam_tables,
)
import wordbits
from wordbits import pipeline
from wordbits.adapters import write_replay
from wordbits.cli import _config_from_args, build_parser, main
from wordbits.config import CHOICES, RunConfig
from wordbits.fp import PREDICTORS
from wordbits.tables import read_table, write_table

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, replay_files, example_input_tsv):
    """Run normalize -> annotate once; return paths and argv."""
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
    }
    for stage in ("normalize", "annotate"):
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
    names = ("clean.jsonl.gz", "vertical.tsv.gz", "long.tsv.gz", "wide.tsv.gz")
    before = {n: (pipeline_run["dir"] / n).read_bytes() for n in names}
    for stage in ("normalize", "annotate"):
        assert main(pipeline_run["argv"][stage]) == 0
    for n in names:
        assert (pipeline_run["dir"] / n).read_bytes() == before[n], n


def test_annotate_writes_no_sidecar_file(pipeline_run):
    """annotate writes the three tables under one provenance, which names
    the adapters, and no sidecar file."""
    written = sorted(p.name for p in pipeline_run["dir"].iterdir())
    assert written == ["clean.jsonl.gz", "long.tsv.gz", "replay.json",
                       "vertical.tsv.gz", "wide.tsv.gz"]
    headers = set()
    for name in ("vertical.tsv.gz", "long.tsv.gz", "wide.tsv.gz"):
        with gzip.open(pipeline_run["dir"] / name, "rt", encoding="utf-8") as f:
            headers.add(tuple(ln for ln in f if ln.startswith("# ")))
    [header] = headers
    assert "# command=annotate\n" in header
    assert "# adapter_parser=parser\n" in header


def test_aggregate_sidecar_flag_is_gone(tmp_path, capsys):
    """The aggregate command is gone with its --sidecar flag: annotate
    writes the long and wide tables itself."""
    with pytest.raises(SystemExit) as exc:
        main(["aggregate", "--input", str(tmp_path / "vertical.tsv.gz")])
    assert exc.value.code == 2
    assert "invalid choice: 'aggregate'" in capsys.readouterr().err
    assert not hasattr(pipeline, "aggregate_stage")


def _write_src_lm(path):
    """A source-LM replay file, named src-gpt2, that scores each word of
    SRC_TEXT 2 bits."""
    subwords = [{"surface": w, "logprob": -2.0, "begins_word": True}
                for w in SRC_TEXT.split()]
    write_replay(path, {"kind": "causal_lm", "name": "src-gpt2", "log_base": "2"},
                 [({"text": SRC_TEXT}, subwords)])
    return path


def test_source_lm_replay_flag(pipeline_run, tmp_path, capsys):
    """--replay-src-lm-base scores the source side; a manifest naming an
    unknown role is an error record, not a silently ignored entry."""
    src_lm = _write_src_lm(tmp_path / "src_lm.jsonl")
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


@pytest.mark.parametrize("bom_file", ["replay", "config", "manifest"])
def test_files_a_run_reads_may_start_with_a_byte_order_mark(bom_file, pipeline_run,
                                                           tmp_path):
    """A replay file, a --config file and a --replay manifest saved with a
    UTF-8 byte-order mark read as they do without one."""
    src_lm = _write_src_lm(tmp_path / "src_lm.jsonl")
    bom = tmp_path / f"bom-{bom_file}"
    if bom_file == "replay":
        text, flag = src_lm.read_text(encoding="utf-8"), "--replay-src-lm-base"
    elif bom_file == "config":
        text, flag = f"replay_src_lm_base={src_lm}\n", "--config"
    else:
        text, flag = json.dumps({"src-lm-base": str(src_lm)}), "--replay"
    bom.write_text("\ufeff" + text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["annotate", "--input", str(pipeline_run["dir"] / "clean.jsonl.gz"),
                 flag, str(bom), "--output-dir", str(out), "--direction", "de-en"]) == 0
    rows = read_table(out / "vertical.tsv.gz", "vertical")
    src = [r for r in rows if r.lang == "DE"]
    assert [r.srp_base_gpt2 for r in src] == [2.0] * len(SRC_TEXT.split())


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


@pytest.mark.parametrize("source", ["env", "file", "flag"])
@pytest.mark.parametrize("key, value", [
    ("scoring", "windows"), ("mode", "spoken"), ("lpair", "de_en"),
    ("cap", "-2"), ("window", "0"), ("cap", "abc"), ("align_threshold", "nan"),
    ("align_threshold", "2"), ("align_threshold", "1"), ("align_threshold", "-0.5"),
    ("align_threshold", "inf")])
def test_bad_config_value_is_rejected_naming_its_key(key, value, source, tmp_path,
                                                     monkeypatch, capsys):
    """A value outside its key's choices, below 1 for cap or window, outside
    [0, 1) for align_threshold, or not a number for a numeric key stops the
    command before it reads input, whether it comes from the environment, a
    config file or a flag."""
    for var in [v for v in os.environ if v.startswith("WORDBITS_")]:
        monkeypatch.delenv(var)
    argv = ["normalize", "--output-dir", str(tmp_path)]
    flag = "--direction" if key == "lpair" else f"--{key.replace('_', '-')}"
    if source == "env":
        monkeypatch.setenv(f"WORDBITS_{key.upper()}", value)
    elif source == "file":
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        argv += [flag, value]
    if source == "flag" and (key in CHOICES or value == "abc"):
        # the flag's own choices or type reject it first
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        return
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert record["message"].startswith(f"config key {key!r}: ")
    assert value in record["message"]
    assert not list(tmp_path.glob("*.gz"))


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


def _document(doc_id, lpair="de-en", alignment_score=0.9, mode="wr", n_segs=12,
              **extra):
    segs = [{"seg_id": f"{j:02d}",
             "src_raw": "drei kurze worte hier",
             "tgt_raw": "three short words here"}
            for j in range(n_segs)]
    return {"doc_id": doc_id, "lpair": lpair, "mode": mode,
            "alignment_score": alignment_score, "segments": segs, **extra}


def _write_documents(path, n_docs, n_segs=12):
    pipeline.write_jsonl(path, [_document(f"{i:03d}", n_segs=n_segs,
                                          speaker_id=f"sp{i % 9}")
                                for i in range(n_docs)])


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


def test_build_keeps_documents_scored_above_their_direction_cutoff(tmp_path):
    """build keeps a de-en document scored above 0.3 and an en-de one above
    0.5: a score equal to the cutoff is dropped, and an en-de score that
    would pass the de-en cutoff is dropped too."""
    docs = [_document(f"{i:03d}") for i in range(180)]
    docs += [_document("deen-0.30", alignment_score=0.3),
             _document("deen-0.31", alignment_score=0.31),
             _document("ende-0.45", lpair="en-de", alignment_score=0.45)]
    pipeline.write_jsonl(tmp_path / "written.jsonl.gz", docs)
    # spoken documents in de-en alone: the split then needs no en-de ones
    pipeline.write_jsonl(tmp_path / "spoken.jsonl.gz",
                         [_document("s001", mode="sp", date="2010-01-01",
                                    speaker_id="sp1")])
    assert main(["build", "--input", str(tmp_path / "written.jsonl.gz"),
                 "--spoken", str(tmp_path / "spoken.jsonl.gz"),
                 "--output-dir", str(tmp_path), "--mode", "wr"]) == 0
    with gzip.open(tmp_path / "splits.tsv.gz", "rt", encoding="utf-8") as f:
        ids = {ln.split("\t")[0] for ln in f if not ln.startswith("#")}
    assert ids - {"doc_id"} == {f"{i:03d}" for i in range(180)} | {"deen-0.31"}


def test_build_without_spoken_splits_the_directions_the_filters_leave(tmp_path, capsys):
    """Without --spoken, a direction whose every document the score cutoff
    drops is named in one warning and left out of the split."""
    docs = [_document(f"{i:03d}") for i in range(180)]
    docs.append(_document("ende-0.45", lpair="en-de", alignment_score=0.45))
    pipeline.write_jsonl(tmp_path / "written.jsonl.gz", docs)
    assert main(["build", "--input", str(tmp_path / "written.jsonl.gz"),
                 "--output-dir", str(tmp_path), "--mode", "wr"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "WARNING wordbits.cli: the filters left no en-de documents to split"]
    with gzip.open(tmp_path / "splits.tsv.gz", "rt", encoding="utf-8") as f:
        rows = [ln.split("\t") for ln in f if not ln.startswith("#")]
    assert {row[0] for row in rows[1:]} == {f"{i:03d}" for i in range(180)}
    assert {row[1] for row in rows[1:]} == {"de-en"}


@pytest.mark.xfail(strict=True, reason="a token or list element spelled NA cannot be "
                   "written, and the table write ends the whole run")
def test_a_word_spelled_na_does_not_end_the_annotate_run(tmp_path):
    tsv = tmp_path / "input.tsv"
    tsv.write_text("\t".join(pipeline.INPUT_COLUMNS) + "\n"
                   "1\t1\tspk1\tint1\tder Ausschuss\tthe committee\n"
                   "1\t2\tspk1\tint1\tder Ausschuss\tthe NA committee\n",
                   encoding="utf-8")
    common = ["--output-dir", str(tmp_path), "--mode", "wr", "--direction", "de-en"]
    assert main(["normalize", "--input", str(tsv)] + common) == 0
    assert main(["annotate", "--mock", "--input", str(tmp_path / "clean.jsonl.gz")]
                + common) == 0
    for table in ("vertical", "long", "wide"):
        assert (tmp_path / f"{table}.tsv.gz").exists()


def test_fp_analyze_subcommand(tmp_path):
    vertical = tmp_path / "vertical.tsv.gz"
    write_table(fp_vertical_rows(), "vertical", vertical)
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
    write_table(fp_vertical_rows(), "vertical", vertical)
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


def test_fp_analyze_repeated_factor_writes_no_model(tmp_path, capsys):
    assert _fp_analyze(tmp_path, "--random-intercepts", "speaker_id,speaker_id") == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "'speaker_id'" in record["message"] and "more than once" in record["message"]
    assert not (tmp_path / "fp_model.tsv.gz").exists()


def test_fp_analyze_reads_the_direction_from_the_rows(ende_tables, tmp_path):
    """Run without --direction, fp-analyze of an en-de vertical labels the
    model with the rows' direction."""
    assert main(["fp-analyze", "--input", str(ende_tables / "vertical.tsv.gz"),
                 "--output-dir", str(tmp_path)]) == 0
    prov = _fp_provenance(tmp_path)
    assert prov["direction"] == "EN-DE"
    assert int(prov["n_obs"]) > 0


def test_fp_analyze_of_a_vertical_of_two_directions_writes_no_model(tmp_path, capsys):
    """Segments are keyed by (doc_id, seg_id), so a vertical holding both
    directions is refused rather than merged."""
    rows = fp_vertical_rows()
    for row in rows[len(rows) // 2:]:
        row.lpair = "en-de"
    write_table(rows, "vertical", tmp_path / "vertical.tsv.gz")
    assert main(["fp-analyze", "--input", str(tmp_path / "vertical.tsv.gz"),
                 "--output-dir", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "'de-en', 'en-de'" in record["message"]
    assert not (tmp_path / "fp_model.tsv.gz").exists()


def _gam(tmp_path, *extra):
    long_path, wide_path = write_gam_tables(tmp_path, "de-en")
    return main(["gam", "--input", str(long_path), "--wide", str(wide_path),
                 "--output-dir", str(tmp_path), "--direction", "de-en",
                 "--mode", "sp", *extra])


def test_gam_subcommand(tmp_path):
    assert _gam(tmp_path, "--grid-points", "60") == 0
    with gzip.open(tmp_path / "gam_curve.tsv.gz", "rt", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    prov = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    assert float(prov["pseudo_r2"]) > 0.9
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x\tyhat\tci_lower\tci_upper"
    assert len(body) - 1 == 60
    first = [float(v) for v in body[1].split("\t")]
    assert first[2] <= first[1] <= first[3]


def test_gam_fits_the_target_side_whatever_the_direction(tmp_path):
    """Run without --direction, gam keeps the long records that are not of
    the source ttype: on en-de tables it fits the target side, whose LM
    means track the MT means, and writes the curve the same target side
    gives on de-en tables, not a fit of the source side's means."""
    bodies = {}
    for lpair in ("de-en", "en-de"):
        d = tmp_path / lpair
        d.mkdir()
        long_path, wide_path = write_gam_tables(d, lpair)
        assert main(["gam", "--input", str(long_path), "--wide", str(wide_path),
                     "--output-dir", str(d)]) == 0
        with gzip.open(d / "gam_curve.tsv.gz", "rt", encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f]
        prov = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        assert prov["n"] == "80"
        assert float(prov["pseudo_r2"]) > 0.9
        bodies[lpair] = [ln for ln in lines if not ln.startswith("#")]
    assert bodies["en-de"] == bodies["de-en"]


def test_gam_rejects_a_grid_of_fewer_than_two_points(tmp_path, capsys):
    assert _gam(tmp_path, "--grid-points", "0") == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "n=0" in record["message"] and "n >= 2" in record["message"]
    assert not (tmp_path / "gam_curve.tsv.gz").exists()


def test_warnings_print_level_and_logger_once_per_call(tmp_path, capfd):
    """A mock run whose alignments cross commas warns through one handler
    that names level and logger; a second main() in the same process prints
    the same lines again, not twice over."""
    (tmp_path / "input.tsv").write_text(
        "doc_id\tseg_id\tsrc_speaker_id\ttgt_speaker_id\tsrc_raw\ttgt_raw\n"
        "30\t21\tfDE1\tfEN3\tbegonnen ist, guten Absichten leider\t"
        "it is all, euh hm euh very well-intended. / But, there is\n",
        encoding="utf-8")
    common = ["--output-dir", str(tmp_path), "--mode", "sp"]
    assert main(["normalize", "--input", str(tmp_path / "input.tsv")] + common) == 0
    capfd.readouterr()
    annotate = ["annotate", "--mock", "--input", str(tmp_path / "clean.jsonl.gz")]
    errs = []
    for _ in range(2):
        assert main(annotate + common) == 0
        errs.append(capfd.readouterr().err.splitlines())
    assert errs[0] == errs[1]
    assert errs[0] == [
        "WARNING wordbits.pipeline: comma inside aligned surface, 1 alignments "
        "nulled, first for ORG_SP_DE_EN_030-21:003",
        "WARNING wordbits.pipeline: comma inside aligned surface, 2 alignments "
        "nulled, first for SI_DE_EN_030-21:004"]
