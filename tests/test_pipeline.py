"""Corpus pipeline on the worked example: one failure policy for every
adapter role, and the segment aggregates."""

import copy
import gzip
import logging
import math
import random
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from test_pinned_bytes import _MODES, _write_corpus
from wordbits import pipeline
from wordbits.adapters import AdapterError, MockCausalLM
from wordbits.cli import _config_from_args, build_parser
from wordbits.config import RunConfig
from wordbits.ids import ItemId
from wordbits.records import SegmentPairRecord, SegmentRecord, WordRow
from wordbits.tables import read_table, write_table

SRP_COLUMNS = ("srp_base_gpt2", "srp_ft_gpt2", "srp_base_mt", "srp_ft_mt")


class Raising:
    """Forwards to an adapter, except that one method raises."""

    def __init__(self, inner, method):
        self.inner = inner
        self.method = method
        self.name = inner.name

    def __getattr__(self, attr):
        if attr != self.method:
            return getattr(self.inner, attr)

        def fail(*args):
            raise AdapterError(f"injected {attr} failure")
        return fail


class Recording:
    """Forwards to an adapter and records each call as (method, args)."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls
        self.name = inner.name

    def __getattr__(self, attr):
        method = getattr(self.inner, attr)

        def call(*args):
            self.calls.append((attr, args))
            return method(*args)
        return call


class Rewriting:
    """Forwards to an adapter, except that one method's answers pass through
    rewrite(answer, *args)."""

    def __init__(self, inner, method, rewrite):
        self.inner = inner
        self.method = method
        self.rewrite = rewrite
        self.name = inner.name

    def __getattr__(self, attr):
        method = getattr(self.inner, attr)
        if attr != self.method:
            return method

        def call(*args):
            return self.rewrite(method(*args), *args)
        return call


@pytest.fixture(scope="module")
def example_segments(example_input_tsv):
    cfg = RunConfig(lpair="de-en", mode="sp")
    return pipeline.normalize_rows(pipeline.read_input_tsv(example_input_tsv), cfg)


def _annotate(segments, replay_files, faults=None):
    cfg = RunConfig(lpair="de-en", mode="sp", workers=1,
                    **{f"replay_{role}": path for role, path in replay_files.items()})
    adapters = pipeline.adapters_from_config(cfg)
    for role, method in (faults or {}).items():
        setattr(adapters, role, Raising(getattr(adapters, role), method))
    return pipeline.annotate_corpus(segments, cfg, adapters)


def _surprisal(rows):
    return [(str(r.word_id),) + tuple(getattr(r, c) for c in SRP_COLUMNS)
            for r in rows]


def test_roles_declare_every_adapter_set_field():
    assert list(pipeline.ROLES) == list(pipeline.AdapterSet.__dataclass_fields__)
    assert pipeline.AdapterSet() == pipeline.AdapterSet(**dict.fromkeys(pipeline.ROLES))
    for role, spec in pipeline.ROLES.items():
        assert hasattr(RunConfig(), f"replay_{role}")
        assert (spec.column is None) == (spec.kind in ("encoder", "parser"))


def test_roles_name_record_fields():
    """Each scoring role names a vertical column, and record fields of the
    long (LM) or wide (MT) format; a source and a target LM of one variant
    fill the same fields, of their own side's long record."""
    record = {"causal_lm": SegmentRecord, "mt": SegmentPairRecord}
    for role, spec in pipeline.ROLES.items():
        if spec.column is None:
            assert spec[3:] == (None, None, None), role
            continue
        assert spec.column in WordRow.__dataclass_fields__
        names = [spec.avs, spec.avs_subw] + ([spec.bleu] if spec.kind == "mt" else [])
        assert set(names) <= set(record[spec.kind].__dataclass_fields__), role
        assert (spec.bleu is None) == (spec.kind == "causal_lm")
    assert pipeline.ROLES["lm_base"][2:] == pipeline.ROLES["src_lm_base"][2:]
    assert pipeline.ROLES["lm_ft"][2:] == pipeline.ROLES["src_lm_ft"][2:]


def _body(path):
    """A table's lines below its "#" provenance lines."""
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return [line for line in f if not line.startswith("#")]


@pytest.mark.parametrize("mode", sorted(_MODES) + ["replay"])
def test_read_back_path_gives_the_annotate_stage_bodies(mode, tmp_path, replay_files,
                                                        example_input_tsv):
    """annotate_corpus, then the vertical written and read back with
    read_table and the sidecar round-tripped through write_jsonl and
    read_jsonl, then aggregate_rows (the path the benchmark op times) give
    the long and wide bodies that annotate_stage writes, from rows and
    sidecar records in either order of segments."""
    if mode == "replay":
        flags = ["--mode", "sp", "--direction", "de-en"]
        tsv = example_input_tsv
    else:
        flags, src_vocab, tgt_vocab = _MODES[mode]
        tsv = tmp_path / "input.tsv"
        _write_corpus(tsv, src_vocab, tgt_vocab, spoken=flags[1] == "sp", seed=3)
    out = tmp_path / "out"
    cfg = _config_from_args(build_parser().parse_args(
        ["annotate", "--input", str(tsv), "--output-dir", str(out)] + flags))
    if mode == "replay":
        cfg = replace(cfg, **{f"replay_{role}": path for role, path in replay_files.items()})
    [clean] = pipeline.normalize_stage(cfg)
    cfg = replace(cfg, input=clean)
    adapters = pipeline.adapters_from_config(cfg, mock_fallback=mode != "replay")
    pipeline.annotate_stage(cfg, adapters)

    _meta, segs = pipeline.read_jsonl(clean)
    rows, sidecar = pipeline.annotate_corpus(segs, cfg, adapters)
    write_table(rows, "vertical", tmp_path / "vertical.tsv.gz")
    pipeline.write_jsonl(tmp_path / "sidecar.jsonl.gz", sidecar, meta={"command": "test"})
    rows = read_table(tmp_path / "vertical.tsv.gz", "vertical")
    _meta, sidecar = pipeline.read_jsonl(tmp_path / "sidecar.jsonl.gz")
    assert _body(tmp_path / "vertical.tsv.gz") == _body(out / "vertical.tsv.gz")
    # segments last to first, each segment's rows in their order
    backwards = sorted(rows, key=lambda r: (r.doc_id, r.seg_id), reverse=True)
    for order, (in_rows, in_sidecar) in (("read", (rows, sidecar)),
                                         ("backwards", (backwards, sidecar[::-1]))):
        longs, wides = pipeline.aggregate_rows(in_rows, in_sidecar, cfg)
        for fmt, records in (("long", longs), ("wide", wides)):
            write_table(records, fmt, tmp_path / f"{fmt}.tsv.gz")
            got, want = _body(tmp_path / f"{fmt}.tsv.gz"), _body(out / f"{fmt}.tsv.gz")
            if order == "backwards":
                got, want = sorted(got), sorted(want)
            assert got == want, (fmt, order)


def test_encoder_failure_nulls_alignments_keeps_rows(example_segments,
                                                      replay_files, caplog):
    rows, sidecar = _annotate(example_segments, replay_files)
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        got, got_sidecar = _annotate(example_segments, replay_files,
                                     {"encoder": "embed"})
    assert len(got) == len(rows)
    assert _surprisal(got) == _surprisal(rows)
    assert any(r.srp_base_mt is not None for r in got)
    assert any(r.aligned_word for r in rows)
    assert all(r.aligned_word is None and r.aligned_word_id is None for r in got)
    assert got_sidecar == sidecar
    assert "alignments nulled" in caplog.text


@pytest.mark.parametrize("role, bleu", [("mt_base", "base_bleu"),
                                        ("mt_ft", "ft_bleu")])
def test_mt_argmax_failure_nulls_bleu_keeps_rows(example_segments, replay_files,
                                                 caplog, role, bleu):
    rows, sidecar = _annotate(example_segments, replay_files)
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        got, got_sidecar = _annotate(example_segments, replay_files,
                                     {role: "predict_argmax"})
    assert len(got) == len(rows)
    assert _surprisal(got) == _surprisal(rows)
    assert any(r.srp_base_mt is not None for r in got)
    pair, got_pair = sidecar[-1], got_sidecar[-1]
    assert pair[bleu] == 100.0
    assert got_pair[bleu] is None
    assert {**got_pair, bleu: pair[bleu]} == pair
    assert [r.aligned_word for r in got] == [r.aligned_word for r in rows]
    assert "pseudo-BLEU nulled" in caplog.text


def test_empty_source_leaves_mt_subword_mean_null(tmp_path):
    p = tmp_path / "input.tsv"
    p.write_text(
        "doc_id\tseg_id\tsrc_speaker_id\ttgt_speaker_id\tsrc_raw\ttgt_raw\n"
        "1\t1\tfDE1\tfEN3\t\tthree short words here\n"
        "1\t2\tfDE1\tfEN3\tdrei kurze Wörter\tthree short words here\n",
        encoding="utf-8")
    cfg = RunConfig(lpair="de-en", mode="sp", workers=1)
    segments = pipeline.normalize_rows(pipeline.read_input_tsv(str(p)), cfg)
    adapters = pipeline.adapters_from_config(cfg, mock_fallback=True)
    calls = []
    adapters.mt_base = Recording(adapters.mt_base, calls)
    adapters.mt_ft = Recording(adapters.mt_ft, calls)
    rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    # the segment with an empty source makes no MT call
    pair = ("Drei kurze Wörter", "Three short words here")
    assert calls == 2 * [("score", pair), ("predict_argmax", pair)]
    empty, full = [r for r in sidecar if r["side"] == "pair"]
    tgt = [r for r in rows if r.lang == "EN"]
    for role in ("mt_base", "mt_ft"):
        spec = pipeline.ROLES[role]
        assert empty[spec.avs_subw] is None and empty[spec.bleu] is None
        assert full[spec.avs_subw] is not None and full[spec.bleu] is not None
        assert [getattr(r, spec.column) is None for r in tgt] == \
            [r.seg_id == tgt[0].seg_id for r in tgt]
    # the target LM means do not depend on the source side
    tgt_sides = [r for r in sidecar if r["side"] == "tgt"]
    assert tgt_sides[0]["base_gpt_avs_subw"] == tgt_sides[1]["base_gpt_avs_subw"]


def _row(k, bits, pos=None):
    return WordRow(word_id=ItemId("SI", "SP", "DE", "EN", "001", "01", f"{k:03d}",
                                  explicit_mode=False),
                   token="euh" if pos == "FP" else f"w{k}", pos=pos,
                   srp_base_gpt2=bits, doc_id="001", seg_id="01", lpair="de-en",
                   lang="EN", mode="sp", ttype="SI")


def test_aggregate_rows_token_mean_skips_null_word_bits():
    rows = [_row(1, 2.0), _row(2, None), _row(3, None, pos="FP"), _row(4, 4.0)]
    sidecar = [{"doc_id": "001", "seg_id": "01", "side": "tgt",
                "base_gpt_avs_subw": 2.0}]
    longs, _wides = pipeline.aggregate_rows(rows, sidecar, RunConfig())
    assert longs[0].base_gpt_avs == 3.0
    assert longs[0].base_gpt_avs_subw == 2.0
    assert longs[0].wc_tok == 3

    sidecar = [{"doc_id": "001", "seg_id": "01", "side": "tgt",
                "base_gpt_avs_subw": None}]
    longs, _wides = pipeline.aggregate_rows([_row(1, None)], sidecar, RunConfig())
    assert longs[0].base_gpt_avs is None
    assert longs[0].base_gpt_avs_subw is None


def test_word_map_from_spans_matches_linear_scan():
    rng = random.Random(0)
    for _ in range(200):
        spans, pos = {}, 0
        for idx in range(rng.randint(0, 8)):
            if rng.random() < 0.2:
                continue  # an FP or an unplaced word has no span
            pos += rng.randint(0, 2)
            length = rng.randint(0, 5)  # zero-length spans included
            spans[idx] = (pos, pos + length)
            pos += length
        emb = [("x", (start, start + 1), None) for start in range(pos + 3)]
        want = {k: next((idx for idx, (lo, hi) in spans.items()
                         if lo <= start < hi), None)
                for k, (_, (start, _), _) in enumerate(emb)}
        assert pipeline._word_map_from_spans(spans, emb) == want


class _OneHotEncoder:
    """One subword per whitespace word; word k of each side points only at
    word k of the other."""

    name = "one-hot"

    def embed(self, text, lang):
        out, start = [], 0
        words = text.split()
        for k, w in enumerate(words):
            out.append((w, (start, start + len(w)), [10.0 * (i == k) for i in range(len(words))]))
            start += len(w) + 1
        return out


def _aligned_side(ttype, words):
    spans, start = {}, 0
    for k, w in enumerate(words):
        spans[k] = (start, start + len(w))
        start += len(w) + 1
    rows = [WordRow(ItemId(ttype, "SP", "DE", "EN", "001", "01", f"{k + 1:03d}"), token=w)
            for k, w in enumerate(words)]
    return type("Side", (), {"text": " ".join(words), "spans": spans, "surface": rows})


def test_comma_nulled_alignments_warn_once_per_side(caplog):
    src = _aligned_side("ORG", ["a,b", "c,d", "e"])
    tgt = _aligned_side("SI", ["x,1", "y", "z"])
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        pipeline._align_segment(src, tgt, _OneHotEncoder(), RunConfig(lpair="de-en"))
    assert [r.aligned_word for r in src.surface] == [None, ["y"], ["z"]]
    assert [r.aligned_word_id for r in src.surface][1:] == [["SI_SP_DE_EN_001-01:002"],
                                                             ["SI_SP_DE_EN_001-01:003"]]
    assert [r.aligned_word for r in tgt.surface] == [None, None, ["e"]]
    assert tgt.surface[0].aligned_word_id is None and src.surface[0].aligned_word_id is None
    warned = [r.getMessage() for r in caplog.records if "comma" in r.getMessage()]
    assert warned == [
        "comma inside aligned surface, 1 alignments nulled, first for ORG_SP_DE_EN_001-01:001",
        "comma inside aligned surface, 2 alignments nulled, first for SI_SP_DE_EN_001-01:001",
    ]


def _mock_corpus(tmp_path):
    """Three documents of two spoken segments each, listed out of doc_id
    order, with mock adapters for every role."""
    lines = ["doc_id\tseg_id\tsrc_speaker_id\ttgt_speaker_id\tsrc_raw\ttgt_raw"]
    for doc in ("2", "1", "3"):
        for seg in ("1", "2"):
            lines.append(f"{doc}\t{seg}\tfDE1\tfEN3\twir gehen {doc} mal {seg}"
                         f"\tuh we go {doc} times {seg}")
    p = tmp_path / "input.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = RunConfig(lpair="de-en", mode="sp")
    segments = pipeline.normalize_rows(pipeline.read_input_tsv(str(p)), cfg)
    return segments, cfg, pipeline.adapters_from_config(cfg, mock_fallback=True)


def _hit(text):
    """Whether text is a side of _mock_corpus's document 2, segment 1."""
    return "2 mal 1" in text or "2 times 1" in text


def _triples(answer, *texts):
    return [tuple(sw)[:3] for sw in answer] if _hit(texts[-1]) else answer


def _broken_tree(answer, text, lang):
    return [[tok._replace(head=9) for tok in sent] for sent in answer] \
        if lang == "EN" and _hit(text) else answer


# _mock_corpus's document 2, segment 1, by language of its side
_HIT_IDS = {"DE": "ORG_SP_DE_EN_002-01", "EN": "SI_DE_EN_002-01"}

# role, method, rewrite of its answers in one segment, the languages of the
# sides whose rows it changes there (the warning names the first), and the
# vertical columns and sidecar (side, key) that role fills there
_UNREADABLE = {
    "encoder-no-source-subwords": (
        "encoder", "embed",
        lambda answer, text, lang: [] if lang == "DE" and _hit(text) else answer,
        ("DE", "EN"), ("aligned_word", "aligned_word_id"), ()),
    "encoder-widths-16-and-8": (
        "encoder", "embed",
        lambda answer, text, lang: [(s, span, np.ones(16 if lang == "DE" else 8))
                                    for s, span, _ in answer] if _hit(text) else answer,
        ("DE", "EN"), ("aligned_word", "aligned_word_id"), ()),
    "lm-3-tuples": ("lm_base", "score", _triples, ("EN",), ("srp_base_gpt2",),
                    (("tgt", "base_gpt_avs_subw"),)),
    "src-lm-3-tuples": ("src_lm_base", "score", _triples, ("DE",), ("srp_base_gpt2",),
                        (("src", "base_gpt_avs_subw"),)),
    "mt-3-tuples": ("mt_base", "score", _triples, ("EN",), ("srp_base_mt",),
                    (("pair", "base_mt_avs_subw"),)),
    "mt-argmax-2-tuples": ("mt_base", "predict_argmax", _triples, ("EN",), (),
                           (("pair", "base_bleu"),)),
    # token-only rows: the parse columns of every word row go
    "parser-broken-tree": ("parser", "annotate", _broken_tree, ("EN",),
                           ("id", "lemma", "pos", "head_id", "rel"), ()),
}


@pytest.mark.parametrize("case", list(_UNREADABLE))
def test_unreadable_output_nulls_only_its_role_in_its_segment(tmp_path, caplog, case):
    role, method, rewrite, langs, columns, keys = _UNREADABLE[case]
    segments, cfg, adapters = _mock_corpus(tmp_path)
    clean_rows, clean_sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    setattr(adapters, role, Rewriting(getattr(adapters, role), method, rewrite))
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    [warning] = caplog.records
    assert warning.name == "wordbits.adapters"
    assert warning.getMessage().startswith(
        f"adapter {getattr(adapters, role).name} failed on {_HIT_IDS[langs[0]]}, ")
    hit = ("002", "01")
    want_rows = copy.deepcopy(clean_rows)
    nulled = [r for r in want_rows
              if (r.doc_id, r.seg_id) == hit and r.lang in langs and not r.is_fp]
    for column in columns:
        assert any(getattr(r, column) is not None for r in nulled)
        for r in nulled:
            setattr(r, column, None)
    assert rows == want_rows
    want_sidecar = copy.deepcopy(clean_sidecar)
    for rec in want_sidecar:
        for side, key in keys:
            if (rec["doc_id"], rec["seg_id"], rec["side"]) == hit + (side,):
                assert rec[key] is not None
                rec[key] = None
    assert sidecar == want_sidecar


@pytest.mark.parametrize("bad, error", [("x", "invalid literal for int()"),
                                        ("2-1", "token range 2-1 is empty")])
def test_unreadable_parser_id_keeps_token_only_rows(tmp_path, caplog, bad, error):
    segments, cfg, adapters = _mock_corpus(tmp_path)
    parser = adapters.parser

    def bad_id(answer, text, lang):
        if _hit(text) and lang == "EN":
            answer[0][0] = answer[0][0]._replace(id=bad)
        return answer

    def failing(answer, text, lang):
        if _hit(text) and lang == "EN":
            raise AdapterError("injected annotate failure")
        return answer

    adapters.parser = Rewriting(parser, "annotate", failing)
    want = pipeline.annotate_corpus(segments, cfg, adapters)
    adapters.parser = Rewriting(parser, "annotate", bad_id)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        got = pipeline.annotate_corpus(segments, cfg, adapters)
    assert got == want
    [warning] = caplog.records
    assert warning.getMessage().startswith(
        f"adapter mock-parser failed on {_HIT_IDS['EN']}, keeping token-only rows: ")
    assert error in warning.getMessage()


def test_clean_run_fills_every_bleu_and_subword_mean(tmp_path, caplog):
    """A bug in the code a failure guard wraps shows up as nulls: a clean run
    logs no failure and leaves none of these values null."""
    segments, cfg, adapters = _mock_corpus(tmp_path)
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        _rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    assert [r.getMessage() for r in caplog.records if r.name == "wordbits.adapters"] == []
    lm = ["base_gpt_avs_subw", "ft_gpt_avs_subw"]
    keys = {"src": lm, "tgt": lm,
            "pair": ["base_mt_avs_subw", "ft_mt_avs_subw", "base_bleu", "ft_bleu"]}
    assert len(sidecar) == 18
    for rec in sidecar:
        assert None not in [rec[k] for k in keys[rec["side"]]], rec


class _ThreadRecorder:
    """Forwards to an adapter and notes the thread of every method call."""

    def __init__(self, inner, threads):
        self.inner = inner
        self.threads = threads

    def __getattr__(self, attr):
        value = getattr(self.inner, attr)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            self.threads.add(threading.get_ident())
            return value(*args, **kwargs)
        return call


def test_every_adapter_call_runs_on_the_calling_thread(tmp_path):
    segments, cfg, adapters = _mock_corpus(tmp_path)
    threads = set()
    for role in pipeline.ROLES:
        adapter = getattr(adapters, role)
        setattr(adapters, role, _ThreadRecorder(adapter, threads))
    rows, _sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    assert len({r.doc_id for r in rows}) == 3
    assert threads == {threading.get_ident()}


def test_parser_failure_warnings_follow_doc_and_segment_order(tmp_path, caplog):
    segments, cfg, adapters = _mock_corpus(tmp_path)
    adapters.parser = Raising(adapters.parser, "annotate")
    logged = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wordbits"):
            pipeline.annotate_corpus(segments, cfg, adapters)
        logged.append([r.getMessage() for r in caplog.records])
    assert logged[0] == logged[1]
    in_order = sorted(segments, key=lambda seg: seg["doc_id"])  # stable
    ids = [f"{head}_{seg['doc_id']:0>3}-{seg['seg_id']:0>2}"
           for seg in in_order for head in ("ORG_SP_DE_EN", "SI_DE_EN")]
    assert len(logged[0]) == len(ids) == 12
    for message, seg_id in zip(logged[0], ids):
        assert message == (f"adapter mock-parser failed on {seg_id}, keeping token-only "
                           "rows: injected annotate failure")


def test_bad_fp_position_fails_only_its_side(tmp_path, caplog):
    segments, cfg, adapters = _mock_corpus(tmp_path)
    clean_rows, _ = pipeline.annotate_corpus(segments, cfg, adapters)
    bad = copy.deepcopy(segments)
    bad[0]["sides"]["src"]["fp_positions"] = [5]  # doc 2, "wir gehen 2 mal 1"
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        rows, _ = pipeline.annotate_corpus(bad, cfg, adapters)
    [warning] = caplog.records
    assert "ORG_SP_DE_EN_002-01: fp positions [5]" in warning.getMessage()
    assert [r for r in rows if r.doc_id != "002"] == \
        [r for r in clean_rows if r.doc_id != "002"]
    assert [r for r in rows if r.doc_id == "002"] == \
        [r for r in clean_rows if r.doc_id == "002"]


def _wordy_corpus():
    """30 spoken segments over two small vocabularies, so that words repeat
    within a side and one word links to several peers; mock adapters."""
    rng = random.Random(0)
    en = "we go the house is very well and so it is what they said about all".split()
    de = "wir gehen das Haus ist sehr gut und so es war was sie sagten über".split()
    rows = [{"doc_id": str(doc), "seg_id": str(seg), "src_speaker_id": "fDE1",
             "tgt_speaker_id": "fEN3", "src_raw": " ".join(rng.choices(de, k=14)),
             "tgt_raw": "euh " + " ".join(rng.choices(en, k=14) + ["it's"])}
            for doc in (1, 2, 3) for seg in range(1, 11)]
    cfg = RunConfig(lpair="de-en", mode="sp")
    return (pipeline.normalize_rows(rows, cfg), cfg,
            pipeline.adapters_from_config(cfg, mock_fallback=True))


def test_rows_share_their_word_id_strings():
    segments, cfg, adapters = _wordy_corpus()
    rows, _ = pipeline.annotate_corpus(segments, cfg, adapters)
    first = {}
    for row in rows:  # FP, surface and expansion rows alike
        word = row.word_id.word_id
        assert first.setdefault(word, word) is word
    assert any(r.is_fp for r in rows) and any(r.is_expansion for r in rows)
    assert sorted(first) == [f"{k:03d}" for k in range(1, 17)]  # "euh", 14 words, "it's"


def test_aligned_ids_share_one_rendered_string_per_linked_row():
    segments, cfg, adapters = _wordy_corpus()
    rows, _ = pipeline.annotate_corpus(segments, cfg, adapters)
    first = {}
    entries = 0
    for row in rows:
        for rendered in row.aligned_word_id or ():
            assert first.setdefault(rendered, rendered) is rendered
            entries += 1
    # some row is linked from several peers
    assert entries > len(first) > 0


def test_annotated_rows_hold_under_910_bytes_each():
    # about 860 B a row; a word-id string per row and an aligned id string
    # per link, as the rows used to hold, make it about 960 B
    segments, cfg, adapters = _wordy_corpus()
    pipeline.annotate_corpus(segments[:2], cfg, adapters)  # warm any caches
    tracemalloc.start()
    try:
        rows, _sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 960
    assert held / len(rows) < 910


def test_failed_jsonl_write_leaves_destination_unchanged(tmp_path):
    for name in ("clean.jsonl.gz", "plain.jsonl"):
        p = tmp_path / name
        pipeline.write_jsonl(p, [{"a": 1}, {"a": 2}], meta={"command": "normalize"})
        before = p.read_bytes()
        with pytest.raises(TypeError):
            pipeline.write_jsonl(p, [{"a": 3}, {"b": object()}])
        assert p.read_bytes() == before
        assert pipeline.read_jsonl(p) == ({"command": "normalize"}, [{"a": 1}, {"a": 2}])
    assert sorted(f.name for f in tmp_path.iterdir()) == ["clean.jsonl.gz", "plain.jsonl"]


def test_unset_parser_role_is_no_failure(example_segments, caplog):
    cfg = RunConfig(lpair="de-en", mode="sp")
    adapters = pipeline.adapters_from_config(cfg, mock_fallback=True)
    adapters.parser = Raising(adapters.parser, "annotate")
    want = pipeline.annotate_corpus(example_segments, cfg, adapters)
    adapters.parser = None
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        got = pipeline.annotate_corpus(example_segments, cfg, adapters)
    assert "parser" not in caplog.text
    assert got == want


def test_no_adapter_call_for_an_empty_side():
    cfg = RunConfig(lpair="de-en", mode="sp")
    segments = pipeline.normalize_rows([
        {"doc_id": "1", "seg_id": "1", "src_raw": "", "tgt_raw": "three short words here"},
        {"doc_id": "1", "seg_id": "2", "src_raw": "wir haben das", "tgt_raw": ""},
        {"doc_id": "1", "seg_id": "3", "src_raw": "wir euh haben", "tgt_raw": "euh hm"},
        {"doc_id": "1", "seg_id": "4", "src_raw": "wir haben", "tgt_raw": "we have"},
    ], cfg)
    plain = pipeline.adapters_from_config(cfg, mock_fallback=True)
    want = pipeline.annotate_corpus(segments, cfg, plain)
    calls = []
    recorded = pipeline.AdapterSet(**{role: Recording(getattr(plain, role), calls)
                                      for role in pipeline.ROLES})
    rows, sidecar = pipeline.annotate_corpus(segments, cfg, recorded)
    assert (rows, sidecar) == want
    # every role still scores the non-empty sides; no call gets an empty text
    assert {method for method, _ in calls} == {"score", "predict_argmax", "embed",
                                                "annotate"}
    assert [(m, args) for m, args in calls if "" in args] == []
    means = {(int(r["seg_id"]), r["side"]): r for r in sidecar}
    assert means[1, "src"]["base_gpt_avs_subw"] is None
    assert means[1, "pair"]["base_mt_avs_subw"] is None
    assert means[2, "tgt"]["ft_gpt_avs_subw"] is None
    assert means[2, "pair"]["ft_mt_avs_subw"] is None
    assert means[3, "tgt"]["base_gpt_avs_subw"] is None
    assert means[4, "pair"]["base_mt_avs_subw"] is not None


def test_each_scoring_role_scores_a_side_once():
    cfg = RunConfig(lpair="de-en", mode="sp")
    segments = pipeline.normalize_rows([
        {"doc_id": "1", "seg_id": "1", "src_raw": "", "tgt_raw": "three short words here"},
        {"doc_id": "1", "seg_id": "2", "src_raw": "wir haben das", "tgt_raw": ""},
        {"doc_id": "1", "seg_id": "3", "src_raw": "wir euh haben", "tgt_raw": "euh hm"},
        {"doc_id": "1", "seg_id": "4", "src_raw": "wir haben", "tgt_raw": "we have"},
    ], cfg)
    plain = pipeline.adapters_from_config(cfg, mock_fallback=True)
    calls = {role: [] for role in pipeline.ROLES}
    recorded = pipeline.AdapterSet(**{role: Recording(getattr(plain, role), calls[role])
                                      for role in pipeline.ROLES})
    pipeline.annotate_corpus(segments, cfg, recorded)
    scores = {role: [args for method, args in calls[role] if method == "score"]
              for role in pipeline.ROLES}
    # words to score: targets of segments 1 and 4 (segment 3 has only
    # fillers), sources of segments 2-4; MT needs both sides: segment 4
    assert {role: len(args) for role, args in scores.items()} == {
        "lm_base": 2, "lm_ft": 2, "src_lm_base": 3, "src_lm_ft": 3,
        "mt_base": 1, "mt_ft": 1, "encoder": 0, "parser": 0}
    assert scores["lm_base"] == [("Three short words here",), ("We have",)]
    assert scores["mt_base"] == [("Wir haben", "We have")]


def _one_segment(tgt_raw, **cfg_keys):
    """One spoken segment with mock adapters for every role."""
    cfg = RunConfig(lpair="de-en", mode="sp", **cfg_keys)
    segments = pipeline.normalize_rows(
        [{"doc_id": "1", "seg_id": "1", "src_raw": "wir haben das", "tgt_raw": tgt_raw}],
        cfg)
    return segments, cfg, pipeline.adapters_from_config(cfg, mock_fallback=True)


def _tgt_lm(rows, sidecar, column, key):
    """Target-side word bits of one LM column and the sidecar's mean."""
    [tgt] = [r for r in sidecar if r["side"] == "tgt"]
    return [getattr(r, column) for r in rows if r.lang == "EN" and not r.is_fp], tgt[key]


class _Renaming:
    """Forwards score to an LM, renaming one piece of some responses."""

    def __init__(self, inner, rename):
        self.inner = inner
        self.rename = rename  # (text, pieces) -> index to rename, or None
        self.name = inner.name

    def score(self, text):
        pieces = list(self.inner.score(text))
        k = self.rename(text, pieces)
        if k is not None:
            pieces[k] = pieces[k]._replace(surface=pieces[k].surface + "x")
        return pieces


def test_window_subword_mean_conserves_the_word_bits():
    segments, cfg, adapters = _one_segment(" ".join(["interpretation"] * 60),
                                           scoring="window")
    calls = []
    adapters.lm_base = Recording(adapters.lm_base, calls)
    rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    # the whole segment is scored first, then each 64-subword window slice
    n_subwords = len(adapters.lm_base.inner.score(*calls[0][1]))
    assert n_subwords == 240 and len(calls) == 1 + 240 - 64
    for role in ("lm_base", "lm_ft"):
        spec = pipeline.ROLES[role]
        bits, mean = _tgt_lm(rows, sidecar, spec.column, spec.avs_subw)
        assert len(bits) == 60 and None not in bits
        assert mean * n_subwords == pytest.approx(sum(bits), rel=1e-12)


def test_window_drift_nulls_the_subword_mean():
    segments, cfg, adapters = _one_segment(" ".join(["interpretation"] * 30),
                                           scoring="window", window=8)
    text = " ".join(["Interpretation"] + ["interpretation"] * 29)
    adapters.lm_base = _Renaming(adapters.lm_base,
                                 lambda t, pieces: None if t == text else len(pieces) - 1)
    rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    bits, mean = _tgt_lm(rows, sidecar, "srp_base_gpt2", "base_gpt_avs_subw")
    assert bits == [None] * 30 and mean is None
    bits, mean = _tgt_lm(rows, sidecar, "srp_ft_gpt2", "ft_gpt_avs_subw")
    assert None not in bits and mean is not None


def test_partly_realigned_bounded_job_keeps_its_subword_mean():
    segments, cfg, adapters = _one_segment("we have seen the procedure today")
    inner = adapters.lm_base
    adapters.lm_base = _Renaming(inner, lambda t, pieces: 3)
    rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    bits, mean = _tgt_lm(rows, sidecar, "srp_base_gpt2", "base_gpt_avs_subw")
    assert bits[0] is not None and bits[-1] is None
    stream = [max(0.0, -sw.logprob2) for sw in inner.score("We have seen the procedure today")]
    assert mean == pytest.approx(sum(stream) / len(stream), rel=1e-12)


def test_raising_lm_nulls_word_bits_and_mean_with_one_warning(caplog):
    segments, cfg, adapters = _one_segment("we have seen the procedure today")
    adapters.lm_base = Raising(adapters.lm_base, "score")
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    bits, mean = _tgt_lm(rows, sidecar, "srp_base_gpt2", "base_gpt_avs_subw")
    assert bits == [None] * 6 and mean is None
    [warning] = caplog.records
    assert warning.getMessage() == (f"adapter {adapters.lm_base.name} failed on "
                                    "SI_DE_EN_001-01, segment retained with null bits: "
                                    "injected score failure")
    bits, mean = _tgt_lm(rows, sidecar, "srp_ft_gpt2", "ft_gpt_avs_subw")
    assert None not in bits and mean is not None


def test_lm_answering_nan_nulls_word_bits_and_mean_with_one_warning(caplog):
    segments, cfg, adapters = _one_segment("we have seen the procedure today")
    adapters.lm_base = Rewriting(adapters.lm_base, "score", lambda pieces, text: [
        p._replace(logprob2=math.nan) if k == 2 else p for k, p in enumerate(pieces)])
    with caplog.at_level(logging.WARNING, logger="wordbits"):
        rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    bits, mean = _tgt_lm(rows, sidecar, "srp_base_gpt2", "base_gpt_avs_subw")
    assert bits == [None] * 6 and mean is None
    [warning] = caplog.records
    assert warning.getMessage() == (f"adapter {adapters.lm_base.name} failed on "
                                    "SI_DE_EN_001-01, segment retained with null bits: "
                                    "log probabilities not finite: [nan]")
    bits, mean = _tgt_lm(rows, sidecar, "srp_ft_gpt2", "ft_gpt_avs_subw")
    assert None not in bits and mean is not None


@pytest.mark.parametrize("name", ["bad.jsonl", "bad.jsonl.gz"])
def test_read_jsonl_names_the_line_that_is_not_json(tmp_path, name):
    p = tmp_path / name
    pipeline.write_jsonl(p, [{"a": 1}], meta={"command": "normalize"})
    with pipeline.open_text(p, "r") as f:
        lines = f.read()
    with pipeline.open_text(p, "w") as f:
        f.write(lines + "not json\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:3: not JSON")):
        pipeline.read_jsonl(p)


@pytest.mark.parametrize("name", ["clean.jsonl", "clean.jsonl.gz"])
def test_read_jsonl_skips_blank_lines(tmp_path, name):
    p = tmp_path / name
    with pipeline.open_text(p, "w") as f:
        f.write('{"meta": {"command": "normalize"}}\n{"a": 1}\n\n  \n{"a": 2}\n\n')
    assert pipeline.read_jsonl(p) == ({"command": "normalize"}, [{"a": 1}, {"a": 2}])


@pytest.mark.parametrize("name", ["input.tsv", "input.tsv.gz"])
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, name):
    text = ("doc_id\tseg_id\tsrc_speaker_id\ttgt_speaker_id\tsrc_raw\ttgt_raw\n"
            "1\t1\tfDE1\tfEN3\twir gehen\twe go\n")
    rows = []
    for k, bom in enumerate(("", "\ufeff")):
        p = tmp_path / f"{k}-{name}"
        with pipeline.open_text(p, "w") as f:
            f.write(bom + text)
        rows.append(pipeline.read_input_tsv(p))
    assert rows[0] == rows[1]
    assert rows[0][0]["doc_id"] == "1"


def test_read_jsonl_meta_must_be_a_dict(tmp_path):
    p = tmp_path / "clean.jsonl"
    p.write_text('{"meta": "x"}\n{"a": 1}\n', encoding="utf-8")
    assert pipeline.read_jsonl(p) == (None, [{"meta": "x"}, {"a": 1}])
    p.write_text('{"meta": {"command": "normalize"}}\n{"meta": {}}\n', encoding="utf-8")
    assert pipeline.read_jsonl(p) == ({"command": "normalize"}, [{"meta": {}}])


def _stage_corpus(tmp_path):
    """_mock_corpus's input through the normalize stage; returns the config
    the annotate stage reads it with."""
    _mock_corpus(tmp_path)
    cfg = RunConfig(input=str(tmp_path / "input.tsv"), output_dir=str(tmp_path),
                    lpair="de-en", mode="sp")
    [clean] = pipeline.normalize_stage(cfg)
    return replace(cfg, input=clean)


class _Nameless:
    """An adapter without a name whose every call raises."""

    def score(self, text):
        raise AdapterError("down")

    def annotate(self, text, lang):
        raise AdapterError("down")


class _Overscoring:
    """An LM without a name that scores a word past the end of each text."""

    def score(self, text):
        return MockCausalLM().score(text + " tail")


def test_nameless_adapters_are_named_by_their_class(tmp_path, caplog):
    """Warnings and provenance name an adapter without a name by its class,
    not by its repr, whose address would change from run to run."""
    cfg = _stage_corpus(tmp_path)
    adapters = pipeline.AdapterSet(lm_base=_Nameless(), lm_ft=_Overscoring(),
                                   parser=_Nameless())
    runs = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wordbits"):
            vertical, _long, _wide = pipeline.annotate_stage(cfg, adapters)
        runs.append([r.getMessage() for r in caplog.records])
    assert runs[0] == runs[1]
    messages = set(runs[0])
    assert ("adapter _Nameless failed on SI_DE_EN_001-01, segment retained with null "
            "bits: down") in messages
    assert [m for m in runs[0] if "past the last word" in m] == [
        f"adapter _Overscoring scored subwords past the last word of "
        f"SI_DE_EN_00{doc}-0{seg}; their bits are not kept"
        for doc in (1, 2, 3) for seg in (1, 2)]
    assert ("adapter _Nameless failed on ORG_SP_DE_EN_001-01, keeping token-only rows: "
            "down") in messages
    assert not any(" at 0x" in m for m in messages)
    with gzip.open(vertical, "rt", encoding="utf-8") as f:
        header = [ln.rstrip("\n") for ln in f if ln.startswith("# adapter_")]
    assert header == ["# adapter_lm_base=_Nameless", "# adapter_lm_ft=_Overscoring",
                      "# adapter_parser=_Nameless"]
