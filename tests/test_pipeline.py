"""Corpus pipeline on the worked example: one failure policy for every
adapter role, and the segment aggregates."""

import copy
import logging
import random
import threading

import pytest

from wordbits import pipeline
from wordbits.adapters import AdapterError
from wordbits.config import RunConfig
from wordbits.ids import ItemId
from wordbits.records import WordRow

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
    rows, sidecar = pipeline.annotate_corpus(segments, cfg, adapters)
    empty, full = [r for r in sidecar if r["side"] == "pair"]
    tgt = [r for r in rows if r.lang == "EN"]
    for role in ("mt_base", "mt_ft"):
        spec = pipeline.ROLES[role]
        assert empty[spec.key] is None
        assert full[spec.key] is not None
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

    longs, _wides = pipeline.aggregate_rows([_row(1, None)], None, RunConfig())
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
    texts = [seg["sides"][side]["clean"] for seg in in_order for side in ("src", "tgt")]
    assert len(logged[0]) == len(texts) == 12
    for message, text in zip(logged[0], texts):
        assert message.startswith(f"parser mock-parser failed on {text!r}")


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


def test_failed_jsonl_write_leaves_destination_unchanged(tmp_path):
    p = tmp_path / "clean.jsonl.gz"
    pipeline.write_jsonl(p, [{"a": 1}], meta={"command": "normalize"})
    before = p.read_bytes()
    with pytest.raises(TypeError):
        pipeline.write_jsonl(p, [{"a": 2}, {"b": object()}])
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["clean.jsonl.gz"]
