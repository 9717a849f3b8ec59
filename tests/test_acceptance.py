"""Acceptance suite.

One test per release criterion, at the stated tolerances.  Everything runs on
mock or replay adapters except the final corpus check, which needs the
released data (set WORDBITS_CORPUS_DIR to enable it).
"""

import io
import math
import os
import random
import time

import numpy as np
import pytest

from conftest import SRC_TEXT, TGT_CLEAN, TGT_FP_POSITIONS
from test_surprisal import Seg, _units
from test_tables import _random_pair_record, _random_segment_record, _random_word_row
from test_transcripts import GOLDEN_CLEAN, GOLDEN_RAW

from wordbits import align, build, fp, gam, pipeline
from wordbits.adapters import MockCausalLM, ReplayEncoder, ReplayMT
from wordbits.annotate import ReplayParser, annotate_segment
from wordbits.build import DocumentPair
from wordbits.ids import ItemId
from wordbits.records import ParallelSegment
from wordbits.surprisal import (
    build_units,
    pseudo_bleu,
    realign_cascade,
    score_segment_bounded,
    score_sliding_window,
    sentence_bleu_exp,
)
from wordbits.tables import read_table, write_table
from wordbits.transcripts import normalize_segment


def test_golden_transcript_clean_bytes():
    """Annotated reference fragment resolves to its clean version, fast."""
    t0 = time.monotonic()
    clean, fps, counts = normalize_segment(GOLDEN_RAW)
    elapsed = time.monotonic() - t0
    assert clean == GOLDEN_CLEAN  # byte-for-byte
    assert elapsed < 1.0
    assert counts.fillers == len(fps)


@pytest.mark.xfail(
    strict=True,
    reason="the documented filler count for this fragment is 5, but its own "
           "clean version contains six FP tokens; byte-exact output wins")
def test_golden_transcript_documented_filler_count():
    _clean, _fps, counts = normalize_segment(GOLDEN_RAW)
    assert counts.fillers == 5


def test_surprisal_conservation_randomized():
    """Word bits equal subword bits on 1000 mock segments; splits exact."""
    rng = random.Random(20250815)
    vocab = ["die", "Lage", "ist", "ernst", "aber", "nicht", "hoffnungslos",
             "heute", "99", "%", "Ausschuss", ",", ".", "!", "p.m.",
             "wirklich", "sehr", "gut", "20", "000"]
    lm = MockCausalLM(seed=8)
    t0 = time.monotonic()
    checked = 0
    for _ in range(1000):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 20))]
        subs = lm.score(" ".join(words))
        units = build_units(subs)
        out = realign_cascade(units, words)
        if any(w.recovery_rule == "failed" for w in out):
            continue
        assert sum(w.bits for w in out) == pytest.approx(
            sum(u.bits for u in units), abs=1e-9)
        checked += 1
    assert checked >= 800
    assert time.monotonic() - t0 < 10.0

    # the 0.75/0.25 partition is exact, not approximate
    head, close, stop = realign_cascade(_units(("ok).", 8.0)), ["ok", ")", "."])
    assert head.bits == 6.0
    assert close.bits == 1.0 and stop.bits == 1.0


def test_realignment_cascade_mismatch_examples():
    """The two documented tokenizer-vs-word mismatches get the right rules."""
    out = realign_cascade(_units(("Ã¼ber", 4.0), ("99", 1.0), ("%.", 8.0)),
                          ["über", "99", "%", "."])
    assert [w.recovery_rule for w in out] == \
        ["none", "none", "split_75_25", "split_75_25"]
    assert [w.bits for w in out] == [4.0, 1.0, 6.0, 2.0]

    out = realign_cascade(_units(("p.m", 4.0), (".", 2.0)), ["p.m."])
    assert [w.recovery_rule for w in out] == ["abbreviation"]
    assert out[0].bits == 6.0


def test_bounded_and_window_scoring_agree_below_window():
    """Segments at or under 64 subwords score identically in both modes."""
    lm = MockCausalLM(seed=3)
    rng = random.Random(64)
    vocab = ["eins", "zwei", "drei", "vier", "kurz", "lang", "gut",
             "heute", "leider", "."]
    for _ in range(40):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        job = Seg(" ".join(words), words)
        assert len(lm.score(job.text)) <= 64
        a = score_segment_bounded(job, lm)
        b = score_sliding_window(job, lm)
        assert [(w.bits, w.recovery_rule) for w in a] == \
            [(w.bits, w.recovery_rule) for w in b]


def _brute_force_mutual_softmax(S):
    n, m = len(S), len(S[0])
    out = {}
    for i in range(n):
        for j in range(m):
            a = math.exp(S[i][j]) / sum(math.exp(S[i][k]) for k in range(m))
            b = math.exp(S[i][j]) / sum(math.exp(S[k][j]) for k in range(n))
            out[(i, j)] = (a + b) / 2.0
    return out


def _span_word_map(spans, emb):
    intervals = sorted((lo, hi, idx) for idx, (lo, hi) in spans.items())
    mapping = {}
    for k, (_surface, (start, _end), _vec) in enumerate(emb):
        mapping[k] = next((idx for lo, hi, idx in intervals
                           if lo <= start < hi), None)
    return mapping


def test_alignment_oracle(replay_files):
    """Softmax arithmetic against hand computation; worked-example links."""
    for S in ([[1.0, 2.0], [3.0, 1.0]],
              [[0.2, 1.7, 0.4], [2.1, 0.3, 0.9], [0.5, 0.8, 1.9]]):
        n = len(S)
        src_emb = np.eye(n)
        tgt_emb = np.asarray(S).T
        pairs = align.subword_align(src_emb, tgt_emb, threshold=1e-9)
        want = _brute_force_mutual_softmax(S)
        got = {(i, j): m for i, j, m in pairs}
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)

    # one-to-many aggregation on the crafted replay: guten covers two words
    parser = ReplayParser(replay_files["parser"])
    encoder = ReplayEncoder(replay_files["encoder"])
    src = annotate_segment(SRC_TEXT, [], "DE",
                           ItemId("ORG", "SP", "DE", "EN", "030", "21"), parser)
    tgt = annotate_segment(TGT_CLEAN, TGT_FP_POSITIONS, "EN",
                           ItemId("SI", "SP", "DE", "EN", "030", "21",
                                  explicit_mode=False), parser)
    src_emb = encoder.embed(src.text, "DE")
    tgt_emb = encoder.embed(tgt.text, "EN")
    pairs = align.subword_align([e[2] for e in src_emb],
                                [e[2] for e in tgt_emb], 0.01)
    links, _ = align.aggregate_to_words(
        pairs, _span_word_map(src.spans, src_emb),
        _span_word_map(tgt.spans, tgt_emb), 0.01)

    src_tokens = [r.token for r in src.word_rows if not r.is_expansion]
    tgt_tokens = [r.token for r in tgt.word_rows if not r.is_expansion]
    by_src = {src_tokens[l.src_word_index]:
              [tgt_tokens[t] for t in l.tgt_word_indices] for l in links}
    assert by_src["guten"] == ["very", "well-intended"]
    assert by_src["Absichten"] == ["well-intended"]


@pytest.mark.parametrize("format,maker", [
    ("vertical", _random_word_row),
    ("long", _random_segment_record),
    ("wide", _random_pair_record),
])
def test_format_round_trip_1000_rows(format, maker):
    rng = random.Random(1000)
    rows = [maker(rng) for _ in range(1000)]
    buf = io.BytesIO()
    write_table(rows, format, buf)
    buf.seek(0)
    assert read_table(buf, format) == rows


def test_pseudo_bleu_identity_and_hand_value(replay_files):
    assert sentence_bleu_exp("a b c d".split(), "a b c d".split()) == 100.0
    got = sentence_bleu_exp("a b c d".split(), "a b x d".split())
    # independent arithmetic: p1=3/4, p2=1/3, zero-match orders smoothed
    # by doubling (p3=1/4, p4=1/4), no brevity penalty
    want = 100.0 * math.exp(
        (math.log(3 / 4) + math.log(1 / 3) + math.log(1 / 4) + math.log(1 / 4)) / 4)
    assert got == pytest.approx(want, abs=1e-6)
    # replayed argmax predictions echo the reference
    from conftest import TGT_TEXT
    mt = ReplayMT(replay_files["mt_base"])
    assert pseudo_bleu(SRC_TEXT, TGT_TEXT, mt) == 100.0


def test_logistic_recovery_and_concordance():
    """Known coefficients recovered within 0.15; C equals pairwise count."""
    t0 = time.monotonic()
    beta = (-3.0, 0.5, -0.1, 0.0, -0.35, 0.17, -0.2)
    data = fp.simulate_observations(5000, beta, seed=11)
    fit = fp.fit_logistic(data)
    names = ("intercept",) + fp.PREDICTORS
    for name, truth in zip(names, beta):
        assert abs(fit.coefficients[name] - truth) < 0.15, name

    outcomes = np.array([o.outcome for o in data])
    probs = fit.fitted
    pos = probs[outcomes == 1][:, None]
    neg = probs[outcomes == 0][None, :]
    brute = float(((pos > neg).sum() + 0.5 * (pos == neg).sum())
                  / (pos.size * neg.size))
    assert fit.c == pytest.approx(brute, abs=1e-9)
    assert time.monotonic() - t0 < 60.0


def test_gam_sine_and_linear_limit():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0 * np.pi, 400)
    y = np.sin(x) + rng.normal(0.0, 0.1, 400)
    assert gam.fit_gam(x, y).pseudo_r2 > 0.8

    heavy = gam.fit_gam(x, y, lambda_grid=[1e9])
    x0, x1 = 1.0, 5.0
    fitted_slope = float((heavy.predict([x1])[0] - heavy.predict([x0])[0])
                         / (x1 - x0))
    ls_slope = float(np.polyfit(x, y, 1)[0])
    assert abs(fitted_slope - ls_slope) < 1e-3


def _doc(direction, i, n_segs):
    segs = [ParallelSegment(seg_id=f"{j:02d}", src_raw="ein paar worte hier",
                            tgt_raw="a few words here")
            for j in range(n_segs)]
    return DocumentPair(doc_id=f"{direction}-{i:03d}", segments=segs,
                        alignment_score=0.9, lpair=direction, mode="wr")


def test_split_determinism_and_balance():
    docs = [_doc("de-en", i, 13) for i in range(220)]
    docs += [_doc("en-de", i, 13) for i in range(260)]
    sizes = {"de-en": 65 * 13, "en-de": 65 * 13}

    a = build.make_splits(docs, sizes, seed=7)
    b = build.make_splits(docs, sizes, seed=7)
    for part in ("test", "train", "dropped"):
        assert [d.doc_id for d in getattr(a, part)] == \
            [d.doc_id for d in getattr(b, part)]

    totals = {}
    for doc in a.train:
        totals[doc.lpair] = totals.get(doc.lpair, 0) + doc.n_segments
    assert abs(totals["de-en"] - totals["en-de"]) < 13


_CORPUS_DIR = os.environ.get("WORDBITS_CORPUS_DIR")

# reference counts for the released spoken data: per direction and side,
# (segments, pct empty, FP count, pct segments with FP)
_SPOKEN_REFERENCE = {
    ("de-en", "src"): (3249, 2.2, 632, 12.6),
    ("de-en", "tgt"): (3249, 8.5, 2328, 36.6),
    ("en-de", "src"): (3440, 2.4, 1217, 23.4),
    ("en-de", "tgt"): (3440, 7.5, 3255, 44.4),
}

# (source tokens, pct unaligned, pct multi-aligned) per mode and direction
_ALIGN_REFERENCE = {
    ("spoken", "de-en"): (60125, 34.96, 4.42),
    ("spoken", "en-de"): (66729, 34.48, 2.14),
    ("written", "de-en"): (76327, 19.59, 5.08),
    ("written", "en-de"): (75804, 20.03, 1.49),
}

# expected coefficient signs of the FP model, per direction
_SIGN_REFERENCE = {
    "nxtwS_tgt": 1, "nxtwS_src": -1, "nxtwS_mt": 1,
    "AvS_tgt": -1, "AvS_src": 1, "AvS_mt": -1,
}


@pytest.mark.skipif(not _CORPUS_DIR,
                    reason="released corpus not available "
                           "(set WORDBITS_CORPUS_DIR to run)")
def test_corpus_replication():
    """Stats, alignment rates, and FP-model signs on the released corpus.

    Expects in WORDBITS_CORPUS_DIR: spoken_<direction>.jsonl.gz document
    files and vertical_<mode>_<direction>.tsv.gz word tables.
    """
    for direction in ("de-en", "en-de"):
        path = os.path.join(_CORPUS_DIR, f"spoken_{direction}.jsonl.gz")
        _meta, records = pipeline.read_jsonl(path)
        docs = []
        for rec in records:
            segs = [ParallelSegment(**s) for s in rec.pop("segments", [])]
            docs.append(DocumentPair(segments=segs, **rec))
        table = {(row["lpair"], row["side"]): row for row in build.describe(docs)}
        for side in ("src", "tgt"):
            segs_want, empty_want, fp_want, withfp_want = \
                _SPOKEN_REFERENCE[(direction, side)]
            row = table[(direction, side)]
            assert row["segs"] == segs_want
            assert round(row["pct_empty"], 1) == empty_want
            assert row["fp"] == fp_want
            assert round(row["pct_segs_with_fp"], 1) == withfp_want

    for (mode, direction), want in _ALIGN_REFERENCE.items():
        path = os.path.join(_CORPUS_DIR, f"vertical_{mode}_{direction}.tsv.gz")
        rows = read_table(path, "vertical")
        src_rows = [r for r in rows if r.ttype == "ORG"]
        total, pct_unaligned, pct_multi = align.alignment_stats(src_rows)
        assert total == want[0]
        assert round(pct_unaligned, 2) == want[1]
        assert round(pct_multi, 2) == want[2]

    for direction in ("de-en", "en-de"):
        path = os.path.join(_CORPUS_DIR, f"vertical_spoken_{direction}.tsv.gz")
        rows = read_table(path, "vertical")
        tgt_rows = [r for r in rows if r.ttype == "SI"]
        src_rows = [r for r in rows if r.ttype == "ORG"]
        data = fp.build_fp_dataset(tgt_rows, src_rows, direction.upper(),
                                   pipeline.ROLES["lm_base"].column,
                                   pipeline.ROLES["mt_base"].column)
        rate = sum(o.outcome for o in data) / len(data)
        assert 0.03 < rate < 0.07
        fit = fp.fit_logistic(data)
        for name, sign in _SIGN_REFERENCE.items():
            assert math.copysign(1, fit.coefficients[name]) == sign, name
