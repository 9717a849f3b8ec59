import math
import random

import pytest

from wordbits.adapters import (
    MockCausalLM,
    MockMT,
    ReplayCausalLM,
    ReplayMT,
    SubwordScore,
    detokenize_pieces,
)
from wordbits.surprisal import (
    ScoringJob,
    Unit,
    WordSurprisal,
    build_units,
    pseudo_bleu,
    realign_cascade,
    score_mt,
    score_segment_bounded,
    score_sliding_window,
    sentence_bleu_exp,
    subword_bits,
)

from conftest import SRC_TEXT, TGT_TEXT

TGT_WORDS = ["It's", "all", "very", "well-intended", ".", "But", "there's"]


class FixedLM:
    """Adapter stub returning a canned subword list."""

    name = "fixed"

    def __init__(self, subs):
        self.subs = subs
        self.calls = 0

    def score(self, text):
        self.calls += 1
        return self.subs


def _sw(surface, bits, begins=True, punct=False):
    return SubwordScore(surface, -bits, begins, punct)


def test_single_subword_half_probability_is_one_bit():
    job = ScoringJob("word", ["word"])
    out = score_segment_bounded(job, FixedLM([_sw("word", 1.0)]))
    assert out[0].bits == 1.0
    assert out[0].recovery_rule == "none"


def test_subword_bits_sum_in_log_space():
    # P = 0.25 and 0.5 -> 2.0 + 1.0 bits on one word
    subs = [_sw("wo", 2.0), _sw("rd", 1.0, begins=False)]
    out = score_segment_bounded(ScoringJob("word", ["word"]), FixedLM(subs))
    assert out[0].bits == pytest.approx(3.0, abs=1e-12)
    assert out[0].n_subwords == 2


def test_build_units_punct_separation():
    subs = [_sw("well", 1.0), _sw("-", 1.0, begins=False, punct=True),
            _sw("inte", 1.0, begins=False), _sw("nded", 1.0, begins=False)]
    units = build_units(subs)
    # the subword after the punct unit starts fresh even without begins_word,
    # and later continuation pieces glue onto it
    assert [u.surface for u in units] == ["well", "-", "intended"]
    assert units[2].n_subwords == 2


def test_replayed_example_base_lm(replay_files):
    lm = ReplayCausalLM(replay_files["lm_base"])
    out = score_segment_bounded(ScoringJob(TGT_TEXT, TGT_WORDS), lm)
    bits = [w.bits for w in out]
    assert bits == pytest.approx([13.0, 5.9, 6.5, 16.7, 3.0, 2.2, 5.6],
                                 abs=1e-9)
    rules = [w.recovery_rule for w in out]
    # "there's" is already one pre-aggregated unit, so it matches exactly
    assert rules == ["none", "none", "none", "summed", "none", "none",
                     "none"]


def test_replayed_example_mt(replay_files):
    mt = ReplayMT(replay_files["mt_base"])
    out = score_mt(SRC_TEXT, ScoringJob(TGT_TEXT, TGT_WORDS), mt)
    by_word = dict(zip(TGT_WORDS, [w.bits for w in out]))
    assert by_word["very"] == pytest.approx(7.6, abs=1e-9)
    assert by_word["It's"] == pytest.approx(35.3, abs=1e-9)


def test_mt_empty_sides_null_with_note():
    mt = MockMT()
    out = score_mt("", ScoringJob("ziel", ["ziel"]), mt)
    assert out[0].bits is None and out[0].note == "empty_source"
    out = score_mt("quelle", ScoringJob("", []), mt)
    assert out == []
    out = score_mt("quelle", ScoringJob("  ", ["x"]), mt)
    assert out[0].note == "empty_target"


def test_mt_gold_probability_one_scores_zero_bits():
    class Sure:
        name = "sure"

        def score(self, src, tgt):
            return [SubwordScore(w, 0.0, True) for w in tgt.split()]

    out = score_mt("src", ScoringJob("a b", ["a", "b"]), Sure())
    assert [w.bits for w in out] == [0.0, 0.0]


def test_adapter_failure_keeps_segment_with_nulls():
    class Boom:
        name = "boom"

        def score(self, text):
            raise RuntimeError("offline")

    out = score_segment_bounded(ScoringJob("a b", ["a", "b"]), Boom())
    assert [w.bits for w in out] == [None, None]
    assert all(w.recovery_rule == "failed" for w in out)
    assert all(w.note == "adapter_error" for w in out)


def test_cap_nulls_words_past_150_subwords():
    words = [f"w{i}" for i in range(200)]
    subs = [_sw(w, 1.0) for w in words]
    out = score_segment_bounded(ScoringJob(" ".join(words), words),
                                FixedLM(subs))
    assert [w.bits for w in out[:150]] == [1.0] * 150
    assert all(w.bits is None and w.recovery_rule == "failed"
               for w in out[150:])


# --- realignment cascade -------------------------------------------------

def test_cascade_mojibake_normalization_and_punct_split():
    units = [("Ã¼ber", 4.0), ("99", 1.0), ("%.", 8.0)]
    out = realign_cascade(units, ["über", "99", "%", "."])
    assert [w.recovery_rule for w in out] == \
        ["none", "none", "split_75_25", "split_75_25"]
    assert [w.bits for w in out] == [4.0, 1.0, 6.0, 2.0]


def test_cascade_abbreviation_join():
    out = realign_cascade([("p.m", 4.0), (".", 2.0)], ["p.m."])
    assert out[0].recovery_rule == "abbreviation"
    assert out[0].bits == 6.0
    assert out[0].n_subwords == 2


def test_cascade_float_like_spaces():
    # "20 000" tokenizes as two units but is one number token
    out = realign_cascade([("20", 3.0), ("000", 2.0)], ["20 000"])
    assert out[0].recovery_rule == "float_like"
    assert out[0].bits == 5.0
    out = realign_cascade([("0,7%-Zielgröße", 7.0)],
                          ["0,7%-Zielgröße"])
    assert out[0].recovery_rule == "none"


def test_cascade_punct_sequence_even_split():
    out = realign_cascade([("!!", 4.0)], ["!", "!"])
    assert [w.recovery_rule for w in out] == ["punct_sequence"] * 2
    assert [w.bits for w in out] == [2.0, 2.0]


def test_cascade_split_runs_conserve_mass():
    # one unit covering a word plus two punctuation words
    out = realign_cascade([("ok).", 8.0)], ["ok", ")", "."])
    assert out[0].bits == pytest.approx(6.0)
    assert out[1].bits == pytest.approx(1.0)
    assert out[2].bits == pytest.approx(1.0)
    assert sum(w.bits for w in out) == pytest.approx(8.0, abs=1e-12)


def test_cascade_failure_is_terminal():
    units = [("alpha", 1.0), ("mismatch", 1.0), ("gamma", 1.0)]
    out = realign_cascade(units, ["alpha", "beta", "gamma"])
    assert out[0].bits == 1.0
    assert [w.recovery_rule for w in out[1:]] == ["failed", "failed"]
    assert all(w.bits is None for w in out[1:])


def test_word_surprisal_invariant_enforced():
    with pytest.raises(AssertionError):
        WordSurprisal(0, None, 0, "none")
    with pytest.raises(AssertionError):
        WordSurprisal(0, 1.0, 1, "failed")


def test_conservation_on_random_mock_segments():
    rng = random.Random(13)
    vocab = ["die", "Lage", "ist", "ernst", "aber", "nicht", "hoffnungslos",
             "heute", "99", "%", "Ausschuss", ",", ".", "!", "p.m.",
             "wirklich", "sehr", "gut"]
    lm = MockCausalLM(seed=2)
    checked = 0
    for _ in range(200):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 20))]
        text = " ".join(words)
        subs = lm.score(text)
        units = build_units(subs)
        out = realign_cascade(units, words)
        if any(w.recovery_rule == "failed" for w in out):
            continue
        total_units = sum(u.bits for u in units)
        total_words = sum(w.bits for w in out)
        assert total_words == pytest.approx(total_units, abs=1e-9)
        checked += 1
    assert checked >= 150


def test_bounded_prefix_matches_full_prefix():
    lm = MockCausalLM(seed=4)
    words = "der neue Bericht wurde gestern angenommen".split()
    full = score_segment_bounded(ScoringJob(" ".join(words), words), lm)
    for k in (1, 3, 5):
        part = words[:k]
        pre = score_segment_bounded(ScoringJob(" ".join(part), part), lm)
        assert [w.bits for w in pre] == [w.bits for w in full[:k]]


# --- sliding window -------------------------------------------------------

def test_window_equals_bounded_below_window():
    lm = MockCausalLM(seed=6)
    rng = random.Random(21)
    vocab = ["eins", "zwei", "drei", "vier", "kurz", "lang", "gut", "."]
    for _ in range(25):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        job = ScoringJob(" ".join(words), words)
        assert len(lm.score(job.text)) <= 64
        a = score_segment_bounded(job, lm)
        b = score_sliding_window(job, lm)
        assert [(w.bits, w.recovery_rule) for w in a] == \
            [(w.bits, w.recovery_rule) for w in b]


def test_window_rescores_against_explicit_slice():
    lm = MockCausalLM(seed=8)
    # 70 one-piece words, so subword index == word index
    words = [chr(ord("a") + i % 26) + str(i) for i in range(70)]
    for w in words:
        assert len(lm.score(w)) == 1 or len(w) <= 4
    job = ScoringJob(" ".join(words), words)
    out = score_sliding_window(job, lm, window=64)
    plain = lm.score(job.text)
    assert len(plain) == 70
    for i in range(70):
        if i < 64:
            want = -plain[i].logprob2
        else:
            ctx = plain[i - 63:i + 1]
            want = -lm.score(detokenize_pieces(ctx))[-1].logprob2
        assert out[i].bits == pytest.approx(want, abs=1e-12)
    bounded = score_segment_bounded(job, lm)
    assert any(abs(a.bits - b.bits) > 1e-9
               for a, b in zip(out[64:], bounded[64:]))



class SliceLM:
    """Scores the full text with canned subwords and every window slice with
    a response that ends in the given surface."""

    name = "slice"

    def __init__(self, text, subs, slice_end):
        self.text = text
        self.subs = subs
        self.slice_end = slice_end

    def score(self, text):
        if text == self.text:
            return self.subs
        return [_sw("b", 1.0), _sw(self.slice_end, 9.0)]


def test_window_drift_nulls_segment_with_note():
    subs = [_sw("a", 1.0), _sw("b", 1.0), _sw("c", 1.0)]
    job = ScoringJob("a b c", ["a", "b", "c"])
    kept = score_sliding_window(job, SliceLM("a b c", subs, "c"), window=2)
    assert [w.bits for w in kept] == [1.0, 1.0, 9.0]

    drifted = score_sliding_window(job, SliceLM("a b c", subs, "x"), window=2)
    assert len(drifted) == 3
    assert all(w.bits is None and w.recovery_rule == "failed"
               and w.note == "window_drift" for w in drifted)


class RecordingLM:
    """Scores the full text with canned pieces and records every request;
    the k-th window slice answers with the piece it rescores."""

    name = "recording"

    def __init__(self, subs, window):
        self.subs = subs
        self.window = window
        self.requests = []

    def score(self, text):
        self.requests.append(text)
        if len(self.requests) == 1:
            return self.subs
        return [_sw(self.subs[self.window + len(self.requests) - 2].surface, 2.0)]


def test_window_slices_are_detokenized_contexts():
    rng = random.Random(5)
    for _ in range(200):
        subs = [SubwordScore("".join(rng.choice("abcxyz.'") for _ in range(rng.randint(1, 4))),
                             -1.0, rng.random() < 0.6)
                for _ in range(rng.randint(1, 40))]
        window = rng.randint(1, len(subs) + 2)
        text = detokenize_pieces(subs)
        lm = RecordingLM(subs, window)
        score_sliding_window(ScoringJob(text, text.split()), lm, window=window)
        assert lm.requests == [text] + [detokenize_pieces(subs[i - window + 1:i + 1])
                                        for i in range(window, len(subs))]


# --- aggregates and BLEU ---------------------------------------------------

def test_subword_bits_capped():
    subs = [_sw(f"w{i}", 1.0) for i in range(10)]
    vals = subword_bits(ScoringJob("irrelevant", []), FixedLM(subs).score, cap=4)
    assert vals == [1.0] * 4


def test_bleu_identity_is_100():
    assert sentence_bleu_exp("a b c d".split(), "a b c d".split()) == 100.0


def test_bleu_oracle_value():
    # independently computed: p1=3/4, p2=2/3, p3=1/(2*2), p4=1/(4*1)
    got = sentence_bleu_exp("a b c d".split(), "a b x d".split())
    assert got == pytest.approx(35.35533905932737, abs=1e-9)


def test_bleu_empty_hypothesis_zero():
    assert sentence_bleu_exp("a b".split(), []) == 0.0


def test_bleu_unigram_only_overlap_positive():
    got = sentence_bleu_exp("a b c d e".split(), "c a e b d".split())
    assert 0.0 < got < 100.0


def test_bleu_brevity_penalty_only_when_shorter():
    short = sentence_bleu_exp("a b c d".split(), "a b c".split())
    same = sentence_bleu_exp("a b c".split(), "a b c".split())
    assert short < same == 100.0


def test_pseudo_bleu_mock_echo_is_identity():
    assert pseudo_bleu("src text", "gold target here", MockMT()) == 100.0


def test_pseudo_bleu_replay(replay_files):
    mt = ReplayMT(replay_files["mt_base"])
    assert pseudo_bleu(SRC_TEXT, TGT_TEXT, mt) == 100.0


def test_pseudo_bleu_empty_prediction_zero():
    class Silent:
        def predict_argmax(self, src, tgt):
            return []

    assert pseudo_bleu("a", "b", Silent()) == 0.0
