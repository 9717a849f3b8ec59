import logging
import math
import random
from typing import NamedTuple

import pytest

from wordbits.adapters import (
    AdapterError,
    MockCausalLM,
    MockMT,
    ReplayCausalLM,
    ReplayMT,
    SubwordScore,
    SubwordScores,
    detokenize_pieces,
    is_punct_text,
    mock_pieces,
)
from wordbits.surprisal import (
    RECOVERY_RULES,
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


class Seg(NamedTuple):
    """The two fields of a TokenizedSegment that scorers read: the text the
    adapter sees and the word surfaces its scores are realigned to."""
    text: str
    words: list


def _units(*pairs):
    return [Unit(surface, bits) for surface, bits in pairs]


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
    job = Seg("word", ["word"])
    out = score_segment_bounded(job, FixedLM([_sw("word", 1.0)]))
    assert out[0].bits == 1.0
    assert out[0].recovery_rule == "none"


def test_subword_bits_sum_in_log_space():
    # P = 0.25 and 0.5 -> 2.0 + 1.0 bits on one word
    subs = [_sw("wo", 2.0), _sw("rd", 1.0, begins=False)]
    out = score_segment_bounded(Seg("word", ["word"]), FixedLM(subs))
    assert out[0].bits == pytest.approx(3.0, abs=1e-12)


def test_build_units_punct_separation():
    subs = [_sw("well", 1.0), _sw("-", 1.0, begins=False, punct=True),
            _sw("inte", 1.0, begins=False), _sw("nded", 1.0, begins=False)]
    units = build_units(subs)
    # the subword after the punct unit starts fresh even without begins_word,
    # and later continuation pieces glue onto it
    assert [u.surface for u in units] == ["well", "-", "intended"]
    assert [u.bits for u in units] == [1.0, 1.0, 2.0]


def test_replayed_example_base_lm(replay_files):
    lm = ReplayCausalLM(replay_files["lm_base"])
    out = score_segment_bounded(Seg(TGT_TEXT, TGT_WORDS), lm)
    bits = [w.bits for w in out]
    assert bits == pytest.approx([13.0, 5.9, 6.5, 16.7, 3.0, 2.2, 5.6],
                                 abs=1e-9)
    rules = [w.recovery_rule for w in out]
    # "there's" is already one pre-aggregated unit, so it matches exactly
    assert rules == ["none", "none", "none", "summed", "none", "none",
                     "none"]


def test_replayed_example_mt(replay_files):
    mt = ReplayMT(replay_files["mt_base"])
    out = score_mt(SRC_TEXT, Seg(TGT_TEXT, TGT_WORDS), mt)
    by_word = dict(zip(TGT_WORDS, [w.bits for w in out]))
    assert by_word["very"] == pytest.approx(7.6, abs=1e-9)
    assert by_word["It's"] == pytest.approx(35.3, abs=1e-9)


def test_mt_scores_whatever_it_is_given():
    """score_mt checks neither side; the pipeline runs no MT job on a side
    without words."""
    mt = MockMT()
    out = score_mt("", Seg("ziel", ["ziel"]), mt)
    assert [(w.recovery_rule, w.note) for w in out] == [("none", None)]
    assert subword_bits(out) == [-s.logprob2 for s in mt.score("", "ziel")]
    assert score_mt("quelle", Seg("", []), mt) == []


def test_mt_gold_probability_one_scores_zero_bits():
    class Sure:
        name = "sure"

        def score(self, src, tgt):
            return [SubwordScore(w, 0.0, True) for w in tgt.split()]

    out = score_mt("src", Seg("a b", ["a", "b"]), Sure())
    assert [w.bits for w in out] == [0.0, 0.0]


def test_adapter_failure_propagates_out_of_the_scorer():
    """The pipeline's failure guard nulls a failed job; each scorer raises
    what the adapter raised, and raises on answers it cannot read."""
    class Boom:
        name = "boom"

        def score(self, *texts):
            raise RuntimeError("offline")

    class Triples:
        name = "triples"

        def score(self, *texts):
            return [(w, -1.0, True) for w in texts[-1].split()]

    seg = Seg("a b", ["a", "b"])
    for adapter, error in ((Boom(), RuntimeError), (Triples(), TypeError)):
        for score in (lambda: score_segment_bounded(seg, adapter),
                      lambda: score_sliding_window(seg, adapter, window=1),
                      lambda: score_mt("quelle", seg, adapter)):
            with pytest.raises(error):
                score()


def test_cap_nulls_words_past_150_subwords():
    words = [f"w{i}" for i in range(200)]
    subs = [_sw(w, 1.0) for w in words]
    out = score_segment_bounded(Seg(" ".join(words), words),
                                FixedLM(subs))
    assert [w.bits for w in out[:150]] == [1.0] * 150
    assert all(w.bits is None and w.recovery_rule == "failed"
               for w in out[150:])


# --- realignment cascade -------------------------------------------------

def test_cascade_mojibake_normalization_and_punct_split():
    units = _units(("Ã¼ber", 4.0), ("99", 1.0), ("%.", 8.0))
    out = realign_cascade(units, ["über", "99", "%", "."])
    assert [w.recovery_rule for w in out] == \
        ["none", "none", "split_75_25", "split_75_25"]
    assert [w.bits for w in out] == [4.0, 1.0, 6.0, 2.0]


def test_cascade_abbreviation_join():
    out = realign_cascade(_units(("p.m", 4.0), (".", 2.0)), ["p.m."])
    assert out[0].recovery_rule == "abbreviation"
    assert out[0].bits == 6.0


def test_cascade_float_like_spaces():
    # "20 000" tokenizes as two units but is one number token
    out = realign_cascade(_units(("20", 3.0), ("000", 2.0)), ["20 000"])
    assert out[0].recovery_rule == "float_like"
    assert out[0].bits == 5.0
    out = realign_cascade(_units(("0,7%-Zielgröße", 7.0)),
                          ["0,7%-Zielgröße"])
    assert out[0].recovery_rule == "none"


def test_cascade_punct_sequence_even_split():
    out = realign_cascade(_units(("!!", 4.0)), ["!", "!"])
    assert [w.recovery_rule for w in out] == ["punct_sequence"] * 2
    assert [w.bits for w in out] == [2.0, 2.0]


def test_cascade_split_runs_conserve_mass():
    # one unit covering a word plus two punctuation words
    out = realign_cascade(_units(("ok).", 8.0)), ["ok", ")", "."])
    assert out[0].bits == pytest.approx(6.0)
    assert out[1].bits == pytest.approx(1.0)
    assert out[2].bits == pytest.approx(1.0)
    assert sum(w.bits for w in out) == pytest.approx(8.0, abs=1e-12)


def test_cascade_failure_is_terminal():
    units = _units(("alpha", 1.0), ("mismatch", 1.0), ("gamma", 1.0))
    out = realign_cascade(units, ["alpha", "beta", "gamma"])
    assert out[0].bits == 1.0
    assert [w.recovery_rule for w in out[1:]] == ["failed", "failed"]
    assert all(w.bits is None for w in out[1:])


def test_cascade_notes_units_left_after_last_word(caplog):
    out = realign_cascade(_units(("a", 1.0), ("b", 2.0), ("c", 3.0)), ["a", "b"])
    assert [w.recovery_rule for w in out] == ["none", "none"]
    assert [w.note for w in out] == [None, "unconsumed_subwords"]
    subs = [_sw("a", 1.0), _sw("b", 2.0), _sw("c", 3.0)]
    with caplog.at_level(logging.DEBUG, logger="wordbits"):
        out = score_segment_bounded(Seg("a b", ["a", "b"]), FixedLM(subs))
    assert out[-1].note == "unconsumed_subwords"
    # the pipeline, which knows the segment, logs the note; the scorer does not
    assert caplog.records == []


_FUZZ_WORDS = (
    ("z.B.", "e.g.", "p.m.", "U.S.A.", "usw."),  # abbreviations
    ("20 000", "1 234 567", "3,5", "0.75", "12.5", "99"),  # numbers
    (".", ",", "!", "?", ")", "...", "!!", "%", "-"),  # punctuation
    ("über", "Änderung", "façade", "naïve", "Größe"),  # mojibake in units
    ("die", "Lage", "ist", "well-intended", "it's", "Kommission"),
)


def _fuzz_case(rng):
    """Random words, and units that re-segment them as a tokenizer might:
    random cuts, latin-1 mojibake, numbers without their spaces, punctuation
    glued to the unit before, now and then a stray or trailing unit."""
    words = [rng.choice(rng.choice(_FUZZ_WORDS)) for _ in range(rng.randint(1, 12))]
    surfaces = []
    for w in words:
        s = w.replace(" ", "")
        if not s.isascii() and rng.random() < 0.5:
            s = s.encode("utf-8").decode("latin-1")
        if surfaces and not any(c.isalnum() for c in s) and rng.random() < 0.4:
            surfaces[-1] += s
            continue
        cuts = sorted(rng.sample(range(1, len(s)), min(len(s) - 1, rng.randint(0, 2))))
        surfaces.extend(s[a:b] for a, b in zip([0] + cuts, cuts + [len(s)]))
    if rng.random() < 0.1:
        surfaces.insert(rng.randrange(len(surfaces) + 1), "#?")
    if rng.random() < 0.1:
        surfaces.append(rng.choice(("</s>", ".")))
    return words, [Unit(s, rng.uniform(0.0, 12.0)) for s in surfaces]


def test_cascade_fuzz_conserves_a_prefix_of_units():
    rng = random.Random(6)
    seen = set()
    for _ in range(3000):
        words, units = _fuzz_case(rng)
        out = realign_cascade(units, words)
        seen.update(w.recovery_rule for w in out)
        assert [w.word_index for w in out] == list(range(len(words)))
        assert all(w.recovery_rule in RECOVERY_RULES for w in out)
        kept = [w for w in out if w.recovery_rule != "failed"]
        assert out[:len(kept)] == kept, "failed words must form a suffix"
        got = sum(w.bits for w in kept)
        prefixes = [sum(u.bits for u in units[:k]) for k in range(len(units) + 1)]
        assert any(abs(got - p) <= 1e-9 for p in prefixes), (words, units)
        if len(kept) == len(out) and out[-1].note != "unconsumed_subwords":
            assert got == pytest.approx(prefixes[-1], abs=1e-9), (words, units)
    assert seen == set(RECOVERY_RULES)


def test_word_surprisal_invariant_enforced():
    with pytest.raises(AssertionError):
        WordSurprisal(0, None, "none")
    with pytest.raises(AssertionError):
        WordSurprisal(0, 1.0, "failed")


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
    full = score_segment_bounded(Seg(" ".join(words), words), lm)
    for k in (1, 3, 5):
        part = words[:k]
        pre = score_segment_bounded(Seg(" ".join(part), part), lm)
        assert [w.bits for w in pre] == [w.bits for w in full[:k]]


# --- sliding window -------------------------------------------------------

def test_window_equals_bounded_below_window():
    lm = MockCausalLM(seed=6)
    rng = random.Random(21)
    vocab = ["eins", "zwei", "drei", "vier", "kurz", "lang", "gut", "."]
    for _ in range(25):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        job = Seg(" ".join(words), words)
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
    job = Seg(" ".join(words), words)
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


def test_window_drift_raises_naming_both_surfaces():
    subs = [_sw("a", 1.0), _sw("b", 1.0), _sw("c", 1.0)]
    job = Seg("a b c", ["a", "b", "c"])
    kept = score_sliding_window(job, SliceLM("a b c", subs, "c"), window=2)
    assert [w.bits for w in kept] == [1.0, 1.0, 9.0]

    with pytest.raises(AdapterError,
                       match="^window slice for subword 2 ends in 'x', not 'c'$"):
        score_sliding_window(job, SliceLM("a b c", subs, "x"), window=2)


def test_failed_jobs_leave_no_subword_bits():
    subs = [_sw("a", 1.0), _sw("b", 1.0), _sw("c", 1.0)]
    job = Seg("a b c", ["a", "b", "c"])
    assert subword_bits(score_sliding_window(job, SliceLM("a b c", subs, "c"),
                                             window=2)) == [1.0, 1.0, 9.0]
    with pytest.raises(AdapterError):
        score_sliding_window(job, SliceLM("a b c", subs, "x"), window=2)


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
        score_sliding_window(Seg(text, text.split()), lm, window=window)
        assert lm.requests == [text] + [detokenize_pieces(subs[i - window + 1:i + 1])
                                        for i in range(window, len(subs))]


class _SeededScorer:
    """Scores any request from an rng seeded by the request: mock pieces with
    log probabilities that are sometimes 0 or positive, sometimes no pieces,
    and in drift mode sometimes a renamed last piece.  Returns a SubwordScore
    list, or the same scores as SubwordScores."""

    name = "seeded"

    def __init__(self, seed, columns, drift=False):
        self.seed = seed
        self.columns = columns
        self.drift = drift

    def score(self, *texts):
        rng = random.Random("|".join((str(self.seed),) + texts))
        subs = [] if rng.random() < 0.03 else [
            SubwordScore(s, rng.choice([0.0, 0.5, -rng.expovariate(0.3)]), b,
                         is_punct_text(s) if rng.random() < 0.9 else not is_punct_text(s))
            for s, b in mock_pieces(texts[-1], 2 + self.seed % 4)]
        if self.drift and subs and rng.random() < 0.02:
            subs[-1] = subs[-1]._replace(surface=subs[-1].surface + "x")
        return SubwordScores.of(subs) if self.columns else subs


def _reference_units(subs):
    """build_units over SubwordScore objects, as it was before columns."""
    units = []
    prev_punct = False
    for sw in subs:
        bits = max(0.0, -sw.logprob2)
        if not units or sw.begins_word or sw.is_punct_unit or prev_punct:
            units.append(Unit(sw.surface, bits))
        else:
            units[-1] = Unit(units[-1].surface + sw.surface, units[-1].bits + bits)
        prev_punct = sw.is_punct_unit
    return units


def _outcome(score, *args):
    """score(*args), or the type and message of what it raised."""
    try:
        return score(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_scores_as_list_or_columns_score_the_same():
    rng = random.Random(31)
    # a group's words are written without spaces between them
    vocab = [("die",), ("Lage",), ("ernst",), ("hoffnungslos",), ("z.B.",), ("3,5",),
             ("20",), ("%",), (",",), (".",), ("!?",), ("p.m.",), ("it's",),
             ("well-made",), ("Straße",), ("5", "%"), ("%", "."),
             (".", ".", ".")]
    raised = 0
    for trial in range(300):
        groups = [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
        words = [w for group in groups for w in group]
        text = " ".join("".join(group) for group in groups)
        if rng.random() < 0.1:
            text += " Rest"
        seg = Seg(text if rng.random() < 0.95 else " ", words)
        src = rng.choice(["", "quelle eins", "quelle zwei"])
        as_list, as_columns = (_SeededScorer(trial, columns) for columns in (False, True))
        subs = as_list.score(seg.text)
        assert list(as_columns.score(seg.text)) == subs
        assert build_units(subs) == build_units(as_columns.score(seg.text)) == \
            _reference_units(subs)
        assert realign_cascade(build_units(subs), words) == \
            realign_cascade(build_units(SubwordScores.of(subs)), words)
        cap = rng.randint(1, 40)
        assert score_segment_bounded(seg, as_list, cap) == \
            score_segment_bounded(seg, as_columns, cap)
        for c in (cap, None):
            assert subword_bits(score_segment_bounded(seg, as_list, c)) == \
                subword_bits(score_segment_bounded(seg, as_columns, c)) == \
                [max(0.0, -sw.logprob2) for sw in subs[:c]]
        window = rng.randint(1, 8)
        drifting = [_SeededScorer(trial, columns, drift=True) for columns in (False, True)]
        outcomes = [_outcome(score_sliding_window, seg, scorer, window)
                    for scorer in drifting]
        assert outcomes[0] == outcomes[1]
        raised += type(outcomes[0]) is tuple
        assert score_mt(src, seg, as_list) == score_mt(src, seg, as_columns)
    # window rescoring raised in some trials (drift, or a slice scored no
    # subwords) and kept its scores in others
    assert 0 < raised < 300


# --- aggregates and BLEU ---------------------------------------------------

def test_subword_bits_capped():
    subs = [_sw(f"w{i}", 1.0) for i in range(10)]
    words = [f"w{i}" for i in range(10)]
    lm = FixedLM(subs)
    out = score_segment_bounded(Seg(" ".join(words), words), lm, cap=4)
    assert subword_bits(out) == [1.0] * 4
    assert lm.calls == 1


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
