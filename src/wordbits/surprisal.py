"""Word-level surprisal in bits, subword bits, and pseudo-BLEU.

Surprisal of a unit is the negative base-2 log probability of its subwords
under the scoring model, summed in log space.  Model subwords rarely line up
one-to-one with parser tokens, so scored subwords are first pre-aggregated
into units (begin-of-word boundaries, punctuation kept separate) and then
realigned to the word rows through a fixed rule cascade:

    exact -> normalized surface -> abbreviation join -> float-like join
          -> punctuation split -> multi-unit sum -> failed

Failure is terminal for the segment: from the first unmatched word onward,
words get null bits and the rule label "failed".  Units left over once every
word has matched are not dropped silently: the last word carries the note
"unconsumed_subwords", which the pipeline logs with the segment's id.

A scorer scores whatever it is given, catches no error and logs nothing.
An adapter that raises, output that cannot be read as subword scores, and
retokenization drift in window rescoring raise out of it; adapters.attempt
then nulls that job's values and keeps the segment.  The pipeline scores
no empty side.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

from .adapters import AdapterError, SubwordScores, detokenize_pieces, is_punct_text

RECOVERY_RULES = ("none", "abbreviation", "float_like", "punct_sequence",
                  "split_75_25", "summed", "failed")

SUBWORD_CAP = 150
WINDOW = 64


@dataclass
class WordSurprisal:
    word_index: int
    bits: object  # float or None
    recovery_rule: str
    note: str = None

    def __post_init__(self):
        assert self.recovery_rule in RECOVERY_RULES
        # null bits exactly when realignment failed
        assert (self.bits is None) == (self.recovery_rule == "failed")


@dataclass
class Unit:
    surface: str
    bits: float


def build_units(subwords) -> list[Unit]:
    """Pre-aggregate subword scores (a SubwordScores, or SubwordScore
    items) into word-ish units.

    A subword starts a new unit when it begins a word, when it is itself
    punctuation, or when the previous subword was punctuation.  Multi-char
    punctuation units therefore only arise from single merged-vocabulary
    subwords such as "%.".
    """
    subwords = SubwordScores.of(subwords)
    units = []
    prev_punct = False
    for surface, bits, begins, punct in zip(subwords.surfaces, subwords.bits(),
                                            subwords.begins_word, subwords.is_punct_unit):
        if not units or begins or punct or prev_punct:
            units.append(Unit(surface, bits))
        else:
            u = units[-1]
            units[-1] = Unit(u.surface + surface, u.bits + bits)
        prev_punct = punct
    return units


def _fix_mojibake(s: str) -> str:
    try:
        fixed = s.encode("latin-1").decode("utf-8")
    except (UnicodeEncodeError, UnicodeDecodeError):
        return s
    return fixed


def _norm(s: str) -> str:
    return unicodedata.normalize("NFC", _fix_mojibake(s))


_ABBREV = re.compile(r"(?:\w{1,4}\.)+")


def _scan_join(units, ui, target, transform):
    """Greedily join units ui.. until transform(concat) == transform(target).
    Returns the end index (exclusive) or None."""
    want = transform(target)
    got = ""
    j = ui
    while j < len(units):
        got += units[j].surface
        j += 1
        t = transform(got)
        if t == want:
            return j
        if len(t) >= len(want):
            return None
    return None


def _scan_punct_split(units, ui, words, wi):
    """Match one unit against words[wi] plus a trailing run of all-punct
    words.  Returns the number of words consumed (>= 2) or None."""
    u = units[ui].surface
    head = words[wi]
    if not u.startswith(head) or u == head:
        return None
    rest = u[len(head):]
    k = wi + 1
    while rest and k < len(words):
        w = words[k]
        if not is_punct_text(w) or not rest.startswith(w):
            break
        rest = rest[len(w):]
        k += 1
    if rest:
        return None
    return k - wi


def realign_cascade(units, words) -> list[WordSurprisal]:
    """Align pre-aggregated Units to parser word surfaces."""
    out = []
    ui = 0
    wi = 0
    while wi < len(words):
        w = words[wi]
        if ui < len(units):
            u = units[ui]
            if u.surface == w or _norm(u.surface) == _norm(w):
                out.append(WordSurprisal(wi, u.bits, "none"))
                ui += 1
                wi += 1
                continue
            rule = None
            end = None
            if _ABBREV.fullmatch(w):
                end = _scan_join(units, ui, w, _norm)
                rule = "abbreviation"
            min_units = 2
            if end is None and w[:1].isdigit():
                # numbers like "20 000" keep internal spaces in the token,
                # so even a single unit may differ from the word by spacing
                end = _scan_join(units, ui, w, lambda s: _norm(s).replace(" ", ""))
                rule = "float_like"
                min_units = 1
            if end is not None and end - ui >= min_units:
                out.append(WordSurprisal(wi, sum(x.bits for x in units[ui:end]), rule))
                ui = end
                wi += 1
                continue
            span = _scan_punct_split(units, ui, words, wi)
            if span is not None:
                if len(set(u.surface)) == 1 and is_punct_text(u.surface):
                    # a run of one repeated mark has no head token
                    each = u.bits / span
                    for k in range(span):
                        out.append(WordSurprisal(wi + k, each, "punct_sequence"))
                else:
                    out.append(WordSurprisal(wi, u.bits * 0.75, "split_75_25"))
                    tail = u.bits * 0.25 / (span - 1)
                    for k in range(1, span):
                        out.append(WordSurprisal(wi + k, tail, "split_75_25"))
                ui += 1
                wi += span
                continue
            end = _scan_join(units, ui, w, _norm)
            if end is not None and end - ui >= 2:
                out.append(WordSurprisal(wi, sum(x.bits for x in units[ui:end]),
                                         "summed"))
                ui = end
                wi += 1
                continue
        # no rule applies: the remainder of the segment is unrecoverable
        for k in range(wi, len(words)):
            out.append(WordSurprisal(k, None, "failed"))
        break
    else:
        if out and ui < len(units):
            out[-1].note = "unconsumed_subwords"
    return out


class ScoredJob(list):
    """One job's WordSurprisals; subwords: the SubwordScores behind them."""


def _realigned(seg, subs):
    """Realign the subword scores subs to seg.words, as a ScoredJob holding
    those scores.  Output that is not subword scores raises."""
    subs = SubwordScores.of(subs)
    out = ScoredJob(realign_cascade(build_units(subs), seg.words))
    out.subwords = subs
    return out


def score_segment_bounded(seg, adapter, cap: int = SUBWORD_CAP):
    """Score seg.text left-to-right and realign to seg.words.

    Only the cap leftmost subwords are kept; words beyond them fail.
    """
    return _realigned(seg, adapter.score(seg.text)[:cap])


def _piece_spans(subs):
    """detokenize_pieces(subs) of a SubwordScores, with each piece's start
    and end offset in that text."""
    parts, starts, ends = [], [], []
    pos = 0
    for i, (surface, begins) in enumerate(zip(subs.surfaces, subs.begins_word)):
        if i and begins:
            parts.append(" ")
            pos += 1
        starts.append(pos)
        parts.append(surface)
        pos += len(surface)
        ends.append(pos)
    return "".join(parts), starts, ends


def _window_scores(seg, adapter, window):
    """The rescored SubwordScores of seg.text.  Only the last subword of each
    window slice's response is read; a slice whose response is empty or
    ends in another subword (retokenization drift) raises AdapterError."""
    subs = SubwordScores.of(adapter.score(seg.text))
    text, starts, ends = _piece_spans(subs)
    surfaces = subs.surfaces
    logprob2 = subs.logprob2.tolist()
    for i in range(window, len(subs)):
        # equals detokenize_pieces(subs[i - window + 1:i + 1]): a slice's
        # first piece takes no leading space
        got = adapter.score(text[starts[i - window + 1]:ends[i]])
        if not got:
            raise AdapterError(f"window slice for subword {i} scored no subwords")
        last = got[-1]
        if last.surface != surfaces[i]:
            raise AdapterError(f"window slice for subword {i} ends in "
                               f"{last.surface!r}, not {surfaces[i]!r}")
        logprob2[i] = last.logprob2
    return SubwordScores(surfaces, logprob2, subs.begins_word, subs.is_punct_unit)


def score_sliding_window(seg, adapter, window: int = WINDOW):
    """Sliding-window scoring, stride 1, no truncation cap.

    Subword i (zero-based, i >= window) is rescored from the detokenized
    slice of the window preceding subwords plus itself, taking the final
    subword's log probability.  Earlier positions keep the plain scores, so
    segments at most window subwords long match score_segment_bounded
    exactly.  A slice whose last subword is not subword i (retokenization
    drift) raises AdapterError, as a failing adapter raises its own error.
    """
    return _realigned(seg, _window_scores(seg, adapter, window))


def score_mt(src_text: str, seg, adapter):
    """Teacher-forced target-side scoring through the same cascade."""
    return _realigned(seg, adapter.score(src_text, seg.text))


def subword_bits(scored) -> list[float]:
    """Per-subword bits of the stream behind a scoring job's word bits."""
    return scored.subwords.bits()


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu_exp(ref_tokens, hyp_tokens, max_order: int = 4) -> float:
    """Sentence BLEU with exponential smoothing for zero n-gram matches.

    Orders longer than the hypothesis are skipped; each zero-match order
    doubles the smoothing divisor.  Returns a percentage in [0, 100].
    """
    log_precisions = []
    smooth = 1.0
    for n in range(1, max_order + 1):
        hyp_counts = _ngrams(hyp_tokens, n)
        total = sum(hyp_counts.values())
        if total == 0:
            continue
        ref_counts = _ngrams(ref_tokens, n)
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        if matched == 0:
            smooth *= 2.0
            p = 1.0 / (smooth * total)
        else:
            p = matched / total
        log_precisions.append(math.log(p))
    if not log_precisions:
        return 0.0
    score = math.exp(sum(log_precisions) / len(log_precisions))
    if len(hyp_tokens) < len(ref_tokens):
        score *= math.exp(1.0 - len(ref_tokens) / len(hyp_tokens))
    return 100.0 * score


def pseudo_bleu(src_text: str, tgt_text: str, adapter) -> float:
    """BLEU of the adapter's argmax-under-gold-prefix prediction against the
    reference target, both detokenized and whitespace-tokenized."""
    prediction = detokenize_pieces(adapter.predict_argmax(src_text, tgt_text))
    return sentence_bleu_exp(tgt_text.split(), prediction.split())
