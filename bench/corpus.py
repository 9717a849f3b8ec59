"""Seeded synthetic parallel corpora for the benchmark workloads.

A corpus is built from a bilingual lexicon of pseudo-words: each concept has
a German and an English surface, so the benchmark encoder can give both the
same direction and the aligner finds real links.  Segments mix in the
features that exercise the pipeline's special cases: filled pauses, pauses,
truncations, repairs, phonetic variants and a rare unbalanced bracket
(spoken only), English contractions and German fused prepositions
(multiword tokens), abbreviations, decimal and thousands numbers (which
carry commas), percentages before a full stop, hyphenated compounds,
ellipses, commas, empty sides, and a rare "&" that the benchmark parser
rewrites (a parser fallback).  Everything is drawn from ``random.Random``
seeded by the caller, so one seed always gives the same bytes.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics

from wordbits.pipeline import INPUT_COLUMNS
from wordbits.transcripts import FP_FORMS


_SYL_DE = ("ber", "gen", "lich", "keit", "ver", "an", "stand", "schaft", "ung",
           "tra", "mei", "nen", "wer", "den", "ho", "fen", "tig", "zu", "kom",
           "men", "dieß", "ar", "bei", "tet", "rei", "ge", "sam", "mel", "ter")
_SYL_EN = ("con", "tion", "ing", "er", "pro", "ment", "al", "ly", "re", "ver",
           "sit", "ble", "com", "pan", "ous", "de", "fen", "ty", "im", "port",
           "ant", "na", "tive", "ex", "per", "ence", "ward", "ful", "mo")
_FUNC = (("der", "the"), ("und", "and"), ("ist", "is"), ("nicht", "not"),
         ("wir", "we"), ("es", "it"), ("ein", "a"), ("zu", "to"),
         ("mit", "with"), ("auf", "on"), ("für", "for"), ("von", "of"),
         ("dass", "that"), ("sie", "they"), ("auch", "also"), ("in", "in"))
_ABBREV = (("z.B.", "e.g."), ("d.h.", "i.e."), ("Dr.", "Dr."),
           ("usw.", "etc."), ("Nr.", "No."))
_MWT_EN = ("it's", "don't", "we're", "that's", "there's", "can't", "I'm",
           "they've", "we'll")
_MWT_DE = ("zum", "im", "am", "zur", "beim")


def make_lexicon(rng: random.Random, n_concepts: int = 2500) -> list:
    """Concepts as (German, English) surface pairs, most frequent first."""
    lexicon = list(_FUNC)
    seen = {w for pair in lexicon for w in pair}
    while len(lexicon) < n_concepts:
        de = "".join(rng.choice(_SYL_DE) for _ in range(rng.randint(1, 4)))
        en = "".join(rng.choice(_SYL_EN) for _ in range(rng.randint(1, 3)))
        if "ß" in de and rng.random() < 0.9:
            de = de.replace("ß", "ss")
        if rng.random() < 0.3:
            de = de.capitalize()  # nouns
        if de in seen or en in seen:
            continue
        seen.update((de, en))
        lexicon.append((de, en))
    return lexicon


def lexicon(seed: int) -> list:
    return make_lexicon(random.Random(f"lexicon:{seed}"))


class _Drawer:
    """Zipf-weighted concept draws plus the special tokens."""

    def __init__(self, rng, lexicon):
        self.rng = rng
        self.lexicon = lexicon
        self.cum_weights = list(itertools.accumulate(
            1.0 / (k + 1) for k in range(len(lexicon))))

    def pair(self):
        rng = self.rng
        u = rng.random()
        if u < 0.012:
            whole = rng.randint(1, 99)
            frac = rng.randint(1, 9)
            return f"{whole},{frac}", f"{whole}.{frac}"
        if u < 0.018:
            n = rng.randint(1, 99)
            return f"{n}.000", f"{n},000"
        if u < 0.024:
            y = str(rng.randint(1950, 2030))
            return y, y
        if u < 0.030:
            return rng.choice(_ABBREV)
        if u < 0.036:
            a, b = rng.choices(self.lexicon[16:], k=2)
            return a[0] + b[0].lower(), f"{a[1]}-{b[1]}"
        if u < 0.048:
            return rng.choice(_MWT_DE), rng.choice(_MWT_EN)
        return rng.choices(self.lexicon, cum_weights=self.cum_weights)[0]


def _sentence_pair(drawer, n_words, written):
    """Token lists for one aligned sentence pair of about n_words words."""
    rng = drawer.rng
    src, tgt = [], []
    for _ in range(n_words):
        de, en = drawer.pair()
        src.append(de)
        if rng.random() < (0.95 if written else 0.85):  # interpreters compress
            tgt.append(en)
        if rng.random() < 0.07:
            src.append(",")
            tgt.append(",")
    if len(tgt) > 2 and rng.random() < 0.3:
        i = rng.randrange(len(tgt) - 1)
        tgt[i], tgt[i + 1] = tgt[i + 1], tgt[i]
    u = rng.random()
    if u < 0.03:
        pct = f"{rng.randint(2, 95)}%"
        src.append(pct)
        tgt.append(pct)
        end = "."
    elif u < 0.06:
        end = "..."
    elif u < 0.15:
        end = "?"
    else:
        end = "."
    if rng.random() < 0.004:
        src.insert(rng.randrange(len(src) + 1), "&")
    if rng.random() < 0.004:
        tgt.insert(rng.randrange(len(tgt) + 1), "&")
    return _attach(src, end), _attach(tgt, end)


def _attach(tokens, end):
    """Glue commas and the sentence end onto the preceding word."""
    out = []
    for t in tokens:
        if t == "," and out and not out[-1].endswith(","):
            out[-1] += ","
        elif t != ",":
            out.append(t)
    if out:
        out[-1] += end
        out[0] = out[0][:1].upper() + out[0][1:]
    return out


def _segment_tokens(drawer, n_words, written):
    rng = drawer.rng
    src, tgt = [], []
    remaining = n_words
    while remaining > 0:
        k = min(remaining, max(3, int(rng.gauss(14, 6))))
        s, t = _sentence_pair(drawer, k, written)
        src.extend(s)
        tgt.extend(t)
        remaining -= k
    return src, tgt


def _spoken_side(rng, tokens, fp_rate, fp_per_word):
    """Lower-case the opening and add transcript notation."""
    if not tokens:
        return ""
    tokens = list(tokens)
    tokens[0] = tokens[0][:1].lower() + tokens[0][1:]
    out = []
    with_fp = rng.random() < fp_rate
    for tok in tokens:
        if with_fp and rng.random() < fp_per_word:
            fp = rng.choice(FP_FORMS)
            out.append(fp.capitalize() if rng.random() < 0.1 else fp)
        u = rng.random()
        if u < 0.03:
            out.append("/")
        elif u < 0.04 and len(tok) > 3 and tok[0].isalpha():
            out.append(tok[:rng.randint(1, len(tok) - 2)] + "/")
        out.append(tok)
        u = rng.random()
        if u < 0.006 and tok.isalpha():
            out.append(f"{tok} [1#{tok}]")
        elif u < 0.008 and tok.isalpha():
            out.append(f"[{tok[-1]}:{tok[-1]}]")
        elif u < 0.0085:
            out.append("[")
    if with_fp and not any(t.casefold() in FP_FORMS for t in out):
        out.insert(rng.randrange(len(out) + 1), rng.choice(FP_FORMS))
    return " ".join(out)


def _lengths(rng, n_segments, quantile):
    """Segment lengths at evenly spaced quantiles of a length distribution,
    in seeded order: every seed gets the same total, so the amount of work
    does not change with the seed."""
    lengths = [quantile((i + 0.5) / n_segments) for i in range(n_segments)]
    rng.shuffle(lengths)
    return lengths


def spoken_rows(seed: int, n_segments: int) -> list:
    """Input rows for spoken DE->EN, shaped like one direction of the
    released spoken corpus: about 18 source words per segment (lognormal),
    about 37% of target segments with FPs, about 8% empty target sides."""
    rng = random.Random(f"spoken:{seed}")
    drawer = _Drawer(rng, lexicon(seed))
    lognormal = statistics.NormalDist(2.75, 0.55)
    rows = []
    doc, seg = 1, 0
    for n in _lengths(rng, n_segments,
                      lambda p: max(1, int(math.exp(lognormal.inv_cdf(p))))):
        seg += 1
        if seg > rng.randint(20, 40):
            doc, seg = doc + 1, 1
        src, tgt = _segment_tokens(drawer, n, written=False)
        src_raw = "" if rng.random() < 0.022 else _spoken_side(rng, src, 0.135, 0.07)
        tgt_raw = "" if rng.random() < 0.085 else _spoken_side(rng, tgt, 0.40, 0.12)
        rows.append({"doc_id": str(doc), "seg_id": str(seg),
                     "src_speaker_id": f"spk{doc % 60:02d}",
                     "tgt_speaker_id": f"int{doc % 17:02d}",
                     "src_raw": src_raw, "tgt_raw": tgt_raw})
    return rows


def written_rows(seed: int, n_segments: int) -> list:
    """Input rows for written DE->EN with long segments (45 to 75 words per
    source side, so most sides run well past a 64-subword window)."""
    rng = random.Random(f"written:{seed}")
    drawer = _Drawer(rng, lexicon(seed))
    rows = []
    lengths = _lengths(rng, n_segments, lambda p: 45 + int(31 * p))
    for i, n in enumerate(lengths):
        src, tgt = _segment_tokens(drawer, n, written=True)
        rows.append({"doc_id": str(1 + i // 25), "seg_id": str(1 + i % 25),
                     "src_speaker_id": "", "tgt_speaker_id": "",
                     "src_raw": " ".join(src), "tgt_raw": " ".join(tgt)})
    return rows


def write_input_tsv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\t".join(INPUT_COLUMNS) + "\n")
        for row in rows:
            f.write("\t".join(row[c] for c in INPUT_COLUMNS) + "\n")
