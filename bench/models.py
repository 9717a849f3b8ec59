"""The benchmark's own model stand-ins, replay recorder and in-memory tables.

The scorers cost O(1) per subword: a piece's log probability depends only
on the piece and the one before it (and, for MT, on a checksum of the
source computed once per call), hashed with zlib.crc32.  The package's
mock adapters hash the whole preceding context instead, which makes them
O(n^2) and lets the mock, not the pipeline, dominate a profile.

Responses use the wire shapes documented in ``wordbits.adapters``, so the
same objects can be written as replay files (``Recorder``) or served from
memory (``TableLM``, ``TableParser``).
"""

from __future__ import annotations

import random
import re
import zlib
from functools import lru_cache

from wordbits.adapters import SubwordScore, is_punct_text, request_key, write_replay
from wordbits.annotate import ConlluToken

CHUNK = 4
_PIECE = re.compile(r"'\w+|\w+|[^\w\s]+")
_SPLIT = re.compile(r"\S+")


def _unit(*parts) -> float:
    return zlib.crc32("\x1f".join(parts).encode("utf-8")) / 4294967296.0


@lru_cache(maxsize=4096)
def tokenize(text: str) -> tuple:
    """Subword pieces as (surface, begins_word, start, end).

    Word runs are cut into chunks of up to CHUNK characters, an apostrophe
    opens a new piece ("It" + "'s"), and a punctuation run is one piece, so
    "5%." gives "5" + "%.".  The vocabulary has no "ß": it comes out as
    "s", so the realignment cascade cannot recover those words.  The mapping
    keeps lengths, so re-tokenizing detokenized pieces gives the same
    pieces.
    """
    out = []
    for ws in _SPLIT.finditer(text):
        first = True
        base = ws.start()
        for m in _PIECE.finditer(ws.group()):
            run = m.group()
            start = base + m.start()
            if run[0] == "'" or not run[0].isalnum() and run[0] != "_":
                out.append((run, first, start, start + len(run)))
                first = False
                continue
            for i in range(0, len(run), CHUNK):
                piece = run[i:i + CHUNK]
                out.append((piece.replace("ß", "s"), first, start + i,
                            start + i + len(piece)))
                first = False
    return tuple(out)


class Scorer:
    """Causal LM stand-in; with ``src`` given to ``score`` it is an MT model
    scoring the target teacher-forced."""

    def __init__(self, name: str, scale: float = 14.9):
        self.name = name
        self.scale = scale

    def pieces(self, text: str, src: str = None) -> list:
        """(surface, base-2 logprob rounded to 4 places, begins_word)."""
        ctx = self.name if src is None else f"{self.name}:{zlib.crc32(src.encode())}"
        prev = ""
        out = []
        for surface, begins, _start, _end in tokenize(text):
            lp = -round(0.1 + self.scale * _unit(ctx, prev, surface), 4)
            out.append((surface, lp, begins))
            prev = surface
        return out

    def score(self, text: str, src: str = None) -> list:
        return [SubwordScore(s, lp, b, is_punct_text(s))
                for s, lp, b in self.pieces(text, src)]

    def argmax(self, src: str, tgt: str) -> list:
        """Greedy prediction under the gold prefix: the gold piece, except
        where a hash of the context says the model guesses another word."""
        ctx = f"{self.name}:{zlib.crc32(src.encode())}"
        out = []
        prev = ""
        for surface, begins, _start, _end in tokenize(tgt):
            guess = surface
            if _unit(ctx, prev, surface, "argmax") < 0.25:
                guess = surface[::-1] + "x"
            out.append((guess, begins))
            prev = surface
        return out


class Encoder:
    """Contextual-embedding stand-in: every piece gets the direction of the
    concept its word belongs to, so translation pairs (and commas) align."""

    dim = 16

    def __init__(self, lexicon):
        self.concept = {}
        for k, (de, en) in enumerate(lexicon):
            self.concept.setdefault(de.casefold(), k)
            self.concept.setdefault(en.casefold(), k)
        self._vecs = {}

    def _vec(self, key: str) -> list:
        vec = self._vecs.get(key)
        if vec is None:
            rng = random.Random(key)  # str seeds are hashed with sha512
            raw = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
            norm = sum(v * v for v in raw) ** 0.5
            vec = [round(8.0 * v / norm, 3) for v in raw]
            self._vecs[key] = vec
        return vec

    def embed(self, text: str) -> list:
        out = []
        words = {m.start(): m.group() for m in _SPLIT.finditer(text)}
        owner = ""
        for _surface, begins, start, end in tokenize(text):
            if begins:
                word = words[start].rstrip(",.?!%").casefold()
                if word[:1].isdigit():
                    word = re.sub(r"\D", "", word)  # 3,5 and 3.5 are one number
                owner = str(self.concept.get(word, word))
            surface = text[start:end]
            key = surface if is_punct_text(surface) else owner
            out.append((surface, (start, end), self._vec(key)))
        return out


_ABBREVIATIONS = {"z.b.", "d.h.", "dr.", "usw.", "nr.", "e.g.", "i.e.", "etc.",
                  "no."}
_NUMBER = re.compile(r"\d+(?:[.,]\d+)*")
_MWT = {
    "EN": ("'s", "'re", "'m", "n't", "'ve", "'ll"),
    "DE": {"zum": ("zu", "dem"), "im": ("in", "dem"), "am": ("an", "dem"),
           "zur": ("zu", "der"), "beim": ("bei", "dem")},
}
_TRAIL = ",.?!;:"
_ENDS = {".", "?", "!"}


def _parser_tokens(ws: str) -> list:
    """Split one whitespace token into parser surface forms."""
    if ws.casefold() in _ABBREVIATIONS or _NUMBER.fullmatch(ws):
        return [ws]
    trail = []
    while ws and ws[-1] in _TRAIL and ws.casefold() not in _ABBREVIATIONS:
        trail.append(ws[-1])
        ws = ws[:-1]
    head = []
    if ws.endswith("%") and ws[:-1].isdigit():
        head = [ws[:-1], "%"]
    elif ws == "&":
        head = ["and"]  # a normalizing parser: the forms no longer match
    elif ws:
        head = [ws]
    return head + trail[::-1]


def parse(text: str, lang: str) -> list:
    """Dependency parse in the replay wire shape: one list of CoNLL-U token
    dicts per sentence.  Sentences end after a run of . ? or !; the first
    word is the root and every other token hangs off it."""
    forms = [f for ws in text.split() for f in _parser_tokens(ws)]
    sentences, current = [], []
    for i, form in enumerate(forms):
        current.append(form)
        nxt = forms[i + 1] if i + 1 < len(forms) else ""
        if form in _ENDS and nxt not in _ENDS:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    mwt = _MWT[lang]
    out = []
    for sent in sentences:
        rows, idx, root = [], 0, None
        for form in sent:
            parts = [form]
            if lang == "EN":
                for suffix in mwt:
                    if form.casefold().endswith(suffix) and len(form) > len(suffix):
                        parts = [form[:-len(suffix)], form[-len(suffix):]]
                        break
            elif form.casefold() in mwt:
                parts = list(mwt[form.casefold()])
            if len(parts) > 1:
                rows.append({"id": f"{idx + 1}-{idx + len(parts)}", "form": form})
            for part in parts:
                idx += 1
                punct = not any(c.isalnum() for c in part)
                if root is None and not punct:
                    root = idx
                rows.append({"id": str(idx), "form": part, "lemma": part.casefold(),
                             "upos": "PUNCT" if punct else "X", "head": idx})
        root = root or 1
        for row in rows:
            if "head" in row:
                row["head"] = 0 if row["head"] == root else root
                row["deprel"] = "root" if row["head"] == 0 else "dep"
        out.append(rows)
    return out


# --- replay recording ------------------------------------------------------

def score_response(model: Scorer, text: str, src: str = None) -> list:
    return [{"surface": s, "logprob": lp, "begins_word": b}
            for s, lp, b in model.pieces(text, src)]


def argmax_response(model: Scorer, src: str, tgt: str) -> list:
    return [{"surface": s, "begins_word": b} for s, b in model.argmax(src, tgt)]


def embed_response(model: Encoder, text: str) -> list:
    return [{"surface": s, "span": list(span), "vec": v} for s, span, v in model.embed(text)]


class Recorder:
    """The (request, response) pairs of one adapter role, written out as a
    replay file."""

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        self.records = {}

    def add(self, request: dict, response) -> None:
        self.records.setdefault(request_key(request), (request, response))

    def write(self, path) -> None:
        meta = {"kind": self.kind, "name": self.name, "log_base": "2"}
        write_replay(path, meta, self.records.values())


# --- in-memory tables ------------------------------------------------------

class TableLM:
    """Causal LM role served from a dict built in set-up, so a call costs one
    lookup.  A text missing from the table is scored directly and counted."""

    kind = "causal_lm"
    log_base = "2"

    def __init__(self, scorer: Scorer):
        self.scorer = scorer
        self.name = scorer.name
        self.table = {}
        self.missed = []  # list.append is atomic across the pool threads

    def add(self, text: str) -> list:
        subs = self.table.get(text)
        if subs is None:
            subs = self.table[text] = self.scorer.score(text)
        return subs

    def add_windows(self, subs: list, window: int, detokenize) -> None:
        """Enter every window slice the sliding-window scorer will request.

        The scorer conditions on one preceding piece, so a slice scores like
        the full text except for its first piece, which loses its context.
        """
        for i in range(window, len(subs)):
            ctx = subs[i - window + 1:i + 1]
            text = detokenize(ctx)
            if text in self.table:
                continue
            first = ctx[0]
            lp = self.scorer.pieces(first.surface)[0][1]
            self.table[text] = [SubwordScore(first.surface, lp, True,
                                             first.is_punct_unit)] + ctx[1:]

    def score(self, text: str) -> list:
        subs = self.table.get(text)
        if subs is None:
            self.missed.append(text)
            return self.scorer.score(text)
        return subs


class TableParser:
    """Parser role served from a dict of prebuilt CoNLL-U token lists."""

    kind = "parser"
    name = "bench-parser"

    def __init__(self):
        self.table = {}
        self.missed = []

    def add(self, text: str, lang: str) -> None:
        key = (text, lang)
        if key not in self.table:
            self.table[key] = [[ConlluToken(**r) for r in sent]
                               for sent in parse(text, lang)]

    def annotate(self, text: str, lang: str):
        sentences = self.table.get((text, lang))
        if sentences is None:
            self.missed.append(text)
            return [[ConlluToken(**r) for r in sent] for sent in parse(text, lang)]
        return sentences
