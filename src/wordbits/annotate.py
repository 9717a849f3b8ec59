"""Parser-adapter orchestration: FP removal/reinsertion, continuous word
numbering across sentences, multitoken dual representation, and character
spans for downstream realignment.

The parser never sees filler particles.  FPs are stripped from the clean
text, the remainder is parsed as raw text, and FP rows are reinserted at
their original positions with pos == "FP" and nulls everywhere else.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from sys import intern
from typing import NamedTuple

from .adapters import AdapterError, _ReplayBase, attempt
from .records import WordRow
from .transcripts import FP_FORMS

log = logging.getLogger(__name__)

_CONLLU_KEYS = ("id", "form", "lemma", "upos", "xpos", "feats",
                "head", "deprel", "deps", "misc")


class ConlluToken(NamedTuple):
    id: str  # "3" or a multiword range "1-2"
    form: str
    lemma: str = None
    upos: str = None
    xpos: str = None
    feats: str = None
    head: int = None
    deprel: str = None
    deps: str = None
    misc: str = None

    @property
    def is_range(self) -> bool:
        return "-" in self.id

    def range_span(self):
        a, b = self.id.split("-", 1)
        return int(a), int(b)


class ReplayParser(_ReplayBase):
    """Replays recorded parses: one request per (text, lang), response is a
    list of sentences, each a list of CoNLL-U token records."""

    kind = "parser"

    def _decode(self, request, response) -> tuple:
        """The parse as one flat tuple: per sentence, its token count, then
        the ConlluToken field values of its tokens one after another.  A
        tuple of atoms is untracked by the first collection that sees it; one
        holding tuples can stay tracked until a later one."""
        values = []
        for sent in response:
            values.append(len(sent))
            for rec in sent:
                kw = {k: intern(v) if type(v) is str else v
                      for k in _CONLLU_KEYS if (v := rec.get(k)) is not None}
                if "head" in kw:
                    kw["head"] = int(kw["head"])
                values.extend(ConlluToken(**kw))
        return tuple(values)

    def annotate(self, text: str, lang: str):
        flat = self._lookup({"text": text, "lang": lang})
        width = len(_CONLLU_KEYS)
        sentences = []
        at = 0
        while at < len(flat):
            start, at = at + 1, at + 1 + flat[at] * width
            # zip over one iterator cuts the run into token-sized tuples
            sentences.append(list(map(ConlluToken._make,
                                      zip(*[iter(flat[start:at])] * width))))
        return sentences


class MockParser:
    """Deterministic toy parser good enough for pipeline tests: splits
    trailing punctuation, expands common English contractions as multiword
    tokens, ends a sentence at .!? and hangs every token off the first word
    (a sentence of punctuation alone off its first token): each sentence is
    a valid tree."""

    kind = "parser"
    name = "mock-parser"

    _CONTRACTIONS = ("'s", "'re", "'ve", "'ll", "'d", "'m", "n't")

    def _split(self, text: str):
        toks = []
        for ws in text.split():
            left = ws
            trail = []
            while left and left[-1] in ".,;:!?…)\"'" and not (
                    len(left) >= 2 and left[-2] in ".," and left[-1] == "."):
                trail.append(left[-1])
                left = left[:-1]
            if left:
                toks.append(left)
            toks.extend(reversed(trail))
        return toks

    def annotate(self, text: str, lang: str):
        sentences = []
        current = []
        for tok in self._split(text):
            current.append(tok)
            if tok in (".", "!", "?"):
                sentences.append(current)
                current = []
        if current:
            sentences.append(current)

        out = []
        for sent in sentences:
            rows = []
            idx = 0
            root = None
            for tok in sent:
                contraction = None
                if lang == "EN":
                    for suf in self._CONTRACTIONS:
                        if len(tok) > len(suf) and tok.lower().endswith(suf):
                            contraction = (tok[:-len(suf)], tok[-len(suf):])
                            break
                parts = [tok] if contraction is None else list(contraction)
                if contraction is not None:
                    rows.append(ConlluToken(f"{idx + 1}-{idx + 2}", tok))
                for part in parts:
                    idx += 1
                    punct = all(not c.isalnum() for c in part)
                    if root is None and not punct:
                        root = idx
                    rows.append(ConlluToken(
                        str(idx), part, lemma=part.lower(),
                        upos="PUNCT" if punct else ("NUM" if part[0].isdigit() else "X"),
                        deprel="root" if idx == root else ("punct" if punct else "dep")))
            # the first word is known only now; punctuation before it hangs
            # off it too, and a sentence of punctuation off its first token
            head = root or 1
            out.append([tok if tok.is_range else
                        tok._replace(head=0 if int(tok.id) == head else head)
                        for tok in rows])
        return out


@dataclass
class TokenizedSegment:
    word_rows: list = field(default_factory=list)
    surface: list = field(default_factory=list)  # row per surface-word ordinal, FPs too
    scored: list = field(default_factory=list)  # non-FP surface rows, parser order
    words: list = field(default_factory=list)  # their tokens, which scorers realign to
    text: str = ""  # detokenized parser input (FPs absent)
    # surface-word ordinal -> (start, end) in text, for each word placed there
    spans: dict = field(default_factory=dict)
    parsed: bool = True


def validate_sentence_tree(tokens) -> list:
    """Check one sentence's dependency structure: integer ids 1..n, head ids
    in range, exactly one root, no cycles.  Returns a list of problems,
    each cycle once; a walk stops at a token an earlier walk reached."""
    problems = []
    words = [t for t in tokens if not t.is_range]
    ids = [int(t.id) for t in words]
    if ids != list(range(1, len(words) + 1)):
        problems.append(f"non-contiguous ids {ids}")
    heads = {}
    roots = 0
    for t in words:
        if t.head is None:
            problems.append(f"token {t.id} has no head")
            continue
        if t.head == 0:
            roots += 1
        elif t.head not in ids:
            problems.append(f"token {t.id} head {t.head} out of range")
        heads[int(t.id)] = t.head
    if roots != 1:
        problems.append(f"{roots} roots")
    walk_of = {}  # token -> the first token of the walk that reached it
    for start in heads:
        path, node = [], start
        while node in heads and node not in walk_of:
            walk_of[node] = start
            path.append(node)
            node = heads[node]
        if walk_of.get(node) == start:  # back on its own path: a new cycle
            problems.append(f"cycle through tokens {path[path.index(node):]}")
    return problems


def _surface_rows(sentences):
    """Flatten sentences into (surface ConlluToken, its integer id or None
    for a range, expansions as (integer id, ConlluToken) pairs).  A token id
    that is not an integer, or an empty range, raises ValueError."""
    out = []
    for sent in sentences:
        i = 0
        while i < len(sent):
            tok = sent[i]
            if tok.is_range:
                lo, hi = tok.range_span()
                n = hi - lo + 1
                if n < 1:
                    raise ValueError(f"token range {tok.id} is empty")
                out.append((tok, None,
                            [(int(exp.id), exp) for exp in sent[i + 1:i + 1 + n]]))
                i += 1 + n
            else:
                out.append((tok, int(tok.id), []))
                i += 1
    return out


def _place_forms(forms, ws_tokens, raw_seg):
    """Place each parsed form in " ".join(ws_tokens): its owner, the index of
    the whitespace token its first character falls in, and its (start, end)
    span there.  The forms must spell the tokens' characters in order,
    spaces aside; the parser must not invent or drop characters, anything
    else raises AdapterError."""
    target = "".join(ws_tokens)
    starts = list(accumulate((len(t) for t in ws_tokens[:-1]), initial=0))
    cursor = 0
    owners, spans = [], []
    for form in forms:
        key = form.replace(" ", "")
        if target[cursor:cursor + len(key)] != key:
            raise AdapterError(
                f"parsed token {form!r} does not match segment text at offset "
                f"{cursor} ({raw_seg[:60]!r}...)")
        if cursor >= len(target):
            raise AdapterError(f"parsed token {form!r} lies past the segment text")
        owner = bisect_right(starts, cursor) - 1
        end = cursor + len(key)
        # token k's characters sit k spaces further on in the joined text
        last = bisect_right(starts, end - 1) - 1 if key else owner
        owners.append(owner)
        spans.append((cursor + owner, end + last))
        cursor = end
    if cursor != len(target):
        raise AdapterError("parse did not cover the full segment text")
    return owners, spans


# The word-id strings "001" … "999": every row numbering a word below 1000
# takes its string from here rather than formatting one of its own.
_WORD_IDS = tuple(f"{k:03d}" for k in range(1, 1000))


def _word_id(ordinal: int) -> str:
    """The word-id string of 0-based surface-word ordinal."""
    return _WORD_IDS[ordinal] if ordinal < len(_WORD_IDS) else f"{ordinal + 1:03d}"


def _parse(adapter, text, lang, scored_tokens, clean_text):
    """(surfaces, owners, spans) of the adapter's parse of text; a sentence
    that validate_sentence_tree finds broken raises AdapterError."""
    sentences = adapter.annotate(text, lang) if text else []
    surfaces = _surface_rows(sentences)
    broken = [f"sentence {k}: {', '.join(problems)}"
              for k, sent in enumerate(sentences, start=1)
              if (problems := validate_sentence_tree(sent))]
    if broken:
        raise AdapterError(f"broken dependency tree ({'; '.join(broken)})")
    return (surfaces, *_place_forms([s.form for s, _, _ in surfaces],
                                    scored_tokens, clean_text))


def annotate_segment(clean_text: str, fp_positions, lang: str, ids,
                     adapter) -> TokenizedSegment:
    """Parse one clean segment into WordRow skeletons.

    clean_text is the normalized segment with FPs still present at the
    whitespace-token indices in fp_positions; ids is an ItemId prefix with
    doc and seg set.  Surprisal and alignment columns are filled later.  A
    position not at an FP form is dropped with a warning: its token is a word.
    Without a parser (adapter None), or when the parse fails (a broken
    dependency tree too), each whitespace token becomes a token-only row.
    """
    ws_tokens = clean_text.split()
    positions = sorted(set(fp_positions or []))
    fp_set = {p for p in positions
              if 0 <= p < len(ws_tokens) and ws_tokens[p].casefold() in FP_FORMS}
    dropped = [p for p in positions if p not in fp_set]
    if dropped:
        log.warning("%s: fp positions %s do not point at an FP; dropped",
                    ids.render(), dropped)
    scored_tokens = [t for i, t in enumerate(ws_tokens) if i not in fp_set]
    text = " ".join(scored_tokens)

    placed = None if adapter is None and text else attempt(
        adapter, ids, "keeping token-only rows", _parse, adapter, text, lang,
        scored_tokens, clean_text)
    parsed = placed is not None
    if not parsed:
        # no parser, or a failed one: one row per whitespace token
        placed = ([(ConlluToken("0", tok), None, []) for tok in scored_tokens],
                  *_place_forms(scored_tokens, scored_tokens, clean_text))
    surfaces, owners, spans = placed

    # owners index scored_tokens; translate to positions among all ws tokens
    scored_ws = [i for i in range(len(ws_tokens)) if i not in fp_set]
    owners = [scored_ws[o] for o in owners]

    seg = TokenizedSegment(text=text, parsed=parsed)
    pending_fps = sorted(fp_set, reverse=True)

    def add_fp():
        ordinal = len(seg.surface)
        row = WordRow(word_id=ids.with_word(_word_id(ordinal)),
                      token=ws_tokens[pending_fps.pop()].casefold(), pos="FP")
        seg.surface.append(row)
        seg.word_rows.append(row)

    for (tok, tok_id, expansions), owner, span in zip(surfaces, owners, spans):
        # an FP row goes before the first parsed token at or past it
        while pending_fps and pending_fps[-1] < owner:
            add_fp()
        ordinal = len(seg.surface)
        seg.spans[ordinal] = span
        word_id = _word_id(ordinal)
        surface = WordRow(
            word_id=ids.with_word(word_id),
            id=tok_id,
            token=tok.form,
        )
        if parsed and not expansions:
            surface.lemma = tok.lemma
            surface.pos = tok.upos
            surface.xpos = tok.xpos
            surface.feats = tok.feats
            surface.head_id = tok.head
            surface.rel = tok.deprel
            surface.deps = tok.deps
            surface.misc = tok.misc
        seg.surface.append(surface)
        seg.word_rows.append(surface)
        for k, (exp_id, exp) in enumerate(expansions, start=1):
            seg.word_rows.append(WordRow(
                word_id=ids.with_word(word_id, k),
                id=exp_id, token=exp.form, lemma=exp.lemma, pos=exp.upos,
                xpos=exp.xpos, feats=exp.feats, head_id=exp.head,
                rel=exp.deprel, deps=exp.deps, misc=exp.misc))
    while pending_fps:
        add_fp()
    seg.scored = [row for row in seg.surface if not row.is_fp]
    seg.words = [row.token for row in seg.scored]
    return seg
