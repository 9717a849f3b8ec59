"""Parsing and normalization of disfluency-annotated spoken transcripts.

Notation handled here:

  ``/``            standalone: a pause; removed from the clean text.
  ``token/``       a fragment (word broken off).  Classified as a midword
                   break when a following continuation is resolved by a
                   repair marker, otherwise as a truncation.  Removed.
  ``[N#text]``     repair: the preceding disfluent region (fragments and
                   restarts back to the last fluent anchor) is replaced by
                   ``text``.  With empty ``text`` the immediately preceding
                   fluent token is kept and the disfluent region deleted.
                   ``N`` is recorded but the region extent is determined
                   structurally, not from ``N``.
  ``[x:rest]``     phonetic/lengthening variant of the preceding token; the
                   bracket is deleted and the preceding standardized token
                   kept.
  FPs              filled pauses; surface variants case-folded to one of
                   ``euh``, ``hum``, ``hm`` and kept in the clean text.

Text directly after a ``]`` reads as if a space stood before it, with one
exception: punctuation right after a repair's replacement text ends that text
(``[6#amendments].`` gives ``amendments.``).

Unbalanced brackets yield an ``unresolved`` event and a warning, never a
hard failure.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

log = logging.getLogger(__name__)

FP_FORMS = ("euh", "hum", "hm")

# Categories counted by fillers_plus_3 on top of FPs.
_F3_KINDS = {"FP", "truncation", "midword_break", "repetition_repair"}

_TOKEN = re.compile(r"\[[^\[\]]*\]|[^\s\[]+|\[")
_BRACKET = re.compile(r"\[([^\[\]]*)\]")
# punctuation that, right after a repair's "]", ends the replacement text
_REPAIR_TRAIL = re.compile(r"[^\w\[\]/]+")
_REPAIR = re.compile(r"(\d+)#(.*)", re.DOTALL)
_VARIANT = re.compile(r"([^:#]*):(.*)", re.DOTALL)


@dataclass
class DisfluencyEvent:
    kind: str
    span: tuple[int, int]
    resolution: str | None = None
    n: int | None = None  # the numeral of a [N#text] marker, recorded only


@dataclass
class SegmentDisfluencyCounts:
    disfluencies: int
    fillers: int
    fillers_plus_3: int


@dataclass
class _Entry:
    surface: str
    is_fragment: bool = False
    is_fp: bool = False
    span: tuple[int, int] = (0, 0)


def _lex(raw: str):
    for m in _TOKEN.finditer(raw):
        yield m.group(0), m.start(), m.end()


def _classify_fragments(region: list[_Entry], replacement: str, events: list[DisfluencyEvent]):
    """Emit truncation/midword_break events for fragments inside a repair region."""
    repl_cat = "".join(replacement.split()).casefold()
    for idx, e in enumerate(region):
        if not e.is_fragment:
            continue
        kind = "truncation"
        if repl_cat and idx + 1 < len(region) and not region[idx + 1].is_fragment:
            if (e.surface + region[idx + 1].surface).casefold() == repl_cat:
                kind = "midword_break"
        events.append(DisfluencyEvent(kind, e.span))


def _apply_repair(pending: list[_Entry], events: list[DisfluencyEvent],
                  n: int, replacement: str, span: tuple[int, int]):
    repl_tokens = replacement.split()
    compare = {t.casefold() for t in repl_tokens[:1]}
    region_rev: list[_Entry] = []
    i = len(pending) - 1
    kept = None
    if repl_tokens:
        if i >= 0 and not pending[i].is_fragment and not pending[i].is_fp:
            region_rev.append(pending[i])
            i -= 1
    else:
        if i >= 0 and not pending[i].is_fragment and not pending[i].is_fp:
            kept = pending[i]
            compare.add(kept.surface.casefold())
            i -= 1
    # Walk back over the disfluent region: fragments always absorb; a fluent
    # token absorbs when it restarts the token behind it (same surface past
    # any fragments) or repeats the kept/replacement head.
    while i >= 0:
        e = pending[i]
        if e.is_fp:
            break
        if e.is_fragment:
            region_rev.append(e)
            i -= 1
            continue
        fx = e.surface.casefold()
        j = i - 1
        while j >= 0 and pending[j].is_fragment:
            j -= 1
        behind = j >= 0 and not pending[j].is_fp and pending[j].surface.casefold() == fx
        if behind or fx in compare:
            region_rev.append(e)
            i -= 1
            continue
        break
    region = list(reversed(region_rev))
    _classify_fragments(region, replacement, events)

    fluent_in_region = [e for e in region if not e.is_fragment]
    if repl_tokens and len(fluent_in_region) == 1 and len(region) == 1 and len(repl_tokens) > 1:
        kind = "contraction_expansion"
    else:
        kind = "repetition_repair"
    events.append(DisfluencyEvent(kind, span, resolution=replacement or None, n=n))

    del pending[i + 1:]
    if kept is not None:
        # the kept entry was popped off with the walk; reattach it
        pending.append(kept)
    pending.extend(_Entry(t, span=span) for t in repl_tokens)


def parse_transcript(raw: str) -> tuple[list[DisfluencyEvent], list[str]]:
    """Parse annotated transcript text into (events, clean surface tokens).

    Tokens are the post-resolution surfaces with FPs left in place; all
    notation is consumed.
    """
    events: list[DisfluencyEvent] = []
    pending: list[_Entry] = []
    glue_at = None  # end offset of the last repair with replacement text
    for text, start, end in _lex(raw):
        span = (start, end)
        if start == glue_at and _REPAIR_TRAIL.fullmatch(text):
            pending[-1].surface += text
            continue
        if set(text) == {"/"}:
            events.append(DisfluencyEvent("pause", span))
            continue
        if text == "[":
            log.warning("unbalanced '[' at offset %d", start)
            events.append(DisfluencyEvent("unresolved", span))
            continue
        m = _BRACKET.fullmatch(text)
        if m:
            inner = m.group(1)
            rm = _REPAIR.fullmatch(inner)
            if rm:
                _apply_repair(pending, events, int(rm.group(1)), rm.group(2), span)
                if rm.group(2).split():
                    glue_at = end
                continue
            vm = _VARIANT.fullmatch(inner)
            if vm:
                events.append(DisfluencyEvent(
                    "phonetic_variant", span, resolution=vm.group(1) + vm.group(2)))
                continue
            log.warning("unrecognized bracket %r at offset %d", text, start)
            events.append(DisfluencyEvent("unresolved", span))
            continue
        if "]" in text:
            log.warning("unbalanced ']' in %r at offset %d", text, start)
            events.append(DisfluencyEvent("unresolved", span))
            cleaned = text.replace("]", "")
            if cleaned:
                pending.append(_Entry(cleaned, span=span))
            continue
        stripped = text.rstrip("/")
        if stripped != text:
            pending.append(_Entry(stripped, is_fragment=True, span=span))
            continue
        if text.casefold() in FP_FORMS:
            pending.append(_Entry(text.casefold(), is_fp=True, span=span))
            events.append(DisfluencyEvent("FP", span))
            continue
        pending.append(_Entry(text, span=span))

    for e in pending:
        if e.is_fragment:
            events.append(DisfluencyEvent("truncation", e.span))
    tokens = [e.surface for e in pending if not e.is_fragment]
    events.sort(key=lambda ev: ev.span)
    return events, tokens


def count_events(events: list[DisfluencyEvent]) -> SegmentDisfluencyCounts:
    fillers = sum(1 for e in events if e.kind == "FP")
    f3 = sum(1 for e in events if e.kind in _F3_KINDS)
    return SegmentDisfluencyCounts(len(events), fillers, f3)


def normalize_segment(raw: str) -> tuple[str, list[int], SegmentDisfluencyCounts]:
    """Normalize one annotated segment.

    Returns (clean text, FP token positions, disfluency counts).  The first
    token is capitalized unless the segment opens with an FP; FP surfaces are
    already case-folded by the parser.
    """
    events, tokens = parse_transcript(raw)
    fp_positions = [i for i, t in enumerate(tokens) if t in FP_FORMS]
    if tokens and tokens[0] not in FP_FORMS:
        tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
    return " ".join(tokens), fp_positions, count_events(events)
