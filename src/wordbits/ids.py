"""Hierarchical item identifiers for documents, segments, words, and subword rows.

Rendered form: <ttype>_<mode>_<src>_<tgt>_<doc>-<seg>[:<word>[:<sub>]], e.g.
``ORG_SP_DE_EN_131-02:001``.  Text types that imply their mode (interpreted
speech is spoken, translation is written) render without the mode component:
``SI_DE_EN_030-21:010:1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

MODES = ("SP", "WR")

# Text types whose mode is implied; these render without an explicit mode.
IMPLIED_MODE = {"SI": "SP", "TR": "WR"}

_TTYPE_RE = re.compile(r"[A-Z][A-Z0-9]*")
_LANG_RE = re.compile(r"[A-Z]{2}")
_TAIL_RE = re.compile(r"(\d+)-(\d+)(?::(\d+))?(?::(\d+))?")
# what follows a head's first ":" when item_id_reader may skip the full parse
_WORD_TAIL_RE = re.compile(r"([0-9]+)(?::([0-9]+))?")


class ItemIdError(ValueError):
    """Malformed item id; ``component`` names the offending part."""

    def __init__(self, message: str, component: str):
        super().__init__(f"{message} (component: {component})")
        self.component = component


@dataclass(frozen=True, slots=True)
class ItemId:
    ttype: str
    mode: str
    src_lang: str
    tgt_lang: str
    doc_id: str
    seg_id: str
    word_id: str | None = None
    sub_index: int | None = None
    # False for ids whose ttype implies the mode; such ids render in the
    # short three-component form so that parse(render(x)) == x.
    explicit_mode: bool = True

    def __post_init__(self):
        if self.sub_index is not None and self.word_id is None:
            raise ItemIdError("sub_index requires a word_id", "sub_index")
        if self.mode not in MODES:
            raise ItemIdError(f"unknown mode {self.mode!r}", "mode")

    def render(self) -> str:
        head = [self.ttype]
        if self.explicit_mode:
            head.append(self.mode)
        head += [self.src_lang, self.tgt_lang, f"{self.doc_id}-{self.seg_id}"]
        s = "_".join(head)
        if self.word_id is not None:
            s += f":{self.word_id}"
            if self.sub_index is not None:
                s += f":{self.sub_index}"
        return s

    def __str__(self) -> str:
        return self.render()

    def with_word(self, word_id: str, sub_index: int | None = None) -> "ItemId":
        # half the time of dataclasses.replace, once per vertical row
        return ItemId(self.ttype, self.mode, self.src_lang, self.tgt_lang, self.doc_id,
                      self.seg_id, word_id, sub_index, self.explicit_mode)


def parse_item_id(s: str) -> ItemId:
    """Parse a rendered item id; raises ItemIdError naming the bad component."""
    if not s:
        raise ItemIdError("empty id", "ttype")
    parts = s.split("_")
    ttype = parts[0]
    if not _TTYPE_RE.fullmatch(ttype):
        raise ItemIdError(f"bad text type {ttype!r}", "ttype")
    if len(parts) < 2:
        raise ItemIdError("missing mode and languages", "mode")
    if parts[1] in MODES:
        mode, explicit, idx = parts[1], True, 2
    else:
        mode = IMPLIED_MODE.get(ttype)
        if mode is None:
            raise ItemIdError(f"cannot infer mode for text type {ttype!r}", "mode")
        explicit, idx = False, 1
    if idx >= len(parts):
        raise ItemIdError("missing src_lang", "src_lang")
    src = parts[idx]
    if not _LANG_RE.fullmatch(src):
        raise ItemIdError(f"bad source language {src!r}", "src_lang")
    idx += 1
    if idx >= len(parts):
        raise ItemIdError("missing tgt_lang", "tgt_lang")
    tgt = parts[idx]
    if not _LANG_RE.fullmatch(tgt):
        raise ItemIdError(f"bad target language {tgt!r}", "tgt_lang")
    idx += 1
    if idx >= len(parts):
        raise ItemIdError("missing doc-seg part", "doc_id")
    if idx != len(parts) - 1:
        raise ItemIdError(f"unexpected extra components {parts[idx + 1:]!r}", "doc_id")
    m = _TAIL_RE.fullmatch(parts[idx])
    if not m:
        raise ItemIdError(f"bad doc-seg part {parts[idx]!r}", "seg_id")
    doc, seg, word, sub = m.groups()
    return ItemId(
        ttype,
        mode,
        src,
        tgt,
        doc,
        seg,
        word,
        int(sub) if sub is not None else None,
        explicit_mode=explicit,
    )


def item_id_reader(keep: Callable[[str], str]) -> Callable[[str], ItemId]:
    """A parse_item_id that parses each ``<ttype>…<doc>-<seg>`` head once.

    An id splits at its first ":" into head and word tail.  The head is
    parsed the first time it is seen, and the ItemId is built from its
    components, with the word id taken through ``keep``.  Any other id (a
    bad head, or a tail that is not ASCII ``digits`` or ``digits:digits``)
    goes through the full parse_item_id, so it parses or raises exactly as
    parse_item_id does."""
    heads: dict[str, ItemId] = {}

    def parse(s: str) -> ItemId:
        head, colon, tail = s.partition(":")
        m = _WORD_TAIL_RE.fullmatch(tail) if colon else None
        if colon and m is None:
            return parse_item_id(s)
        base = heads.get(head)
        if base is None:
            try:
                base = heads[head] = parse_item_id(head)
            except ItemIdError:
                return parse_item_id(s)  # the head is bad, so this raises for the id
        if m is None:
            return base
        word, sub = m.groups()
        return ItemId(base.ttype, base.mode, base.src_lang, base.tgt_lang, base.doc_id,
                      base.seg_id, keep(word), None if sub is None else int(sub),
                      base.explicit_mode)

    return parse
