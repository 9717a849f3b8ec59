"""Record types backing the vertical, long, and wide corpus formats."""

from __future__ import annotations

import math
from dataclasses import dataclass

from wordbits.ids import ItemId
from wordbits.transcripts import FP_FORMS


@dataclass(slots=True)
class WordRow:
    """One row of the vertical (word-level) format.

    Per-word annotations plus flat segment metadata.  Multitoken surface rows
    carry the raw token and the surprisal values; their expansion rows
    (sub_index >= 1) carry the tree fields and null surprisal.  FP rows carry
    pos == "FP" and nulls everywhere else.
    """

    word_id: ItemId
    id: int | None = None
    token: str | None = None
    lemma: str | None = None
    pos: str | None = None
    xpos: str | None = None
    feats: str | None = None
    head_id: int | None = None
    rel: str | None = None
    deps: str | None = None
    misc: str | None = None
    srp_base_gpt2: float | None = None
    srp_ft_gpt2: float | None = None
    srp_base_mt: float | None = None
    srp_ft_mt: float | None = None
    aligned_word: list[str] | None = None
    aligned_word_id: list[str] | None = None
    doc_id: str | None = None
    seg_id: str | None = None
    lpair: str | None = None
    lang: str | None = None
    mode: str | None = None
    ttype: str | None = None
    speaker_id: str | None = None
    raw_seg: str | None = None

    @property
    def is_fp(self) -> bool:
        return self.pos == "FP"

    @property
    def is_expansion(self) -> bool:
        return self.word_id.sub_index is not None

    def validate(self) -> None:
        if self.is_fp:
            if self.token not in FP_FORMS:
                raise ValueError(f"FP row with non-FP token {self.token!r}")
            if any(v is not None for v in (self.id, self.head_id, self.srp_base_gpt2,
                                           self.srp_ft_gpt2, self.srp_base_mt, self.srp_ft_mt)):
                raise ValueError(f"FP row {self.word_id} carries non-null analysis fields")
        if self.is_expansion:
            if any(v is not None for v in (self.srp_base_gpt2, self.srp_ft_gpt2,
                                           self.srp_base_mt, self.srp_ft_mt)):
                raise ValueError(f"expansion row {self.word_id} carries surprisal")
        for name in ("srp_base_gpt2", "srp_ft_gpt2", "srp_base_mt", "srp_ft_mt"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v < math.inf:
                raise ValueError(f"{name}={v!r} on {self.word_id} is not a finite non-negative value")


@dataclass(slots=True)
class SegmentRecord:
    """One row of the long (segment-level, one side) format."""

    doc_id: str
    seg_id: str
    lpair: str | None = None
    lang: str | None = None
    mode: str | None = None
    ttype: str | None = None
    speaker_id: str | None = None
    base_gpt_avs: float | None = None
    base_gpt_avs_subw: float | None = None
    ft_gpt_avs: float | None = None
    ft_gpt_avs_subw: float | None = None
    disfluencies: int | None = None
    fillers: int | None = None
    fillers_plus_3: int | None = None
    raw_seg: str | None = None
    tokens: list[str] | None = None
    wc_tok: int | None = None


@dataclass(slots=True)
class SegmentPairRecord:
    """One row of the wide (segment-pair) format."""

    src_doc_id: str
    src_seg_id: str
    tgt_doc_id: str | None = None
    tgt_seg_id: str | None = None
    lpair: str | None = None
    mode: str | None = None
    src_raw_seg: str | None = None
    tgt_raw_seg: str | None = None
    base_mt_avs: float | None = None
    base_mt_avs_subw: float | None = None
    ft_mt_avs: float | None = None
    ft_mt_avs_subw: float | None = None
    base_bleu: float | None = None
    ft_bleu: float | None = None


@dataclass
class ParallelSegment:
    """An aligned source/target segment pair used by the corpus builder."""

    seg_id: str
    src_raw: str | None = None
    tgt_raw: str | None = None
    src_tokens: list[str] | None = None
    tgt_tokens: list[str] | None = None
    src_fp_positions: list[int] | None = None
    tgt_fp_positions: list[int] | None = None
    src_speaker_id: str | None = None
    tgt_speaker_id: str | None = None
    src_n_sentences: int | None = None
    tgt_n_sentences: int | None = None

    def side_tokens(self, side: str) -> list[str]:
        raw = self.src_raw if side == "src" else self.tgt_raw
        toks = self.src_tokens if side == "src" else self.tgt_tokens
        if toks is not None:
            return toks
        return raw.split() if raw else []

    def side_empty(self, side: str) -> bool:
        return not self.side_tokens(side)
