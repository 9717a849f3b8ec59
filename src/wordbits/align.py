"""Bidirectional-softmax word alignment over contextual subword embeddings.

Source and target sentences are embedded independently.  The subword
similarity matrix is softmax-normalized over rows (source -> target) and
over columns (target -> source); a subword pair survives when both
directional values clear the threshold, and its score is their mean.  Kept
pairs are then averaged up to word level through subword-to-word maps.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass


@dataclass
class AlignmentLink:
    src_word_index: int
    tgt_word_indices: list  # sorted, non-empty

    def __post_init__(self):
        assert self.tgt_word_indices, "links must have at least one target"
        assert list(self.tgt_word_indices) == sorted(self.tgt_word_indices)


def _softmax(x, axis):
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def subword_align(src_emb, tgt_emb, threshold: float = 0.01):
    """Subword pairs (i, j, score) whose directional softmax values both pass
    the threshold; the score is their mean.

    src_emb, tgt_emb: arrays or vector lists, one row per subword.
    """
    S = np.asarray(src_emb, dtype=float) @ np.asarray(tgt_emb, dtype=float).T
    if S.ndim != 2:
        raise ValueError("embedding inputs must be 2-dimensional")
    A = _softmax(S, axis=1)  # src -> tgt
    B = _softmax(S, axis=0)  # tgt -> src
    M = (A + B) / 2.0
    keep = (A > threshold) & (B > threshold)
    pairs = set()
    for i, j in zip(*np.nonzero(keep)):
        pairs.add((int(i), int(j), float(M[i, j])))
    return pairs


def aggregate_to_words(pairs, src_map, tgt_map, threshold: float = 0.01):
    """Average kept subword pairs up to (source word, target word) links.

    src_map/tgt_map are dicts from a subword index to its word index;
    subwords without a word (FPs, expansions) map to None and are skipped.
    A word-level link is kept when its mean pair score clears the threshold.
    Returns (links, source word indices with a mapped subword pair but no
    link).
    """
    sums = {}
    counts = {}
    seen_src = set()
    for i, j, score in pairs:
        ws = src_map.get(i)
        wt = tgt_map.get(j)
        if ws is None or wt is None:
            continue
        seen_src.add(ws)
        key = (ws, wt)
        sums[key] = sums.get(key, 0.0) + score
        counts[key] = counts.get(key, 0) + 1

    by_src = {}
    for (ws, wt), total in sums.items():
        if total / counts[(ws, wt)] > threshold:
            by_src.setdefault(ws, []).append(wt)

    links = [AlignmentLink(ws, sorted(by_src[ws])) for ws in sorted(by_src)]
    return links, sorted(seen_src - set(by_src))


def alignment_stats(rows):
    """(source token count, % unaligned, % multi-aligned) over vertical rows
    for one subcorpus source side.  FP and expansion rows are excluded."""
    total = 0
    unaligned = 0
    multi = 0
    for row in rows:
        if row.is_fp or row.is_expansion:
            continue
        total += 1
        ids = row.aligned_word_id
        if not ids:
            unaligned += 1
        elif len(ids) > 1:
            multi += 1
    if total == 0:
        raise ValueError("alignment_stats needs at least one source token")
    return total, 100.0 * unaligned / total, 100.0 * multi / total
