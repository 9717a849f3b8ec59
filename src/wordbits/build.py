"""Corpus-level filtering, overlap removal, balancing, splits, and stats.

Pipeline order is fixed: empty-segment filter -> score filter -> overlap
removal -> split.  All steps are pure over document lists; the split is
single-threaded and deterministic under its seed.
"""

from __future__ import annotations

import logging
import random
import statistics
from dataclasses import dataclass, replace

from .config import target_ttype

log = logging.getLogger(__name__)

TEST_DOCS_PER_DIRECTION = 170
MIN_TEST_SEGMENTS = 12


@dataclass
class DocumentPair:
    doc_id: str
    segments: list  # ParallelSegment, ordered
    alignment_score: float = None
    speaker_id: str = None
    date: str = None
    lpair: str = None  # "de-en" or "en-de"
    mode: str = None  # "sp" or "wr"
    src_ttype: str = "ORG"
    tgt_ttype: str = None

    @property
    def n_segments(self) -> int:
        return len(self.segments)


@dataclass
class SplitResult:
    test: list
    train: list
    dropped: list  # subsampled away during balancing


def filter_empty_segments(doc: DocumentPair, mode: str = "wr"):
    """Apply the written-corpus empty-segment rule.

    An empty-aligned segment in the middle of a document drops the whole
    document when its non-empty side has more than three words; empty pairs
    at the edges, or with three or fewer words opposite, are just removed.
    Returns (kept document or None, report dict).
    """
    report = {"doc_id": doc.doc_id, "dropped_doc": False, "removed_segments": []}
    if mode != "wr":
        return doc, report
    n = len(doc.segments)
    removable = set()
    for i, seg in enumerate(doc.segments):
        src_empty = seg.side_empty("src")
        tgt_empty = seg.side_empty("tgt")
        if not (src_empty or tgt_empty):
            continue
        other = len(seg.side_tokens("src" if tgt_empty else "tgt"))
        at_edge = i == 0 or i == n - 1
        if at_edge or other <= 3:
            removable.add(i)
        else:
            report["dropped_doc"] = True
            return None, report
    if not removable:
        return doc, report
    report["removed_segments"] = sorted(removable)
    kept = [s for i, s in enumerate(doc.segments) if i not in removable]
    return replace(doc, segments=kept), report


def filter_by_score(docs, cutoff: float):
    """Documents whose alignment score strictly exceeds the cutoff; missing
    scores exclude the document with a warning."""
    kept = []
    for doc in docs:
        if doc.alignment_score is None:
            log.warning("document %s has no alignment score, excluded", doc.doc_id)
            continue
        if doc.alignment_score > cutoff:
            kept.append(doc)
    return kept


def overlap_key(doc: DocumentPair):
    if doc.date is None or doc.speaker_id is None or doc.lpair is None:
        return None
    return (doc.date, doc.speaker_id, doc.lpair)


def remove_overlap(written, spoken):
    """Drop written documents whose speech also appears in the spoken data."""
    spoken_keys = {k for k in (overlap_key(d) for d in spoken) if k is not None}
    kept = []
    for doc in written:
        key = overlap_key(doc)
        if key is not None and key in spoken_keys:
            continue
        kept.append(doc)
    return kept


def _pick_test(pool, target_segments: int):
    """Greedy selection of the test documents for one direction: repeatedly
    take the eligible document whose segment count is closest to the ideal
    average of what remains to be covered.  Seed-independent; ties break on
    doc_id."""
    eligible = sorted((d for d in pool if d.n_segments >= MIN_TEST_SEGMENTS),
                      key=lambda d: d.doc_id)
    if len(eligible) < TEST_DOCS_PER_DIRECTION:
        raise ValueError(
            f"need {TEST_DOCS_PER_DIRECTION} documents with >= "
            f"{MIN_TEST_SEGMENTS} segments, have {len(eligible)}")
    chosen = []
    remaining = target_segments
    for k in range(TEST_DOCS_PER_DIRECTION):
        ideal = remaining / (TEST_DOCS_PER_DIRECTION - k)
        best = min(eligible, key=lambda d: (abs(d.n_segments - ideal), d.doc_id))
        eligible.remove(best)
        chosen.append(best)
        remaining -= best.n_segments
    return chosen


def make_splits(written, spoken_sizes: dict, seed: int) -> SplitResult:
    """Test/train split of the written corpus.

    spoken_sizes maps direction -> spoken segment count; the test split takes
    170 documents per direction with at least 12 segments each, greedily
    matching that size profile.  The remainder is the train split, with the
    larger direction subsampled (whole documents, seeded shuffle) to the
    smaller one's segment count.
    """
    if not written:
        raise ValueError("no written documents are left to split")
    by_dir = {}
    for doc in written:
        by_dir.setdefault(doc.lpair, []).append(doc)
    if set(spoken_sizes) - set(by_dir):
        raise ValueError(f"missing directions: {sorted(set(spoken_sizes) - set(by_dir))}")

    test = []
    train_pools = {}
    for direction, pool in sorted(by_dir.items()):
        chosen = _pick_test(pool, spoken_sizes.get(direction, 0))
        chosen_ids = {d.doc_id for d in chosen}
        test.extend(chosen)
        train_pools[direction] = [d for d in pool if d.doc_id not in chosen_ids]

    sizes = {d: sum(doc.n_segments for doc in pool)
             for d, pool in train_pools.items()}
    target = min(sizes.values())
    train = []
    dropped = []
    rng = random.Random(seed)
    for direction in sorted(train_pools):
        pool = sorted(train_pools[direction], key=lambda d: d.doc_id)
        if sizes[direction] == target:
            train.extend(pool)
            continue
        rng.shuffle(pool)
        total = 0
        for i, doc in enumerate(pool):
            if total + doc.n_segments > target:
                # stop at the first overflow so the imbalance stays under
                # one document's worth of segments
                dropped.extend(pool[i:])
                break
            train.append(doc)
            total += doc.n_segments
    return SplitResult(test=test, train=train, dropped=dropped)


def _length_stats(lengths):
    if not lengths:
        return None, None, None, None
    mean = sum(lengths) / len(lengths)
    sd = statistics.pstdev(lengths) if len(lengths) > 1 else 0.0
    return mean, sd, min(lengths), max(lengths)


def describe(docs) -> list:
    """Per (mode, lpair, side) descriptive statistics as plain dicts."""
    groups = {}
    for doc in docs:
        for side in ("src", "tgt"):
            ttype = (doc.src_ttype if side == "src"
                     else target_ttype(doc.mode, doc.tgt_ttype))
            key = (doc.mode, doc.lpair, side, ttype)
            g = groups.setdefault(key, {
                "docs": 0, "segs": 0, "words": 0, "empty": 0, "fp": 0,
                "segs_with_fp": 0, "multi_sentence": 0, "lengths": []})
            g["docs"] += 1
            for seg in doc.segments:
                toks = seg.side_tokens(side)
                g["segs"] += 1
                g["words"] += len(toks)
                if not toks:
                    g["empty"] += 1
                else:
                    g["lengths"].append(len(toks))
                fps = (seg.src_fp_positions if side == "src"
                       else seg.tgt_fp_positions) or []
                g["fp"] += len(fps)
                if fps:
                    g["segs_with_fp"] += 1
                nsent = (seg.src_n_sentences if side == "src"
                         else seg.tgt_n_sentences)
                if nsent is not None and nsent > 1:
                    g["multi_sentence"] += 1

    out = []
    for (mode, lpair, side, ttype), g in sorted(groups.items(),
                                                key=lambda kv: str(kv[0])):
        mean, sd, lo, hi = _length_stats(g["lengths"])
        segs = g["segs"]
        out.append({
            "mode": mode, "lpair": lpair, "side": side, "ttype": ttype,
            "docs": g["docs"], "segs": segs, "words": g["words"],
            "pct_empty": 100.0 * g["empty"] / segs if segs else 0.0,
            "fp": g["fp"],
            "pct_segs_with_fp": 100.0 * g["segs_with_fp"] / segs if segs else 0.0,
            "len_mean": mean, "len_sd": sd, "len_min": lo, "len_max": hi,
            "pct_multi_sentence": 100.0 * g["multi_sentence"] / segs if segs else 0.0,
        })
    return out
