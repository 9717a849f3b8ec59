import logging
import random

import pytest

from wordbits.build import (
    DocumentPair,
    MIN_TEST_SEGMENTS,
    TEST_DOCS_PER_DIRECTION,
    filter_by_score,
    filter_empty_segments,
    make_splits,
    remove_overlap,
    describe,
)
from wordbits.records import ParallelSegment


def _seg(n, src="ein wort hier", tgt="a word here"):
    return ParallelSegment(seg_id=f"{n:02d}", src_raw=src, tgt_raw=tgt)


def _doc(doc_id, segments, **kw):
    return DocumentPair(doc_id=doc_id, segments=segments, **kw)


def test_interior_empty_long_opposite_drops_document():
    segs = [_seg(0), _seg(1, src="vier lange worte hier", tgt=""), _seg(2)]
    kept, report = filter_empty_segments(_doc("d1", segs))
    assert kept is None
    assert report["dropped_doc"] is True


def test_interior_empty_short_opposite_removes_segment():
    segs = [_seg(0), _seg(1, src="nur drei kurze", tgt=""), _seg(2)]
    kept, report = filter_empty_segments(_doc("d2", segs))
    assert kept is not None
    assert [s.seg_id for s in kept.segments] == ["00", "02"]
    assert report["removed_segments"] == [1]


def test_edge_empty_removed_regardless_of_length():
    long_src = " ".join(["wort"] * 10)
    segs = [_seg(0, src=long_src, tgt=""), _seg(1),
            _seg(2, src="", tgt=" ".join(["w"] * 8))]
    kept, report = filter_empty_segments(_doc("d3", segs))
    assert kept is not None
    assert [s.seg_id for s in kept.segments] == ["01"]
    assert report["removed_segments"] == [0, 2]


def test_score_filter_is_strict():
    docs = [
        _doc("a", [_seg(0)], alignment_score=0.3),
        _doc("b", [_seg(0)], alignment_score=0.30001),
        _doc("c", [_seg(0)], alignment_score=0.9),
    ]
    kept = filter_by_score(docs, 0.3)
    assert [d.doc_id for d in kept] == ["b", "c"]


def test_score_filter_missing_score_warns_and_excludes(caplog):
    docs = [_doc("a", [_seg(0)], alignment_score=None)]
    with caplog.at_level(logging.WARNING, logger="wordbits.build"):
        assert filter_by_score(docs, 0.0) == []
    assert any("no alignment score" in r.message for r in caplog.records)


def test_overlap_removal_by_date_speaker_direction():
    spoken = [_doc("s1", [], date="2004-04-20", speaker_id="p7",
                   lpair="de-en")]
    written = [
        _doc("w1", [], date="2004-04-20", speaker_id="p7", lpair="de-en"),
        _doc("w2", [], date="2004-04-20", speaker_id="p7", lpair="en-de"),
        _doc("w3", [], date="2004-04-21", speaker_id="p7", lpair="de-en"),
        _doc("w4", [], date=None, speaker_id="p7", lpair="de-en"),
    ]
    kept = remove_overlap(written, spoken)
    assert [d.doc_id for d in kept] == ["w2", "w3", "w4"]


def _write_pool(lpair, n_docs, seg_counts, start=0):
    rng = random.Random(hash(lpair) & 0xFFFF)
    docs = []
    for k in range(n_docs):
        n = seg_counts[k % len(seg_counts)]
        docs.append(_doc(f"{lpair}-{start + k:04d}",
                         [_seg(i) for i in range(n)], lpair=lpair))
    return docs


def test_make_splits_shape_and_determinism():
    written = (_write_pool("de-en", 200, [12, 14, 20, 30]) +
               _write_pool("en-de", 220, [12, 16, 25]))
    spoken_sizes = {"de-en": 3000, "en-de": 3500}
    a = make_splits(written, spoken_sizes, seed=1)
    b = make_splits(written, spoken_sizes, seed=1)
    assert [d.doc_id for d in a.test] == [d.doc_id for d in b.test]
    assert [d.doc_id for d in a.train] == [d.doc_id for d in b.train]

    per_dir = {}
    for d in a.test:
        per_dir[d.lpair] = per_dir.get(d.lpair, 0) + 1
    assert per_dir == {"de-en": TEST_DOCS_PER_DIRECTION,
                       "en-de": TEST_DOCS_PER_DIRECTION}
    assert all(d.n_segments >= MIN_TEST_SEGMENTS for d in a.test)
    # test and train never share a document
    test_ids = {d.doc_id for d in a.test}
    assert not test_ids & {d.doc_id for d in a.train}


def test_make_splits_seed_changes_subsample():
    written = (_write_pool("de-en", 200, [12, 14, 20, 30]) +
               _write_pool("en-de", 220, [12, 16, 25]))
    spoken_sizes = {"de-en": 3000, "en-de": 3500}
    a = make_splits(written, spoken_sizes, seed=1)
    c = make_splits(written, spoken_sizes, seed=2)
    assert [d.doc_id for d in a.test] == [d.doc_id for d in c.test]
    assert [d.doc_id for d in a.train] != [d.doc_id for d in c.train]


def test_make_splits_balances_to_smaller_direction():
    written = (_write_pool("de-en", 190, [13]) +
               _write_pool("en-de", 260, [13]))
    res = make_splits(written, {"de-en": 2000, "en-de": 2000}, seed=3)
    per_dir = {}
    for d in res.train:
        per_dir[d.lpair] = per_dir.get(d.lpair, 0) + d.n_segments
    # subsampling stops before overflowing the smaller direction's count
    assert per_dir["en-de"] <= per_dir["de-en"]
    assert per_dir["de-en"] - per_dir["en-de"] < 13
    assert all(d.lpair == "en-de" for d in res.dropped)


def test_make_splits_needs_enough_documents():
    written = _write_pool("de-en", 30, [15])
    with pytest.raises(ValueError, match="need 170"):
        make_splits(written, {"de-en": 500}, seed=0)


def test_make_splits_names_an_empty_corpus():
    with pytest.raises(ValueError, match="no written documents"):
        make_splits([], {}, seed=1)


def test_describe_counts_and_percentages():
    segs = [
        ParallelSegment("00", src_raw="ein zwei drei", tgt_raw="one two",
                        tgt_fp_positions=[0], tgt_n_sentences=2),
        ParallelSegment("01", src_raw="vier", tgt_raw=""),
        ParallelSegment("02", src_raw="fuenf sechs", tgt_raw="three",
                        src_n_sentences=1),
        ParallelSegment("03", src_raw="sieben", tgt_raw="four five six"),
    ]
    rows = describe([_doc("d", segs, mode="sp", lpair="de-en")])
    by_side = {r["side"]: r for r in rows}
    src, tgt = by_side["src"], by_side["tgt"]
    assert src["ttype"] == "ORG" and tgt["ttype"] == "SI"
    assert src["docs"] == 1 and src["segs"] == 4
    assert src["words"] == 7
    assert src["pct_empty"] == 0.0
    assert tgt["pct_empty"] == 25.0
    assert tgt["fp"] == 1
    assert tgt["pct_segs_with_fp"] == 25.0
    assert tgt["pct_multi_sentence"] == 25.0
    # length stats are over non-empty segments only
    assert tgt["len_mean"] == pytest.approx((2 + 1 + 3) / 3)
    assert tgt["len_min"] == 1 and tgt["len_max"] == 3
