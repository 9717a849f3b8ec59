import math

import numpy as np
import pytest

from wordbits.align import (
    AlignmentLink,
    aggregate_to_words,
    alignment_stats,
    subword_align,
)
from wordbits.ids import ItemId
from wordbits.records import WordRow


def test_zero_similarity_fully_connected():
    src = np.zeros((2, 3))
    tgt = np.zeros((2, 3))
    pairs = subword_align(src, tgt)
    assert {(i, j) for i, j, _ in pairs} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(m == pytest.approx(0.5, abs=1e-12) for _, _, m in pairs)


def test_single_pair_scores_one():
    pairs = subword_align([[1.0, 2.0]], [[0.5, 0.5]])
    assert pairs == {(0, 0, 1.0)}


def test_diagonal_dominant_keeps_diagonal_only():
    e = 10.0 * np.eye(3)
    pairs = subword_align(e, e)
    assert {(i, j) for i, j, _ in pairs} == {(0, 0), (1, 1), (2, 2)}
    assert all(m == pytest.approx(1.0, abs=1e-6) for _, _, m in pairs)


def test_scores_match_hand_softmax():
    src = np.array([[1.0, 0.0], [0.0, 1.0]])
    tgt = np.array([[2.0, 0.0], [0.0, 1.0]])
    S = src @ tgt.T

    def softmax(v):
        e = [math.exp(x - max(v)) for x in v]
        return [x / sum(e) for x in e]

    A = [softmax(S[i]) for i in range(2)]
    Bt = [softmax(S[:, j]) for j in range(2)]
    got = {(i, j): m for i, j, m in subword_align(src, tgt)}
    for (i, j), m in got.items():
        assert m == pytest.approx((A[i][j] + Bt[j][i]) / 2.0, abs=1e-12)


def test_require_both_is_strict_and():
    # one source row against many identical targets: each forward value is
    # 1/200 < 0.01 while every backward value is 1.0
    src = np.ones((1, 4))
    tgt = np.ones((200, 4))
    assert subword_align(src, tgt) == set()


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    src = rng.normal(size=(4, 6))
    tgt = rng.normal(size=(5, 6))
    base = subword_align(src, tgt)
    perm = [3, 0, 4, 1, 2]
    permuted = {(i, perm[j]): m for i, j, m in subword_align(src, tgt[perm])}
    expect = {(i, j): m for i, j, m in base}
    assert permuted.keys() == expect.keys()
    for key, m in permuted.items():
        assert m == pytest.approx(expect[key], abs=1e-12)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        subword_align(np.zeros(3), np.zeros(3))


def test_aggregate_means_and_threshold():
    pairs = {(0, 0, 0.8), (1, 0, 0.6), (1, 1, 0.2), (2, 2, 0.008)}
    src_map = {0: 0, 1: 0, 2: 1}
    tgt_map = {0: 0, 1: 0, 2: 1}
    links, unaligned = aggregate_to_words(pairs, src_map, tgt_map)
    assert len(links) == 1
    link = links[0]
    # three subword pairs land in (0, 0); their mean is (0.8+0.6+0.2)/3
    assert link.src_word_index == 0
    assert link.tgt_word_indices == [0]
    # word 1's only pair mean 0.008 <= 0.01
    assert unaligned == [1]


def test_aggregate_one_to_many_sorted():
    pairs = {(0, 0, 0.4), (0, 3, 0.9), (0, 1, 0.6)}
    links, _ = aggregate_to_words(pairs, {0: 0}, {0: 2, 1: 1, 3: 0})
    assert links[0].tgt_word_indices == [0, 1, 2]


def test_aggregate_skips_unmapped_subwords():
    pairs = {(0, 0, 0.9), (1, 0, 0.9)}
    links, unaligned = aggregate_to_words(
        pairs, {0: None, 1: 0}, {0: 0})
    assert [l.src_word_index for l in links] == [0]
    assert unaligned == []


def test_link_invariants():
    with pytest.raises(AssertionError):
        AlignmentLink(0, [])
    with pytest.raises(AssertionError):
        AlignmentLink(0, [2, 1])


def _src_row(n, aligned):
    return WordRow(
        word_id=ItemId("ORG", "SP", "DE", "EN", "001", "01",
                       word_id=f"{n:03d}"),
        token=f"w{n}", aligned_word_id=aligned)


def test_alignment_stats_counts():
    rows = []
    for n in range(7):
        rows.append(_src_row(n, ["SI_DE_EN_001-01:001"]))
    for n in range(7, 9):
        rows[n - 7].aligned_word_id = ["a", "b"]  # two multi-aligned
        rows.append(_src_row(n, None))
    rows.append(_src_row(9, None))  # third unaligned
    assert len(rows) == 10
    assert alignment_stats(rows) == (10, 30.0, 20.0)


def test_alignment_stats_excludes_fp_and_expansions():
    rows = [_src_row(0, ["x"]),
            WordRow(word_id=ItemId("ORG", "SP", "DE", "EN", "001", "01",
                                   word_id="002"),
                    token="euh", pos="FP"),
            WordRow(word_id=ItemId("ORG", "SP", "DE", "EN", "001", "01",
                                   word_id="003", sub_index=1),
                    token="sub")]
    assert alignment_stats(rows) == (1, 0.0, 0.0)


def test_alignment_stats_empty_rejected():
    with pytest.raises(ValueError):
        alignment_stats([])
