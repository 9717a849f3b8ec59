"""Shared fixtures: replay files for the worked example segment, and the
tables the fp-analyze and gam commands read."""

import random

import pytest

from wordbits.adapters import write_replay
from wordbits.ids import ItemId
from wordbits.records import SegmentPairRecord, SegmentRecord, WordRow
from wordbits.tables import write_table

# One parallel segment, spoken DE -> EN, with FPs and a multiword token on
# the target side.  All expected numbers below are frozen against these
# replay files.
SRC_TEXT = "Begonnen ist guten Absichten leider"
TGT_TEXT = "It's all very well-intended. But there's"
TGT_CLEAN = "It's all euh hm euh very well-intended. But there's"
TGT_FP_POSITIONS = [2, 3, 4]

# per-subword (surface, logprob2, begins_word); words sum to the frozen
# column values asserted in the tests
_LM_BASE = [
    ("It", -10.0, True), ("'s", -3.0, False),
    ("all", -5.9, True),
    ("very", -6.5, True),
    ("well", -10.0, True), ("-", -2.7, False), ("intended", -4.0, False),
    (".", -3.0, False),
    ("But", -2.2, True),
    ("there", -2.6, True), ("'s", -3.0, False),
]
_LM_FT = [
    ("It", -9.5, True), ("'s", -3.0, False),
    ("all", -6.4, True),
    ("very", -1.6, True),
    ("well", -12.0, True), ("-", -2.5, False), ("intended", -5.0, False),
    (".", -3.4, False),
    ("But", -1.3, True),
    ("there", -7.7, True), ("'s", -3.0, False),
]
_MT_BASE = [
    ("It", -30.0, True), ("'s", -5.3, False),
    ("all", -15.8, True),
    ("very", -7.6, True),
    ("well", -20.0, True), ("-", -5.8, False), ("intended", -20.0, False),
    (".", -10.2, False),
    ("But", -9.9, True),
    ("there", -40.0, True), ("'s", -3.0, False),
]
_MT_FT = [
    ("It", -33.4, True), ("'s", -5.0, False),
    ("all", -19.7, True),
    ("very", -7.5, True),
    ("well", -20.0, True), ("-", -6.4, False), ("intended", -20.0, False),
    (".", -9.0, False),
    ("But", -15.9, True),
    ("there", -49.1, True), ("'s", -3.0, False),
]

EXPECTED_TGT = {
    # token -> (srp_base_gpt2, srp_ft_gpt2, srp_base_mt, srp_ft_mt, aligned)
    "It's": (13.0, 12.5, 35.3, 38.4, ["Begonnen", "ist"]),
    "all": (5.9, 6.4, 15.8, 19.7, None),
    "very": (6.5, 1.6, 7.6, 7.5, ["guten"]),
    "well-intended": (16.7, 19.5, 45.8, 46.4, ["guten", "Absichten"]),
    ".": (3.0, 3.4, 10.2, 9.0, None),
    "But": (2.2, 1.3, 9.9, 15.9, ["leider"]),
    "there's": (5.6, 10.7, 43.0, 52.1, None),
}
EXPECTED_SRC_ALIGNED = {
    "Begonnen": ["It's"],
    "ist": ["It's"],
    "guten": ["very", "well-intended"],
    "Absichten": ["well-intended"],
    "leider": ["But"],
}

_PARSE_EN = [
    [
        {"id": "1-2", "form": "It's"},
        {"id": "1", "form": "It", "lemma": "it", "upos": "PRON", "head": 5,
         "deprel": "nsubj"},
        {"id": "2", "form": "'s", "lemma": "be", "upos": "AUX", "head": 5,
         "deprel": "cop"},
        {"id": "3", "form": "all", "lemma": "all", "upos": "ADV", "head": 5,
         "deprel": "advmod"},
        {"id": "4", "form": "very", "lemma": "very", "upos": "ADV", "head": 5,
         "deprel": "advmod"},
        {"id": "5", "form": "well-intended", "lemma": "well-intended",
         "upos": "ADJ", "head": 0, "deprel": "root"},
        {"id": "6", "form": ".", "lemma": ".", "upos": "PUNCT", "head": 5,
         "deprel": "punct"},
    ],
    [
        {"id": "1", "form": "But", "lemma": "but", "upos": "CCONJ", "head": 3,
         "deprel": "cc"},
        {"id": "2-3", "form": "there's"},
        {"id": "2", "form": "there", "lemma": "there", "upos": "PRON",
         "head": 3, "deprel": "expl"},
        {"id": "3", "form": "'s", "lemma": "be", "upos": "VERB", "head": 0,
         "deprel": "root"},
    ],
]
_PARSE_DE = [
    [
        {"id": "1", "form": "Begonnen", "lemma": "beginnen", "upos": "VERB",
         "head": 0, "deprel": "root"},
        {"id": "2", "form": "ist", "lemma": "sein", "upos": "AUX", "head": 1,
         "deprel": "aux"},
        {"id": "3", "form": "guten", "lemma": "gut", "upos": "ADJ", "head": 4,
         "deprel": "amod"},
        {"id": "4", "form": "Absichten", "lemma": "Absicht", "upos": "NOUN",
         "head": 1, "deprel": "obl"},
        {"id": "5", "form": "leider", "lemma": "leider", "upos": "ADV",
         "head": 1, "deprel": "advmod"},
    ],
]


def _basis(dim, scale, *hot):
    vec = [0.0] * dim
    for h in hot:
        vec[h] = scale
    return vec


# subword embeddings: shared basis dimensions mark intended word pairs
_ENC_DE = [
    ("Begonnen", (0, 8), _basis(8, 10.0, 0)),
    ("ist", (9, 12), _basis(8, 10.0, 0)),
    ("guten", (13, 18), _basis(8, 10.0, 1, 2)),
    ("Absichten", (19, 28), _basis(8, 10.0, 2)),
    ("leider", (29, 35), _basis(8, 10.0, 3)),
]
_ENC_EN = [
    ("It's", (0, 4), _basis(8, 10.0, 0)),
    ("all", (5, 8), _basis(8, 10.0, 4)),
    ("very", (9, 13), _basis(8, 10.0, 1)),
    ("well-intended", (14, 27), _basis(8, 10.0, 2)),
    (".", (27, 28), _basis(8, 10.0, 5)),
    ("But", (29, 32), _basis(8, 10.0, 3)),
    ("there's", (33, 40), _basis(8, 10.0, 6)),
]


def _lm_response(rows):
    return [{"surface": s, "logprob": lp, "begins_word": b} for s, lp, b in rows]


def _argmax_response(rows):
    return [{"surface": s, "begins_word": b} for s, _, b in rows]


def _enc_response(rows):
    return [{"surface": s, "span": list(span), "vec": vec} for s, span, vec in rows]


@pytest.fixture(scope="session")
def replay_files(tmp_path_factory):
    """Replay files reproducing the worked example; returns a path dict."""
    d = tmp_path_factory.mktemp("replays")
    paths = {}

    def put(name, kind, records, log_base="2"):
        p = d / f"{name}.jsonl"
        write_replay(p, {"kind": kind, "name": name, "log_base": log_base}, records)
        paths[name] = str(p)

    put("lm_base", "causal_lm", [({"text": TGT_TEXT}, _lm_response(_LM_BASE))])
    put("lm_ft", "causal_lm", [({"text": TGT_TEXT}, _lm_response(_LM_FT))])
    put("mt_base", "mt", [
        ({"src": SRC_TEXT, "tgt": TGT_TEXT}, _lm_response(_MT_BASE)),
        ({"src": SRC_TEXT, "tgt": TGT_TEXT, "task": "argmax"},
         _argmax_response(_MT_BASE)),
    ])
    put("mt_ft", "mt", [
        ({"src": SRC_TEXT, "tgt": TGT_TEXT}, _lm_response(_MT_FT)),
        ({"src": SRC_TEXT, "tgt": TGT_TEXT, "task": "argmax"},
         _argmax_response(_MT_FT)),
    ])
    put("encoder", "encoder", [
        ({"text": SRC_TEXT, "lang": "DE"}, _enc_response(_ENC_DE)),
        ({"text": TGT_TEXT, "lang": "EN"}, _enc_response(_ENC_EN)),
    ])
    put("parser", "parser", [
        ({"text": TGT_TEXT, "lang": "EN"}, _PARSE_EN),
        ({"text": SRC_TEXT, "lang": "DE"}, _PARSE_DE),
    ])
    return paths


@pytest.fixture(scope="session")
def example_input_tsv(tmp_path_factory):
    """Raw pipeline input whose normalization yields the replay texts."""
    d = tmp_path_factory.mktemp("input")
    p = d / "input.tsv"
    src_raw = "begonnen ist guten Absichten leider"
    tgt_raw = "it's all euh hm euh very well-intended. / But there's"
    p.write_text(
        "doc_id\tseg_id\tsrc_speaker_id\ttgt_speaker_id\tsrc_raw\ttgt_raw\n"
        f"30\t21\tfDE1\tfEN3\t{src_raw}\t{tgt_raw}\n",
        encoding="utf-8")
    return str(p)


def fp_vertical_rows():
    """Vertical rows of 40 spoken DE-EN segments, half with one FP, for
    fp-analyze."""
    rng = random.Random(42)
    rows = []
    for seg in range(40):
        seg_id = f"{seg:02d}"
        speaker = f"fEN{seg % 4}"
        src_ids = []
        for i in range(1, 4):
            wid = ItemId("ORG", "SP", "DE", "EN", "001", seg_id, f"{i:03d}")
            src_ids.append(str(wid))
            rows.append(WordRow(word_id=wid, token=f"s{i}",
                                srp_base_gpt2=rng.uniform(1, 20),
                                doc_id="001", seg_id=seg_id, lpair="de-en",
                                lang="DE", mode="sp", ttype="ORG",
                                speaker_id=f"fDE{seg % 4}"))
        fp_before = rng.randrange(1, 6) if seg % 2 == 0 else None
        word_no = 1
        for i in range(1, 7):
            if i == fp_before:
                rows.append(WordRow(
                    word_id=ItemId("SI", "SP", "DE", "EN", "001", seg_id,
                                   f"{word_no:03d}", explicit_mode=False),
                    token="euh", pos="FP", doc_id="001", seg_id=seg_id,
                    lpair="de-en", lang="EN", mode="sp", ttype="SI",
                    speaker_id=speaker))
                word_no += 1
            rows.append(WordRow(
                word_id=ItemId("SI", "SP", "DE", "EN", "001", seg_id,
                               f"{word_no:03d}", explicit_mode=False),
                token=f"w{i}", srp_base_gpt2=rng.uniform(1, 20),
                srp_base_mt=rng.uniform(1, 40),
                aligned_word_id=[rng.choice(src_ids)],
                doc_id="001", seg_id=seg_id, lpair="de-en", lang="EN",
                mode="sp", ttype="SI", speaker_id=speaker))
            word_no += 1
    return rows


def write_gam_tables(directory):
    """Long and wide tables of 80 segments whose LM mean is 2x their MT
    mean plus noise; returns their paths."""
    rng = random.Random(7)
    longs, wides = [], []
    for i in range(80):
        x = rng.uniform(2.0, 12.0)
        y = 2.0 * x + rng.gauss(0.0, 0.3)
        seg_id = f"{i:03d}"
        longs.append(SegmentRecord(doc_id="001", seg_id=seg_id, lpair="de-en",
                                   lang="EN", mode="sp", ttype="SI",
                                   base_gpt_avs=y))
        wides.append(SegmentPairRecord(src_doc_id="001", src_seg_id=seg_id,
                                       tgt_doc_id="001", tgt_seg_id=seg_id,
                                       lpair="de-en", mode="sp",
                                       base_mt_avs=x))
    long_path = directory / "long.tsv.gz"
    wide_path = directory / "wide.tsv.gz"
    write_table(longs, "long", long_path)
    write_table(wides, "wide", wide_path)
    return long_path, wide_path
