import gzip
import hashlib
import io
import random
import re
import string
import tracemalloc
from dataclasses import dataclass

import pytest

from wordbits.ids import ItemId, ItemIdError, parse_item_id
from wordbits.records import SegmentPairRecord, SegmentRecord, WordRow
from wordbits.tables import SCHEMA, TableError, column_plan, read_table, write_table

SAFE = string.ascii_letters + string.digits + ".!?'-"


def _word(rng):
    while True:
        w = "".join(rng.choice(SAFE) for _ in range(rng.randint(1, 9)))
        if w != "NA":
            return w


def _maybe(rng, value):
    return None if rng.random() < 0.25 else value


def _item_id(rng, word=True):
    return ItemId(
        "SI", "SP", "DE", "EN",
        f"{rng.randint(0, 999):03d}", f"{rng.randint(0, 99):02d}",
        word_id=f"{rng.randint(1, 400):03d}" if word else None,
        sub_index=rng.choice([None, 1, 2]) if word else None,
        explicit_mode=False,
    )


def _random_word_row(rng):
    return WordRow(
        word_id=_item_id(rng),
        id=_maybe(rng, rng.randint(1, 60)),
        token=_maybe(rng, _word(rng)),
        lemma=_maybe(rng, _word(rng)),
        pos=_maybe(rng, rng.choice(["NOUN", "VERB", "ADV", "PUNCT"])),
        xpos=_maybe(rng, _word(rng)),
        feats=_maybe(rng, "Case=Nom|Number=Sing"),
        head_id=_maybe(rng, rng.randint(0, 60)),
        rel=_maybe(rng, rng.choice(["nsubj", "obj", "root"])),
        deps=_maybe(rng, _word(rng)),
        misc=_maybe(rng, _word(rng)),
        srp_base_gpt2=_maybe(rng, rng.uniform(0, 40)),
        srp_ft_gpt2=_maybe(rng, rng.uniform(0, 40)),
        srp_base_mt=_maybe(rng, rng.uniform(0, 80)),
        srp_ft_mt=_maybe(rng, rng.uniform(0, 80)),
        aligned_word=_maybe(rng, [_word(rng) for _ in range(rng.randint(1, 3))]),
        aligned_word_id=_maybe(rng, [str(_item_id(rng)) for _ in range(2)]),
        doc_id=f"{rng.randint(0, 999):03d}",
        seg_id=f"{rng.randint(0, 99):02d}",
        lpair="de-en", lang="EN", mode="SP", ttype="SI",
        speaker_id=_maybe(rng, f"f{rng.randint(1, 40)}"),
        raw_seg=_maybe(rng, " ".join(_word(rng) for _ in range(4))),
    )


def _random_segment_record(rng):
    toks = [_word(rng) for _ in range(rng.randint(1, 8))]
    return SegmentRecord(
        doc_id=f"{rng.randint(0, 999):03d}",
        seg_id=f"{rng.randint(0, 99):02d}",
        lpair="de-en", lang=rng.choice(["DE", "EN"]), mode="SP",
        ttype=rng.choice(["ORG", "SI"]),
        speaker_id=_maybe(rng, f"m{rng.randint(1, 40)}"),
        base_gpt_avs=_maybe(rng, rng.uniform(0, 30)),
        base_gpt_avs_subw=_maybe(rng, rng.uniform(0, 30)),
        ft_gpt_avs=_maybe(rng, rng.uniform(0, 30)),
        ft_gpt_avs_subw=_maybe(rng, rng.uniform(0, 30)),
        disfluencies=_maybe(rng, rng.randint(0, 50)),
        fillers=_maybe(rng, rng.randint(0, 10)),
        fillers_plus_3=_maybe(rng, rng.randint(0, 30)),
        raw_seg=_maybe(rng, " ".join(toks)),
        tokens=_maybe(rng, toks),
        wc_tok=len(toks),
    )


def _random_pair_record(rng):
    return SegmentPairRecord(
        src_doc_id=f"{rng.randint(0, 999):03d}",
        src_seg_id=f"{rng.randint(0, 99):02d}",
        tgt_doc_id=f"{rng.randint(0, 999):03d}",
        tgt_seg_id=f"{rng.randint(0, 99):02d}",
        lpair="en-de", mode="WR",
        src_raw_seg=_maybe(rng, " ".join(_word(rng) for _ in range(5))),
        tgt_raw_seg=_maybe(rng, " ".join(_word(rng) for _ in range(5))),
        base_mt_avs=_maybe(rng, rng.uniform(0, 60)),
        base_mt_avs_subw=_maybe(rng, rng.uniform(0, 60)),
        ft_mt_avs=_maybe(rng, rng.uniform(0, 60)),
        ft_mt_avs_subw=_maybe(rng, rng.uniform(0, 60)),
        base_bleu=_maybe(rng, rng.uniform(0, 100)),
        ft_bleu=_maybe(rng, rng.uniform(0, 100)),
    )


@pytest.mark.parametrize("format,maker,n,seed", [
    ("vertical", _random_word_row, 400, 101),
    ("long", _random_segment_record, 300, 102),
    ("wide", _random_pair_record, 300, 103),
])
def test_round_trip_randomized(format, maker, n, seed):
    rng = random.Random(seed)
    rows = [maker(rng) for _ in range(n)]
    buf = io.BytesIO()
    write_table(rows, format, buf)
    buf.seek(0)
    back = read_table(buf, format)
    assert back == rows


def test_byte_identical_reruns(tmp_path):
    rng = random.Random(3)
    rows = [_random_segment_record(rng) for _ in range(20)]
    p1, p2 = tmp_path / "a.tsv.gz", tmp_path / "b.tsv.gz"
    write_table(rows, "long", p1, provenance={"b": "2", "a": "1"})
    write_table(rows, "long", p2, provenance={"a": "1", "b": "2"})
    assert p1.read_bytes() == p2.read_bytes()


def test_provenance_lines_sorted_and_skipped(tmp_path):
    p = tmp_path / "t.tsv.gz"
    rows = [_random_pair_record(random.Random(5))]
    write_table(rows, "wide", p, provenance={"z": "last", "a": "first"})
    with gzip.open(p, "rt", encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "# a=first"
    assert lines[1] == "# z=last"
    assert lines[2].startswith("src_doc_id\t")
    assert read_table(p, "wide") == rows


def test_na_reserved_in_text_cells():
    row = _random_word_row(random.Random(1))
    row.token = "NA"
    with pytest.raises(TableError, match="reserved"):
        write_table([row], "vertical", io.BytesIO())


def test_none_round_trips_as_na():
    row = _random_word_row(random.Random(2))
    row.token = None
    row.srp_base_gpt2 = None
    buf = io.BytesIO()
    write_table([row], "vertical", buf)
    buf.seek(0)
    assert b"NA" in gzip.decompress(buf.getvalue())
    buf.seek(0)
    back = read_table(buf, "vertical")[0]
    assert back.token is None and back.srp_base_gpt2 is None


def test_comma_in_list_element_rejected():
    row = _random_word_row(random.Random(4))
    row.aligned_word = ["ja,nein"]
    with pytest.raises(TableError, match="comma"):
        write_table([row], "vertical", io.BytesIO())


def test_tab_in_cell_rejected():
    row = _random_word_row(random.Random(6))
    row.raw_seg = "a\tb"
    with pytest.raises(TableError):
        write_table([row], "vertical", io.BytesIO())


def test_space_in_token_rejected():
    rec = _random_segment_record(random.Random(7))
    rec.tokens = ["two words"]
    with pytest.raises(TableError, match="token"):
        write_table([rec], "long", io.BytesIO())


def test_unknown_column_ignored_on_read():
    rng = random.Random(8)
    recs = [_random_segment_record(rng) for _ in range(3)]
    lines = gzip.decompress(_write(recs, "long")).decode().splitlines()
    noted = "".join(f"{line}\t{cell}\n"
                    for line, cell in zip(lines, ["note", "keep me", "NA", "0.7"]))
    back = read_table(io.BytesIO(gzip.compress(noted.encode())), "long")
    assert back == read_table(io.BytesIO(_write(recs, "long")), "long") == recs


@pytest.mark.parametrize("record,raised", [
    (WordRow(ItemId("SI", "SP", "DE", "EN", "030", "01", "001")), AttributeError),
    (SegmentRecord("030", "01"), AttributeError),
    (SegmentPairRecord("030", "01"), AttributeError),
    # Python 3.11's frozen slotted dataclass raises TypeError for a name that
    # is not a field (its __setattr__ calls super() on the class before slots)
    (ItemId("SI", "SP", "DE", "EN", "030", "01"), (AttributeError, TypeError)),
], ids=["WordRow", "SegmentRecord", "SegmentPairRecord", "ItemId"])
def test_records_hold_only_their_fields(record, raised):
    assert not hasattr(record, "__dict__")
    with pytest.raises(raised):
        record.srp_base_gtp2 = 1.0
    assert not hasattr(record, "srp_base_gtp2")


@pytest.mark.parametrize("key,value", [
    ("adapter_lm_base", "gpt2\nft"),
    ("adapter_lm_base", "gpt2\rft"),
    ("adapter\nlm_base", "gpt2"),
])
def test_line_break_in_provenance_rejected(key, value):
    sink = io.BytesIO()
    with pytest.raises(TableError, match=re.escape(repr(key))):
        write_table([SegmentRecord("1", "2")], "long", sink, provenance={key: value})
    assert sink.getvalue() == b""


def test_missing_required_column_rejected():
    payload = "doc_id\tseg_id\n001\t01\n"
    buf = io.BytesIO(gzip.compress(payload.encode()))
    with pytest.raises(TableError, match="missing required"):
        read_table(buf, "long")


def test_ragged_row_rejected():
    cols = "\t".join(SCHEMA["long"])
    payload = cols + "\n001\t01\n"
    buf = io.BytesIO(gzip.compress(payload.encode()))
    with pytest.raises(TableError, match="expected"):
        read_table(buf, "long")


@pytest.mark.parametrize("n_provenance", [0, 3])
@pytest.mark.parametrize("fault,message", [
    ("cell", "column 'wc_tok': cannot parse 'x'"),
    ("ragged", "expected"),
], ids=["cell", "ragged"])
def test_read_error_names_record_and_file_line(n_provenance, fault, message):
    buf = io.BytesIO()
    write_table([SegmentRecord("1", f"{i:02d}", wc_tok=i) for i in range(3)], "long",
                buf, {f"key{k}": "v" for k in range(n_provenance)})
    lines = gzip.decompress(buf.getvalue()).decode().split("\n")
    bad = n_provenance + 2  # index of record 1's line: provenance, header, record 0
    cells = lines[bad].split("\t")
    cells[SCHEMA["long"].index("wc_tok")] = "x"
    lines[bad] = "\t".join(cells if fault == "cell" else cells[:2])
    with pytest.raises(TableError, match=rf"^row 1 \(line {bad + 1}\): {re.escape(message)}"):
        read_table(io.BytesIO(gzip.compress("\n".join(lines).encode())), "long")


def test_wrong_record_type_rejected():
    with pytest.raises(TableError, match="expects"):
        write_table([_random_segment_record(random.Random(0))], "wide", io.BytesIO())


def test_unknown_format_rejected():
    with pytest.raises(TableError):
        write_table([], "diagonal", io.BytesIO())
    with pytest.raises(TableError):
        read_table(io.BytesIO(), "diagonal")


def test_float_cells_use_repr_exactly():
    rec = _random_pair_record(random.Random(11))
    rec.base_bleu = 35.35533905932738
    buf = io.BytesIO()
    write_table([rec], "wide", buf)
    text = gzip.decompress(buf.getvalue()).decode()
    assert "35.35533905932738" in text
    buf.seek(0)
    assert read_table(buf, "wide")[0].base_bleu == rec.base_bleu


# sha256 of write_table output for the round-trip test's seeded rows, recorded
# before the column plans replaced per-cell kind dispatch
PINNED_SHA256 = {
    "vertical": "92927805086d98a5379744303968c7d557bcec5298a85921b4be0f72baa7f779",
    "long": "0aa3bb1aff4443f896fe4e6f431d2dce9bbec84e8a3b2845a9b2f511acd9ad5c",
    "wide": "b21bad1f01d73bccc992d7b0e12eca585f77920952ef4567c6872a1ffae2de54",
}


@pytest.mark.parametrize("format,maker,n,seed", [
    ("vertical", _random_word_row, 400, 101),
    ("long", _random_segment_record, 300, 102),
    ("wide", _random_pair_record, 300, 103),
])
def test_write_bytes_pinned(format, maker, n, seed):
    rng = random.Random(seed)
    buf = io.BytesIO()
    write_table([maker(rng) for _ in range(n)], format, buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == PINNED_SHA256[format]


@pytest.mark.parametrize("attr,value,column", [
    ("wc_tok", "x", "wc_tok"),
    ("base_gpt_avs", "x", "base_gpt_AvS"),
])
def test_unconvertible_value_names_row_and_column(attr, value, column):
    good = SegmentRecord("1", "2")
    bad = SegmentRecord("1", "2", **{attr: value})
    with pytest.raises(TableError, match=rf"^row 1: column '{re.escape(column)}': "):
        write_table([good, bad], "long", io.BytesIO())


def test_failed_write_leaves_destination_unchanged(tmp_path):
    p = tmp_path / "long.tsv.gz"
    good = [SegmentRecord("1", "2", wc_tok=3)]
    write_table(good, "long", p, provenance={"a": "1"})
    before = p.read_bytes()
    bad = [SegmentRecord("1", "2"), SegmentRecord("1", "3", wc_tok="x")]
    with pytest.raises(TableError, match="^row 1: "):
        write_table(bad, "long", p)
    assert p.read_bytes() == before
    assert read_table(p, "long") == good
    assert [f.name for f in tmp_path.iterdir()] == ["long.tsv.gz"]


@dataclass
class _FlagRecord:
    doc_id: str
    flagged: bool | None = None


def test_plan_rejects_unsupported_annotation():
    with pytest.raises(TableError, match="unsupported annotation"):
        column_plan(_FlagRecord)


def _segment_rows(seg, n, raw_seg):
    """n word rows of one target segment side."""
    return [WordRow(word_id=ItemId("SI", "SP", "DE", "EN", "030", seg, f"{k:03d}",
                                   explicit_mode=False),
                    token=f"w{k}", pos="NOUN", srp_base_gpt2=k / 3, doc_id="030",
                    seg_id=seg, lpair="de-en", lang="EN", mode="SP", ttype="SI",
                    speaker_id="spk17", raw_seg=raw_seg)
            for k in range(1, n + 1)]


def _write(rows, format="vertical") -> bytes:
    buf = io.BytesIO()
    write_table(rows, format, buf)
    return buf.getvalue()


def test_read_shares_segment_constants():
    rows = _segment_rows("01", 6, "we vote on the report") + _segment_rows(
        "02", 5, "and on the amendments")
    for r in rows:
        r.aligned_word = ["wir", "stimmen"]
    back = read_table(io.BytesIO(_write(rows)), "vertical")
    assert back == rows
    for seg in ("01", "02"):
        side = [r for r in back if r.seg_id == seg]
        first = side[0]
        for r in side[1:]:
            assert r.raw_seg is first.raw_seg
            assert r.doc_id is first.doc_id
            assert r.speaker_id is first.speaker_id
            assert r.word_id.doc_id is first.word_id.doc_id
    # list elements are shared, the lists stay one per row
    assert back[0].aligned_word[1] is back[-1].aligned_word[1]
    assert back[0].aligned_word is not back[1].aligned_word


def test_read_holds_one_raw_seg_per_segment():
    # a copy of the 4.7 kB raw_seg per row would hold over 4.7 kB a row, and
    # a row with a __dict__ (and an empty extra dict) over 600 B
    raw = " ".join(f"word{k}" for k in range(600))
    rows = [r for seg in ("01", "02") for r in _segment_rows(seg, 100, raw)]
    table = io.BytesIO(_write(rows))
    tracemalloc.start()
    try:
        back = read_table(table, "vertical")
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == rows
    assert held / len(back) < 550


_HEAD = "SI_DE_EN_030-01"


@pytest.mark.parametrize("bad", [
    f"{_HEAD}:0a3", f"{_HEAD}:", f"{_HEAD}:003:x", f"{_HEAD}:003:1:2",
    "SI_DE_en_030-01:003", "SI_DE_EN_03x-01:003", f"{_HEAD}:\u0663",
    f"{_HEAD}:003:\u0663", _HEAD,
], ids=["letter", "empty-word", "bad-sub", "extra-part", "bad-head", "bad-doc-seg",
        "arabic-word", "arabic-sub", "no-word"])
def test_read_id_matches_full_parse(bad):
    rows = _segment_rows("01", 3, "we vote")
    lines = gzip.decompress(_write(rows)).decode().split("\n")
    cells = lines[2].split("\t")
    cells[SCHEMA["vertical"].index("word_id")] = bad
    lines[2] = "\t".join(cells)
    table = io.BytesIO(gzip.compress("\n".join(lines).encode()))
    try:
        want = parse_item_id(bad)
    except ItemIdError as exc:
        with pytest.raises(TableError) as got:
            read_table(table, "vertical")
        assert str(got.value) == (f"row 1 (line 3): column 'word_id': "
                                  f"cannot parse {bad!r}: {exc}")
        assert got.value.__cause__.component == exc.component
    else:
        back = read_table(table, "vertical")
        assert back[1].word_id == want
        assert [r.word_id for r in back[::2]] == [rows[0].word_id, rows[2].word_id]

