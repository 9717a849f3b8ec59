import pytest

from wordbits.ids import ItemId, ItemIdError, parse_item_id


def test_render_full_id():
    iid = ItemId("ORG", "SP", "DE", "EN", "030", "21", word_id="004")
    assert iid.render() == "ORG_SP_DE_EN_030-21:004"
    assert str(iid) == iid.render()


def test_implied_mode_renders_short():
    iid = ItemId("SI", "SP", "DE", "EN", "030", "21", word_id="001",
                 explicit_mode=False)
    assert iid.render() == "SI_DE_EN_030-21:001"
    tr = ItemId("TR", "WR", "DE", "EN", "001", "01", explicit_mode=False)
    assert tr.render() == "TR_DE_EN_001-01"


def test_subword_suffix():
    iid = ItemId("SI", "SP", "DE", "EN", "030", "21", word_id="010",
                 sub_index=1, explicit_mode=False)
    assert iid.render() == "SI_DE_EN_030-21:010:1"


def test_parse_round_trip():
    for s in ("ORG_SP_DE_EN_030-21:004", "SI_DE_EN_030-21:010:1",
              "TR_DE_EN_001-01", "ORG_WR_EN_DE_170-12"):
        assert parse_item_id(s).render() == s


def test_parse_fills_implied_mode():
    iid = parse_item_id("SI_DE_EN_030-21")
    assert iid.mode == "SP"
    assert iid.explicit_mode is False
    assert iid.doc_id == "030" and iid.seg_id == "21"


def test_missing_tgt_lang_component():
    with pytest.raises(ItemIdError) as exc:
        parse_item_id("ORG_SP_DE")
    assert exc.value.component == "tgt_lang"


def test_bad_ttype_component():
    with pytest.raises(ItemIdError) as exc:
        parse_item_id("org_SP_DE_EN_001-01")
    assert exc.value.component == "ttype"


def test_bad_tail_component():
    with pytest.raises(ItemIdError) as exc:
        parse_item_id("ORG_SP_DE_EN_00101")
    assert exc.value.component == "seg_id"


def test_sub_index_requires_word():
    with pytest.raises(ItemIdError) as exc:
        ItemId("ORG", "SP", "DE", "EN", "001", "01", sub_index=1)
    assert exc.value.component == "sub_index"


def test_with_word():
    seg = ItemId("SI", "SP", "DE", "EN", "030", "21", explicit_mode=False)
    w = seg.with_word("007")
    assert w.word_id == "007"
    assert seg.with_word("007", 2) == ItemId("SI", "SP", "DE", "EN", "030", "21",
                                             "007", 2, explicit_mode=False)
    with pytest.raises(ItemIdError) as exc:
        seg.with_word(None, 1)
    assert exc.value.component == "sub_index"
