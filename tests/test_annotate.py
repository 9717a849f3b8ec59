import logging
import random

import pytest

from wordbits.adapters import AdapterError
from wordbits.annotate import (
    ConlluToken,
    MockParser,
    ReplayParser,
    _place_forms,
    annotate_segment,
    validate_sentence_tree,
)
from wordbits.ids import ItemId

from conftest import TGT_CLEAN, TGT_FP_POSITIONS, TGT_TEXT

SEG_IDS = ItemId("SI", "SP", "DE", "EN", "030", "21", explicit_mode=False)


@pytest.fixture()
def parsed_example(replay_files):
    parser = ReplayParser(replay_files["parser"])
    return annotate_segment(TGT_CLEAN, TGT_FP_POSITIONS, "EN", SEG_IDS, parser)


def test_example_text_and_words(parsed_example):
    seg = parsed_example
    assert seg.parsed is True
    assert seg.text == TGT_TEXT
    assert seg.words == ["It's", "all", "very", "well-intended", ".",
                         "But", "there's"]
    assert [k for k, row in enumerate(seg.surface) if row.is_fp] == [2, 3, 4]
    assert seg.sentence_boundaries == [0, 8]


def test_example_row_ids(parsed_example):
    rendered = [str(r.word_id) for r in parsed_example.word_rows]
    assert rendered == [
        "SI_DE_EN_030-21:001",
        "SI_DE_EN_030-21:001:1",
        "SI_DE_EN_030-21:001:2",
        "SI_DE_EN_030-21:002",
        "SI_DE_EN_030-21:003",
        "SI_DE_EN_030-21:004",
        "SI_DE_EN_030-21:005",
        "SI_DE_EN_030-21:006",
        "SI_DE_EN_030-21:007",
        "SI_DE_EN_030-21:008",
        "SI_DE_EN_030-21:009",
        "SI_DE_EN_030-21:010",
        "SI_DE_EN_030-21:010:1",
        "SI_DE_EN_030-21:010:2",
    ]


def test_example_multiword_rows(parsed_example):
    rows = {str(r.word_id): r for r in parsed_example.word_rows}
    surface = rows["SI_DE_EN_030-21:001"]
    assert surface.token == "It's"
    assert surface.id is None and surface.lemma is None
    it = rows["SI_DE_EN_030-21:001:1"]
    assert (it.token, it.id, it.head_id, it.rel) == ("It", 1, 5, "nsubj")
    assert it.pos == "PRON"
    s = rows["SI_DE_EN_030-21:001:2"]
    assert (s.token, s.id, s.lemma, s.head_id) == ("'s", 2, "be", 5)
    # expansion rows never carry surprisal
    assert s.is_expansion and s.srp_base_gpt2 is None


def test_example_fp_rows(parsed_example):
    rows = parsed_example.word_rows
    fps = [r for r in rows if r.is_fp]
    assert [r.token for r in fps] == ["euh", "hm", "euh"]
    assert [str(r.word_id) for r in fps] == [
        "SI_DE_EN_030-21:003", "SI_DE_EN_030-21:004", "SI_DE_EN_030-21:005"]
    for r in fps:
        r.validate()
        assert r.id is None and r.head_id is None


def test_example_tree_fields(parsed_example):
    rows = {str(r.word_id): r for r in parsed_example.word_rows}
    root = rows["SI_DE_EN_030-21:007"]
    assert (root.token, root.head_id, root.rel) == ("well-intended", 0, "root")
    but = rows["SI_DE_EN_030-21:009"]
    assert (but.id, but.head_id, but.rel) == (1, 3, "cc")
    punct = rows["SI_DE_EN_030-21:008"]
    assert (punct.token, punct.pos) == (".", "PUNCT")


def test_example_spans(parsed_example):
    spans = parsed_example.spans
    assert spans[0] == (0, 4)      # It's
    assert spans[1] == (5, 8)      # all
    assert 2 not in spans          # FP rows carry no span
    assert spans[5] == (9, 13)     # very
    assert spans[6] == (14, 27)    # well-intended
    assert spans[7] == (27, 28)    # .
    assert spans[8] == (29, 32)    # But
    assert spans[9] == (33, 40)    # there's


def test_fp_position_must_point_at_fp(caplog):
    """A position out of range or not at an FP form is dropped with one
    warning naming the segment; its token becomes a word row, and valid
    positions still give FP rows."""
    for clean, positions, dropped, fps in (
            ("hello there", [0], [0], []),
            ("we go euh", [-1], [-1], []),  # -1 would index the FP from the end
            ("we go euh", [3], [3], []),  # past the last token
            ("euh we go", [7, 1, 0], [1, 7], ["euh"])):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wordbits.annotate"):
            seg = annotate_segment(clean, positions, "EN", SEG_IDS, MockParser())
        [record] = caplog.records
        assert SEG_IDS.render() in record.getMessage()
        assert str(dropped) in record.getMessage()
        assert [r.token for r in seg.surface if r.is_fp] == fps
        assert seg.words == [t for t in clean.split() if t not in fps]
        assert len(seg.surface) == len(clean.split())


class _BrokenParser:
    name = "boom"

    def annotate(self, text, lang):
        raise AdapterError("no luck")


@pytest.mark.parametrize("parser", [MockParser(), _BrokenParser()],
                         ids=["parsed", "fallback"])
def test_scored_rows_are_the_words_scorers_realign_to(parser):
    # FPs at the start, in the middle and at the end; "it's" expands
    clean = "euh it's all euh hm very fine. But hum"
    seg = annotate_segment(clean, [0, 3, 4, 8], "EN", SEG_IDS, parser)
    assert seg.parsed is isinstance(parser, MockParser)
    # the parse expands "it's" into two rows; the fallback keeps tokens only
    assert len(seg.word_rows) - len(seg.surface) == (2 if seg.parsed else 0)
    assert [r.token for r in seg.scored] == seg.words
    assert seg.scored == [r for r in seg.surface if not r.is_fp]
    assert seg.surface == [r for r in seg.word_rows if not r.is_expansion]
    assert [r.token for r in seg.surface if r.is_fp] == ["euh", "euh", "hm", "hum"]
    for k, row in enumerate(seg.surface):
        assert row.word_id.word_id == f"{k + 1:03d}"
        span = seg.spans.get(k)
        assert (span is None) == row.is_fp
        if span is not None:
            assert seg.text[span[0]:span[1]] == row.token


def test_fp_only_segment():
    seg = annotate_segment("euh hm", [0, 1], "EN", SEG_IDS, MockParser())
    assert seg.text == ""
    assert seg.words == []
    assert [r.token for r in seg.word_rows] == ["euh", "hm"]
    assert all(r.is_fp for r in seg.word_rows)


def test_trailing_fp_row_appended():
    seg = annotate_segment("Gut euh", [1], "EN", SEG_IDS, MockParser())
    assert [r.token for r in seg.word_rows] == ["Gut", "euh"]
    assert seg.word_rows[1].is_fp


def test_parser_failure_falls_back_to_tokens(caplog):
    class Broken:
        name = "boom"

        def annotate(self, text, lang):
            raise AdapterError("no luck")

    with caplog.at_level(logging.WARNING, logger="wordbits.annotate"):
        seg = annotate_segment("Gut euh gemacht.", [1], "EN", SEG_IDS, Broken())
    assert seg.parsed is False
    assert [r.token for r in seg.word_rows] == ["Gut", "euh", "gemacht."]
    surface = seg.word_rows[2]
    assert surface.id is None and surface.lemma is None and surface.rel is None
    assert seg.word_rows[1].is_fp
    assert any("keeping token-only rows" in r.message for r in caplog.records)


def test_mismatched_parse_falls_back():
    class Wrong:
        name = "wrong"

        def annotate(self, text, lang):
            return [[ConlluToken("1", "unrelated", head=0, deprel="root")]]

    seg = annotate_segment("Gut gemacht", [], "EN", SEG_IDS, Wrong())
    assert seg.parsed is False
    assert [r.token for r in seg.word_rows] == ["Gut", "gemacht"]


def test_mock_parser_contraction_and_sentences():
    sents = MockParser().annotate("It's fine. Good!", "EN")
    assert len(sents) == 2
    first = sents[0]
    assert first[0].id == "1-2" and first[0].form == "It's"
    assert [t.form for t in first[1:]] == ["It", "'s", "fine", "."]
    # German input: no contraction expansion
    de = MockParser().annotate("Gut's gemacht", "DE")
    assert [t.form for t in de[0]] == ["Gut's", "gemacht"]


def test_validate_sentence_tree_clean():
    sent = [
        ConlluToken("1", "a", head=2, deprel="dep"),
        ConlluToken("2", "b", head=0, deprel="root"),
    ]
    assert validate_sentence_tree(sent) == []


def test_validate_sentence_tree_problems():
    two_roots = [
        ConlluToken("1", "a", head=0), ConlluToken("2", "b", head=0)]
    assert any("roots" in p for p in validate_sentence_tree(two_roots))

    cycle = [
        ConlluToken("1", "a", head=2), ConlluToken("2", "b", head=1),
        ConlluToken("3", "c", head=0)]
    assert any("cycle" in p for p in validate_sentence_tree(cycle))

    out_of_range = [ConlluToken("1", "a", head=9)]
    problems = validate_sentence_tree(out_of_range)
    assert any("out of range" in p for p in problems)

    gap = [ConlluToken("1", "a", head=0), ConlluToken("3", "b", head=1)]
    assert any("non-contiguous" in p for p in validate_sentence_tree(gap))


def test_place_forms_owner_holds_first_character():
    ws = ["It's", "all", "well-intended."]
    forms = ["It", "'s", "all", "well", "-", "intended", "."]
    assert _place_forms(forms, ws, " ".join(ws)) == (
        [0, 0, 1, 2, 2, 2, 2],
        [(0, 2), (2, 4), (5, 8), (9, 13), (13, 14), (14, 22), (22, 23)])
    # a form that spans a space belongs to the token its first character is in
    assert _place_forms(["a b", "c"], ["a", "bc"], "a bc") == ([0, 1], [(0, 3), (3, 4)])
    with pytest.raises(AdapterError):
        _place_forms(["ab", ""], ["ab"], "ab")


class _FormsParser:
    """Returns fixed forms as one flat sentence, whatever the text."""

    name = "forms"

    def __init__(self, forms):
        self.forms = forms

    def annotate(self, text, lang):
        return [[ConlluToken(str(k), form, head=0 if k == 1 else 1)
                 for k, form in enumerate(self.forms, start=1)]]


def test_respaced_forms_keep_their_own_spans(caplog):
    # "20000" occurs again later in the text; each form keeps its own place
    with caplog.at_level(logging.WARNING, logger="wordbits.annotate"):
        seg = annotate_segment("20 000 and 20000", [], "EN", SEG_IDS,
                               _FormsParser(["20000", "and", "20000"]))
    assert seg.parsed is True
    assert seg.spans == {0: (0, 6), 1: (7, 10), 2: (11, 16)}
    assert not caplog.records


def _index_placement(forms, text):
    """Each form's span found by searching text from the previous form's end."""
    spans, cursor = [], 0
    for form in forms:
        start = text.index(form, cursor)
        cursor = start + len(form)
        spans.append((start, cursor))
    return spans


def test_place_forms_matches_search_when_spacing_is_kept():
    rng = random.Random(14)
    for _ in range(300):
        tokens = ["".join(rng.choice("ab.'") for _ in range(rng.randint(1, 5)))
                  for _ in range(rng.randint(1, 8))]
        text = " ".join(tokens)
        # cut the text at random points and strip the spaces off each
        # piece: a form may hold a space, or end where a token does
        cuts = sorted({0, len(text)} | {k for k in range(1, len(text))
                                        if rng.random() < 0.3})
        forms = [f for a, b in zip(cuts, cuts[1:]) if (f := text[a:b].strip(" "))]
        owners, spans = _place_forms(forms, tokens, text)
        assert spans == _index_placement(forms, text)
        assert owners == [text[:a].count(" ") for a, _ in spans]
