from wordbits.standardize import standardize

NUL = chr(0)
ZWSP = chr(0x200B)
NBSP = chr(0x00A0)
CRLF = chr(13) + chr(10)


def test_quotes_and_dashes_mapped():
    assert standardize("„ja“ – gut") == '"ja" - gut'
    assert standardize("‘a’ — b") == "'a' - b"


def test_superscripts_and_nbsp():
    assert standardize("m² und 10" + NBSP + "Euro") == "m2 und 10 Euro"


def test_control_chars_removed_space_runs_collapsed():
    assert standardize("a" + NUL + "b" + ZWSP + "  c" + CRLF + "d") == "ab c\nd"


def test_tab_and_newline_survive():
    assert standardize("a\tb\nc") == "a\tb\nc"


def test_idempotent():
    samples = ["„ja“ – gut", "a  " + NBSP + " b³", "plain"]
    for s in samples:
        once = standardize(s)
        assert standardize(once) == once

