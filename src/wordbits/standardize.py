"""Character-level text standardization applied to every text before annotation.

Steps, in order:
  1. newline normalization (CRLF / CR -> LF)
  2. removal of control (Cc, except tab and newline) and format (Cf) characters
  3. space-like separators (Zs) mapped to plain space
  4. canonicalization of quote, dash, and superscript variants per the
     versioned mapping table in data/charmap.tsv
  5. runs of plain spaces collapsed to a single space

The composition is idempotent.  Tabs and newlines survive untouched.
"""

from __future__ import annotations

import re
import unicodedata
from importlib import resources

_SPACE_RUN = re.compile(r" {2,}")


def load_charmap() -> dict[str, str]:
    """Load the code-point mapping table shipped with the package."""
    table = {}
    path = resources.files("wordbits").joinpath("data/charmap.tsv")
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        code, _, repl = line.partition("\t")
        if not code.startswith("U+"):
            raise ValueError(f"bad charmap line: {line!r}")
        table[chr(int(code[2:], 16))] = repl
    return table


CHARMAP = load_charmap()


def standardize(text: str, lang: str | None = None) -> str:
    """Return the standardized form of ``text``.  ``lang`` is accepted for
    interface stability; the current table is language-independent."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    out = []
    for ch in text:
        if ch == "\t" or ch == "\n":
            out.append(ch)
            continue
        cat = unicodedata.category(ch)
        if cat in ("Cc", "Cf"):
            continue
        if cat == "Zs" and ch != " ":
            out.append(" ")
            continue
        out.append(CHARMAP.get(ch, ch))
    return _SPACE_RUN.sub(" ", "".join(out))
