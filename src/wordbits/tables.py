"""Readers and writers for the gzip TSV corpus formats (vertical, long, wide).

The column orders are frozen in data/columns.txt.  Cells are UTF-8, tab
separated, no quoting; "NA" is the sole null marker (an empty cell is the
empty string, not null).  Writers emit optional "#"-prefixed provenance
lines before the header; readers skip them.  Gzip members are written with
mtime=0 so identical content yields identical bytes.
"""

from __future__ import annotations

import gzip
import io
from importlib import resources
from typing import Iterable

from wordbits.ids import ItemId, parse_item_id
from wordbits.records import SegmentPairRecord, SegmentRecord, WordRow

FORMATS = ("vertical", "long", "wide")


class TableError(ValueError):
    pass


def load_schema() -> dict[str, list[str]]:
    """Parse the shipped column manifest into {format: [column, ...]}."""
    schema: dict[str, list[str]] = {}
    current: list[str] | None = None
    text = resources.files("wordbits").joinpath("data/columns.txt").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = schema.setdefault(line[1:-1], [])
            continue
        if current is None:
            raise TableError(f"column outside format section: {line!r}")
        current.append(line)
    for fmt in FORMATS:
        if fmt not in schema:
            raise TableError(f"schema manifest is missing format {fmt!r}")
    return schema


SCHEMA = load_schema()

# column name -> (record attribute, cell kind)
_KIND_OVERRIDES = {
    "word_id": "itemid",
    "id": "int",
    "head_id": "int",
    "aligned_word": "list",
    "aligned_word_id": "list",
    "disfluencies": "int",
    "fillers": "int",
    "fillers+3": "int",
    "wc_tok": "int",
    "tokens": "tokens",
}
_FLOAT_PREFIXES = ("srp_",)
_FLOAT_SUFFIXES = ("_AvS", "_AvS_subw", "_bleu")

_RECORD_TYPES = {"vertical": WordRow, "long": SegmentRecord, "wide": SegmentPairRecord}


def _attr_name(column: str) -> str:
    return column.replace("+3", "_plus_3").replace("AvS", "avs")


def _kind(column: str) -> str:
    if column in _KIND_OVERRIDES:
        return _KIND_OVERRIDES[column]
    if column.startswith(_FLOAT_PREFIXES) or column.endswith(_FLOAT_SUFFIXES):
        return "float"
    return "str"


def _check_text(value: str, column: str) -> str:
    if "\t" in value or "\n" in value:
        raise TableError(f"column {column!r}: embedded tab/newline is not serializable")
    if value == "NA":
        raise TableError(f"column {column!r}: the literal string 'NA' is reserved for nulls")
    return value


def _serialize(value, column: str, kind: str) -> str:
    if value is None:
        return "NA"
    if kind == "itemid":
        return value.render()
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return repr(float(value))
    if kind == "list":
        parts = [str(v) for v in value]
        for p in parts:
            _check_text(p, column)
            if "," in p:
                raise TableError(f"column {column!r}: comma inside list element {p!r}")
        return ", ".join(parts)
    if kind == "tokens":
        for p in value:
            _check_text(p, column)
            if " " in p:
                raise TableError(f"column {column!r}: space inside token {p!r}")
        return " ".join(value)
    return _check_text(str(value), column)


def _parse(cell: str, column: str, kind: str):
    if cell == "NA":
        return None
    try:
        if kind == "itemid":
            return parse_item_id(cell)
        if kind == "int":
            return int(cell)
        if kind == "float":
            return float(cell)
        if kind == "list":
            return cell.split(", ") if cell else []
        if kind == "tokens":
            return cell.split(" ") if cell else []
        return cell
    except (ValueError, TypeError) as exc:
        raise TableError(f"column {column!r}: cannot parse {cell!r}: {exc}") from exc


def _is_path(sink) -> bool:
    return isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")


class GzipTextWriter(io.TextIOWrapper):
    """UTF-8 text over one gzip member with mtime 0 and an empty file name, so
    equal content gives equal bytes wherever and whenever it is written.

    The sink is a path, opened and closed here, or a binary stream, which is
    left open (GzipFile never closes a stream it was handed)."""

    def __init__(self, sink):
        self._own = open(sink, "wb") if _is_path(sink) else None
        gz = gzip.GzipFile(filename="", fileobj=self._own or sink, mode="wb", mtime=0)
        super().__init__(gz, encoding="utf-8", newline="\n")

    def close(self):
        try:
            super().close()
        finally:
            if self._own is not None:
                self._own.close()


def write_tsv(sink, header, rows, provenance: dict | None = None) -> None:
    """Sorted "# key=value" provenance lines, the header, then one line per
    row of already serialized cells, as gzip TSV to a path or binary stream."""
    with GzipTextWriter(sink) as out:
        for key in sorted(provenance or {}):
            out.write(f"# {key}={provenance[key]}\n")
        out.write("\t".join(header) + "\n")
        for cells in rows:
            out.write("\t".join(cells) + "\n")


def write_table(rows: Iterable, format: str, sink, provenance: dict | None = None) -> None:
    """Serialize records to a gzip TSV byte stream or path."""
    if format not in SCHEMA:
        raise TableError(f"unknown format {format!r}")
    columns = SCHEMA[format]
    rec_type = _RECORD_TYPES[format]
    rows = list(rows)
    for r in rows:
        if not isinstance(r, rec_type):
            raise TableError(
                f"format {format!r} expects {rec_type.__name__} rows, got {type(r).__name__}")

    extra_cols = sorted({k for r in rows for k in r.extra})

    def cells():
        for idx, r in enumerate(rows):
            row = []
            for col in columns:
                try:
                    row.append(_serialize(getattr(r, _attr_name(col)), col, _kind(col)))
                except TableError as exc:
                    raise TableError(f"row {idx}: {exc}") from exc
            for col in extra_cols:
                v = r.extra.get(col)
                row.append("NA" if v is None else _check_text(str(v), col))
            yield row

    write_tsv(sink, columns + extra_cols, cells(), provenance)


def read_table(source, format: str) -> list:
    """Read records back from a gzip TSV byte stream or path."""
    if format not in SCHEMA:
        raise TableError(f"unknown format {format!r}")
    columns = SCHEMA[format]
    rec_type = _RECORD_TYPES[format]

    own = _is_path(source)
    raw = open(source, "rb") if own else source
    try:
        with gzip.open(raw, "rt", encoding="utf-8", newline="\n") as f:
            header = None
            for line in f:
                if line.startswith("#"):
                    continue
                header = line.rstrip("\n").split("\t")
                break
            if header is None:
                raise TableError("missing header row")
            missing = [c for c in columns if c not in header]
            if missing:
                raise TableError(f"missing required columns: {missing}")
            extra_cols = [c for c in header if c not in columns]
            pos = {c: header.index(c) for c in header}

            rows = []
            for lineno, line in enumerate(f, start=2):
                cells = line.rstrip("\n").split("\t")
                if len(cells) != len(header):
                    raise TableError(
                        f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
                kwargs = {}
                for col in columns:
                    try:
                        kwargs[_attr_name(col)] = _parse(cells[pos[col]], col, _kind(col))
                    except TableError as exc:
                        raise TableError(f"row {lineno}: {exc}") from exc
                extra = {}
                for col in extra_cols:
                    cell = cells[pos[col]]
                    extra[col] = None if cell == "NA" else cell
                rows.append(rec_type(**kwargs, extra=extra))
            return rows
    finally:
        if own:
            raw.close()
