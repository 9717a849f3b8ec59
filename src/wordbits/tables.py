"""Readers and writers for the gzip TSV corpus formats (vertical, long, wide).

The column orders are frozen in data/columns.txt.  Each format's columns are
the fields of its record type in records.py, in the same order; a column's
field is its name lower-cased, with "+" spelled "_plus_".  Cell types come
from the field annotations (ItemId, int, float, list[str] or str, each
optionally "| None"), read once per format when this module is imported, and
a manifest that disagrees with its record type fails the import.

Cells are UTF-8, tab separated, no quoting; "NA" is the sole null marker (an
empty cell is the empty string, not null).  List cells are ", "-joined,
except the space-joined tokens column.  Writers emit optional "#"-prefixed
provenance lines before the header; readers skip them.  Gzip members are
written with mtime=0 so identical content yields identical bytes.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import fields
from importlib import resources
from operator import attrgetter
from types import UnionType
from typing import Iterable, Union, get_args, get_origin, get_type_hints

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


def _text(value) -> str:
    value = str(value)
    if "\t" in value or "\n" in value:
        raise TableError("embedded tab/newline is not serializable")
    if value == "NA":
        raise TableError("the literal string 'NA' is reserved for nulls")
    return value


def _list_codec(sep: str, banned: str, problem: str):
    def serialize(values) -> str:
        parts = [_text(v) for v in values]
        for p in parts:
            if banned in p:
                raise TableError(f"{problem} {p!r}")
        return sep.join(parts)

    def parse(cell: str) -> list[str]:
        return cell.split(sep) if cell else []

    return serialize, parse


# annotation (without "| None") -> (serialize, parse); None is always "NA"
_CODECS = {
    ItemId: (ItemId.render, parse_item_id),
    int: (lambda v: str(int(v)), int),
    float: (lambda v: repr(float(v)), float),
    str: (_text, str),
    list[str]: _list_codec(", ", ",", "comma inside list element"),
}
_TOKENS = _list_codec(" ", " ", "space inside token")


def column_plan(columns: list[str], rec_type) -> list[tuple]:
    """(column, attribute, serialize, parse) per column of a format whose rows
    are rec_type; raises TableError unless the columns name rec_type's fields
    in order and every field has a supported annotation."""
    hints = get_type_hints(rec_type)
    names = [f.name for f in fields(rec_type) if f.name != "extra"]
    if [c.lower().replace("+", "_plus_") for c in columns] != names:
        raise TableError(f"manifest columns {columns} are not the fields of "
                         f"{rec_type.__name__} in order: {names}")
    plan = []
    for column, name in zip(columns, names):
        hint = hints[name]
        if get_origin(hint) in (Union, UnionType):  # drop "| None"
            hint = Union[tuple(a for a in get_args(hint) if a is not type(None))]
        codec = _TOKENS if column == "tokens" and hint == list[str] else _CODECS.get(hint)
        if codec is None:
            raise TableError(f"{rec_type.__name__}.{name}: unsupported annotation {hints[name]!r}")
        plan.append((column, name, *codec))
    return plan


SCHEMA = load_schema()
_RECORD_TYPES = {"vertical": WordRow, "long": SegmentRecord, "wide": SegmentPairRecord}
PLANS = {fmt: column_plan(SCHEMA[fmt], rec_type) for fmt, rec_type in _RECORD_TYPES.items()}


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


def _plan_for(format: str) -> list[tuple]:
    if format not in PLANS:
        raise TableError(f"unknown format {format!r}")
    return PLANS[format]


def write_table(rows: Iterable, format: str, sink, provenance: dict | None = None) -> None:
    """Serialize records to a gzip TSV byte stream or path."""
    plan = _plan_for(format)
    rec_type = _RECORD_TYPES[format]
    rows = list(rows)
    for r in rows:
        if not isinstance(r, rec_type):
            raise TableError(
                f"format {format!r} expects {rec_type.__name__} rows, got {type(r).__name__}")

    extra_cols = sorted({k for r in rows for k in r.extra})
    # attrgetter, not vars(): a row's __dict__, once asked for, stays built
    values_of = attrgetter(*(attr for _, attr, _, _ in plan))

    def cells():
        for idx, r in enumerate(rows):
            row = []
            try:
                for (column, _, serialize, _), v in zip(plan, values_of(r)):
                    row.append("NA" if v is None else serialize(v))
                for column in extra_cols:
                    v = r.extra.get(column)
                    row.append("NA" if v is None else _text(v))
            except (AttributeError, TypeError, ValueError) as exc:
                raise TableError(f"row {idx}: column {column!r}: {exc}") from exc
            yield row

    write_tsv(sink, SCHEMA[format] + extra_cols, cells(), provenance)


def read_table(source, format: str) -> list:
    """Read records back from a gzip TSV byte stream or path."""
    plan = _plan_for(format)
    rec_type = _RECORD_TYPES[format]
    columns = SCHEMA[format]
    with gzip.open(source, "rt", encoding="utf-8", newline="\n") as f:
        # record k sits on file line first_line + k, below the provenance
        # lines and the header
        header = None
        for first_line, line in enumerate(f, start=2):
            if not line.startswith("#"):
                header = line
                break
        if header is None:
            raise TableError("missing header row")
        header = header.rstrip("\n").split("\t")
        missing = [c for c in columns if c not in header]
        if missing:
            raise TableError(f"missing required columns: {missing}")
        pos = {c: header.index(c) for c in header}
        fields_at = [(column, attr, parse, pos[column]) for column, attr, _, parse in plan]
        extras_at = [(c, pos[c]) for c in header if c not in columns]

        rows = []
        for idx, line in enumerate(f):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(header):
                raise TableError(f"row {idx} (line {first_line + idx}): "
                                 f"expected {len(header)} cells, got {len(cells)}")
            kwargs = {}
            try:
                for column, attr, parse, i in fields_at:
                    cell = cells[i]
                    kwargs[attr] = None if cell == "NA" else parse(cell)
            except (TypeError, ValueError) as exc:
                raise TableError(f"row {idx} (line {first_line + idx}): column "
                                 f"{column!r}: cannot parse {cell!r}: {exc}") from exc
            extra = {c: None if cells[i] == "NA" else cells[i] for c, i in extras_at}
            rows.append(rec_type(**kwargs, extra=extra))
        return rows
