"""Readers and writers for the gzip TSV corpus formats (vertical, long, wide).

Each format's columns are the fields of its record type in records.py
(WordRow, SegmentRecord, SegmentPairRecord), in field order.  A column is
named after its field, except the nine in _COLUMN_NAMES (the *_AvS* means and
fillers+3).  Cell types come from the field annotations (ItemId, int, float,
list[str] or str, each optionally "| None"), read once per format when this
module is imported.

Cells are UTF-8, tab separated, no quoting; "NA" is the sole null marker (an
empty cell is the empty string, not null).  List cells are ", "-joined,
except the space-joined tokens column.  Writers emit optional "#"-prefixed
provenance lines before the header; readers skip them, match columns by name
and ignore unknown columns.  Gzip members are written with mtime=0 so
identical content yields identical bytes.

The record types are slotted dataclasses: a record holds exactly its
columns, and assigning any other attribute raises AttributeError.  A read
keeps one string object per distinct string value and parses each id head
once: the columns that are constant within a segment side (raw_seg above
all) then cost one copy per segment, not one per row.
"""

from __future__ import annotations

import gzip
import io
import os
import secrets
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from operator import attrgetter
from types import UnionType
from typing import Iterable, Union, get_args, get_origin, get_type_hints

from wordbits.ids import ItemId, item_id_reader
from wordbits.records import SegmentPairRecord, SegmentRecord, WordRow

# record field -> column, for the columns not named after their field
_COLUMN_NAMES = {
    "base_gpt_avs": "base_gpt_AvS",
    "base_gpt_avs_subw": "base_gpt_AvS_subw",
    "ft_gpt_avs": "ft_gpt_AvS",
    "ft_gpt_avs_subw": "ft_gpt_AvS_subw",
    "fillers_plus_3": "fillers+3",
    "base_mt_avs": "base_mt_AvS",
    "base_mt_avs_subw": "base_mt_AvS_subw",
    "ft_mt_avs": "ft_mt_AvS",
    "ft_mt_avs_subw": "ft_mt_AvS_subw",
}


class TableError(ValueError):
    pass


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

    def reader(keep):
        def parse(cell: str) -> list[str]:
            return list(map(keep, cell.split(sep))) if cell else []
        return parse

    return serialize, reader


class _Strings(dict):
    """The first string read for each value, so that equal cells of one read
    share one object."""

    def __missing__(self, s: str) -> str:
        self[s] = s
        return s


# annotation (without "| None") -> (serialize, reader); None is always "NA".
# A reader takes the read's keep(str) -> str, the first equal string read,
# and returns the cell parser for that read.
_CODECS = {
    ItemId: (ItemId.render, item_id_reader),
    int: (lambda v: str(int(v)), lambda keep: int),
    float: (lambda v: repr(float(v)), lambda keep: float),
    str: (_text, lambda keep: keep),
    list[str]: _list_codec(", ", ",", "comma inside list element"),
}
_TOKENS = _list_codec(" ", " ", "space inside token")


def column_plan(rec_type) -> list[tuple]:
    """(column, attribute, serialize, reader) per field of rec_type, in field
    order; raises TableError for a field whose annotation has no codec."""
    hints = get_type_hints(rec_type)
    plan = []
    for f in fields(rec_type):
        hint = hints[f.name]
        if get_origin(hint) in (Union, UnionType):  # drop "| None"
            hint = Union[tuple(a for a in get_args(hint) if a is not type(None))]
        codec = _TOKENS if f.name == "tokens" and hint == list[str] else _CODECS.get(hint)
        if codec is None:
            raise TableError(f"{rec_type.__name__}.{f.name}: unsupported annotation "
                             f"{hints[f.name]!r}")
        plan.append((_COLUMN_NAMES.get(f.name, f.name), f.name, *codec))
    return plan


_RECORD_TYPES = {"vertical": WordRow, "long": SegmentRecord, "wide": SegmentPairRecord}
PLANS = {fmt: column_plan(rec_type) for fmt, rec_type in _RECORD_TYPES.items()}
SCHEMA = {fmt: [column for column, *_ in plan] for fmt, plan in PLANS.items()}


@contextmanager
def text_writer(sink, gz: bool):
    """A UTF-8 text stream with "\n" newlines over sink: one gzip member
    with mtime 0 and an empty file name when gz is true, so equal content
    gives equal bytes wherever and whenever it is written, else plain text.

    A binary stream sink is written directly and left open.  A path sink is
    written to a temporary file beside it, which replaces the path once the
    with-block and every close have succeeded and is removed on any failure,
    so a failed write leaves the file that was there."""
    if isinstance(sink, (str, bytes, os.PathLike)):
        dest = os.fsdecode(sink)
        raw = open(f"{dest}.{secrets.token_hex(4)}.tmp", "xb")
        try:
            with raw, text_writer(raw, gz) as out:
                yield out
            os.replace(raw.name, dest)
        except BaseException:  # the with has closed raw, even if its close raised
            os.remove(raw.name)
            raise
        return
    # level 6, not GzipFile's default 9: on the seed-1 benchmark verticals it
    # compressed in 0.57 of the time, into files 1.3-1.4% larger
    with (gzip.GzipFile(filename="", fileobj=sink, mode="wb", mtime=0, compresslevel=6)
          if gz else nullcontext(sink)) as raw:
        out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        try:
            yield out
        finally:
            out.detach()  # flushes, and keeps raw open for the with to close


def write_tsv(sink, header, rows, provenance: dict | None = None) -> None:
    """Sorted "# key=value" provenance lines, the header, then one line per
    row of already serialized cells, as gzip TSV to a path or binary stream.
    A provenance key or value with a line break raises TableError before the
    sink is opened, since it would split its "#" line."""
    provenance = provenance or {}
    for key, value in provenance.items():
        if any(c in f"{key}={value}" for c in "\n\r"):
            raise TableError(f"provenance entry {key!r} contains a line break")
    with text_writer(sink, gz=True) as out:
        for key in sorted(provenance):
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

    values_of = attrgetter(*(attr for _, attr, _, _ in plan))

    def cells():
        for idx, r in enumerate(rows):
            row = []
            try:
                for (column, _, serialize, _), v in zip(plan, values_of(r)):
                    row.append("NA" if v is None else serialize(v))
            except (AttributeError, TypeError, ValueError) as exc:
                raise TableError(f"row {idx}: column {column!r}: {exc}") from exc
            yield row

    write_tsv(sink, SCHEMA[format], cells(), provenance)


def read_table(source, format: str) -> list:
    """Read records back from a gzip TSV byte stream or path.

    Equal string cells of one read share one object, list elements too (the
    lists themselves are one per row), and each id head is parsed once."""
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
        keep = _Strings().__getitem__
        fields_at = [(column, pos[column], reader(keep)) for column, _, _, reader in plan]

        rows = []
        for idx, line in enumerate(f):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(header):
                raise TableError(f"row {idx} (line {first_line + idx}): "
                                 f"expected {len(header)} cells, got {len(cells)}")
            values = []
            try:
                for column, i, parse in fields_at:
                    cell = cells[i]
                    values.append(None if cell == "NA" else parse(cell))
            except (TypeError, ValueError) as exc:
                raise TableError(f"row {idx} (line {first_line + idx}): column "
                                 f"{column!r}: cannot parse {cell!r}: {exc}") from exc
            rows.append(rec_type(*values))
        return rows
