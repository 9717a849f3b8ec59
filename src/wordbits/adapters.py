"""Model adapter contracts, replay adapters, and deterministic mocks.

All model access goes through small adapter objects so the pipeline can run
against live models, recorded replay files, or mocks interchangeably.

Wire format (one JSON object per line, UTF-8):

  line 1: {"meta": {"kind": "causal_lm"|"mt"|"encoder"|"parser",
                    "name": <adapter identity>, "log_base": "2"|"e"}}
  then:   {"request": {...}, "response": ...}

Requests:
  causal_lm  {"text": str}
  mt         {"src": str, "tgt": str}            (teacher-forced scoring)
             {"src": str, "tgt": str, "task": "argmax"}
  encoder    {"text": str, "lang": str}
  parser     {"text": str, "lang": str}

Responses:
  causal_lm / mt   [{"surface": str, "logprob": float, "begins_word": bool,
                     "is_punct": bool?}, ...]
  mt argmax        [{"surface": str, "begins_word": bool}, ...]
  encoder          [{"surface": str, "span": [start, end], "vec": [float,...]}, ...]
  parser           [[{conllu token fields}, ...], ...]   (one list per sentence)

Adapters may emit natural-log probabilities.  A replay adapter decodes each
record once, while it loads the file, into the value its lookups return:
scores become base-2 ``SubwordScore``s, argmax predictions
``PredictedPiece``s, parses ``ConlluToken``s, and an encoder response one
read-only float64 array of its vectors (about 8 bytes per vector float in
memory).  These values are immutable and shared between calls; each lookup
returns a fresh list of them.  A record that is not valid JSON or does not
decode, or that repeats a request with a different response, fails the
load with its file and line.  Subword surfaces are marker-free;
``begins_word`` carries the beginning-of-word information.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import unicodedata
from operator import eq
from sys import intern
from typing import NamedTuple

import numpy as np


class AdapterError(RuntimeError):
    pass


class SubwordScore(NamedTuple):
    surface: str
    logprob2: float  # base-2 log probability, <= 0
    begins_word: bool = True
    is_punct_unit: bool = False


class PredictedPiece(NamedTuple):
    surface: str
    begins_word: bool = True


def is_punct_text(s: str) -> bool:
    return bool(s) and all(unicodedata.category(c)[0] in "PS" for c in s)


def detokenize_pieces(pieces) -> str:
    """Join subword pieces back into text; begins_word inserts the space."""
    out = []
    for i, p in enumerate(pieces):
        if i and p.begins_word:
            out.append(" ")
        out.append(p.surface)
    return "".join(out)


# divide a logprob in the meta's log_base by this to get bits
_BITS_DIVISOR = {"2": 1.0, "e": math.log(2), "10": math.log10(2)}


def request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True, ensure_ascii=False)


def write_replay(path, meta: dict, records) -> None:
    """Write a replay file: meta line, then (request, response) pairs."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"meta": meta}, ensure_ascii=False) + "\n")
        for request, response in records:
            f.write(json.dumps({"request": request, "response": response},
                               ensure_ascii=False) + "\n")


# what decoding a malformed record can raise; AdapterError and RecursionError
# are RuntimeErrors
_BAD_RECORD = (RuntimeError, LookupError, TypeError, ValueError, ArithmeticError,
               AttributeError)


def load_replay(path, adapter) -> tuple[dict, dict]:
    """Read a replay file into its meta dict and a table from request key to
    value.

    ``adapter._accept(meta)`` checks the meta line before any record is
    read, each record is stored as ``adapter._decode(request, response)``,
    and ``adapter._same`` compares the values of two records for one
    request.  A record that does not parse or decode, or that repeats a
    request with a different value, raises AdapterError naming its line.
    """
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise AdapterError(f"{path}: empty replay file")
        try:
            meta = json.loads(first).get("meta", {})
        except (ValueError, AttributeError) as exc:
            raise AdapterError(f"{path}:1: bad replay meta line: {exc}") from exc
        adapter._accept(meta)
        table = {}
        first_line = {}
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                request = rec["request"]
                key = request_key(request)
                value = adapter._decode(request, rec["response"])
            except _BAD_RECORD as exc:
                raise AdapterError(f"{path}:{lineno}: bad replay record: {exc}") from exc
            if key not in table:
                table[key] = value
                first_line[key] = lineno
            elif not adapter._same(table[key], value):
                raise AdapterError(
                    f"{path}:{lineno}: response for request {key} differs from "
                    f"the one on line {first_line[key]}")
    return meta, table


class _ReplayBase:
    """A replay file's records, each decoded once at load by the subclass's
    ``_decode(request, response)`` into the immutable value its lookups
    return."""

    kind = ""
    _same = staticmethod(eq)

    def __init__(self, path):
        self.path = str(path)
        self._units = {}  # surface -> (shared surface, is punct), while loading
        self.meta, self._table = load_replay(path, self)
        del self._units

    def _accept(self, meta: dict) -> None:
        if meta.get("kind") not in (None, self.kind):
            raise AdapterError(
                f"{self.path}: replay kind {meta.get('kind')!r} does not match {self.kind!r}")
        self.name = meta.get("name", "replay")
        self.log_base = str(meta.get("log_base", "2"))

    def _lookup(self, request: dict):
        key = request_key(request)
        if key not in self._table:
            raise AdapterError(f"{self.path}: no replay entry for request {key}")
        return self._table[key]

    def _scores(self, response) -> tuple:
        divisor = _BITS_DIVISOR.get(self.log_base)
        if divisor is None:
            raise AdapterError(f"unknown log base {self.log_base!r}")
        units = self._units
        subs = []
        for item in response:
            surface = item["surface"]
            unit = units.get(surface)
            if unit is None:
                unit = units[surface] = (intern(surface), is_punct_text(surface))
            subs.append(SubwordScore(
                unit[0],
                min(0.0, float(item["logprob"]) / divisor),
                bool(item.get("begins_word", True)),
                bool(item.get("is_punct", unit[1])),
            ))
        return tuple(subs)


class ReplayCausalLM(_ReplayBase):
    """Replays recorded left-to-right language model scores."""

    kind = "causal_lm"

    def _decode(self, request, response) -> tuple:
        return self._scores(response)

    def score(self, text: str) -> list[SubwordScore]:
        return list(self._lookup({"text": text}))


class ReplayMT(_ReplayBase):
    """Replays recorded teacher-forced translation model scores."""

    kind = "mt"

    def _decode(self, request, response) -> tuple:
        if request.get("task") == "argmax":
            return tuple(PredictedPiece(intern(item["surface"]),
                                        bool(item.get("begins_word", True)))
                         for item in response)
        return self._scores(response)

    def score(self, src: str, tgt: str) -> list[SubwordScore]:
        return list(self._lookup({"src": src, "tgt": tgt}))

    def predict_argmax(self, src: str, tgt: str) -> list[PredictedPiece]:
        return list(self._lookup({"src": src, "tgt": tgt, "task": "argmax"}))


def _span(span) -> tuple[int, int]:
    start, end = span
    if type(start) is not int or type(end) is not int:
        raise ValueError(f"span {span!r} is not two ints")
    return start, end


class ReplayEncoder(_ReplayBase):
    """Replays recorded contextual subword embeddings."""

    kind = "encoder"

    def _decode(self, request, response) -> tuple:
        """(surfaces, (n, 2) int spans, read-only (n, dim) float64 vectors)."""
        surfaces = tuple(intern(item["surface"]) for item in response)
        spans = np.array([_span(item["span"]) for item in response], dtype=np.int64)
        vecs = np.array([item["vec"] for item in response], dtype=float)
        if response and vecs.ndim != 2:
            raise ValueError("each vec must be one flat list of numbers")
        vecs.flags.writeable = False
        return surfaces, spans, vecs

    @staticmethod
    def _same(a, b) -> bool:
        return a[0] == b[0] and all(map(np.array_equal, a[1:], b[1:]))

    def embed(self, text: str, lang: str) -> list[tuple[str, tuple[int, int], np.ndarray]]:
        surfaces, spans, vecs = self._lookup({"text": text, "lang": lang})
        return list(zip(surfaces, map(tuple, spans.tolist()), vecs))


_WORDISH = re.compile(r"\w+|[^\w\s]+", re.UNICODE)


def _hash_unit(*parts) -> float:
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") / 2**64


def mock_pieces(text: str, chunk: int = 4) -> list[tuple[str, bool]]:
    """Deterministic subword split: punctuation runs separate, long word runs
    chunked; returns (surface, begins_word) pairs."""
    pieces = []
    for wtok in text.split(" "):
        first = True
        for m in _WORDISH.finditer(wtok):
            run = m.group(0)
            if is_punct_text(run):
                pieces.append((run, False if not first else True))
                first = False
                continue
            for i in range(0, len(run), chunk):
                pieces.append((run[i:i + chunk], first and i == 0))
                first = False
    if pieces:
        s, _ = pieces[0]
        pieces[0] = (s, True)
    return pieces


class _MockScorer:
    """Deterministic stand-in scorer: the logprob of a piece depends only on
    the preceding pieces (and, for MT, the source), so prefix scoring equals
    the prefix of full scoring."""

    def __init__(self, seed: int = 0, chunk: int = 4):
        self.seed = seed
        self.chunk = chunk
        self.name = f"{self._name}-{seed}"

    def _score(self, context: list, text: str) -> list[SubwordScore]:
        subs = []
        for surface, begins in mock_pieces(text, self.chunk):
            u = _hash_unit(self.seed, tuple(context), surface)
            lp = -(0.1 + self._spread * u)
            subs.append(SubwordScore(surface, lp, begins, is_punct_text(surface)))
            context.append(surface)
        return subs


class MockCausalLM(_MockScorer):
    kind = "causal_lm"
    _name = "mock-lm"
    _spread = 14.9

    def score(self, text: str) -> list[SubwordScore]:
        return self._score([], text)


class MockMT(_MockScorer):
    """Mock MT scorer; argmax prediction echoes the gold."""

    kind = "mt"
    _name = "mock-mt"
    _spread = 19.9

    def score(self, src: str, tgt: str) -> list[SubwordScore]:
        return self._score([src], tgt)

    def predict_argmax(self, src: str, tgt: str) -> list[PredictedPiece]:
        return [PredictedPiece(s, b) for s, b in mock_pieces(tgt, self.chunk)]


class MockEncoder:
    """Deterministic stand-in encoder: same surface -> same direction, so
    identical tokens across languages align."""

    kind = "encoder"

    def __init__(self, dim: int = 16, seed: int = 0, chunk: int = 4):
        self.dim = dim
        self.seed = seed
        self.chunk = chunk
        self.name = f"mock-enc-{seed}"

    def embed(self, text: str, lang: str):
        out = []
        cursor = 0
        for surface, _begins in mock_pieces(text, self.chunk):
            start = text.index(surface, cursor)
            span = (start, start + len(surface))
            cursor = span[1]
            rng = np.random.default_rng(
                int.from_bytes(hashlib.sha256(
                    f"{self.seed}|{surface.casefold()}".encode()).digest()[:8], "big"))
            vec = rng.normal(size=self.dim)
            out.append((surface, span, 8.0 * vec / np.linalg.norm(vec)))
        return out
