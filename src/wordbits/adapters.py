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
record once, while it loads the file, into columns of immutable atoms:

  scores   a ``SubwordScores``: surfaces as a tuple of interned strings,
           base-2 log probabilities packed as float64 ``bytes``, and the
           ``begins_word`` and ``is_punct_unit`` flags as one byte each, so
           about 18 bytes per subword besides the shared strings;
  argmax   a tuple of surfaces and ``bytes`` of ``begins_word`` flags;
  parses   one flat tuple: per sentence its token count, then the CoNLL-U
           field values of its tokens;
  encoder  a tuple of surfaces, an int64 array of spans and one read-only
           float64 array of the vectors (about 8 bytes per vector float).

A score lookup returns the stored ``SubwordScores`` itself: it is shared
between calls and cannot be changed, and it builds a ``SubwordScore`` only
for an item indexed or iterated.  Argmax, parse and encoder lookups build
fresh ``PredictedPiece``s, ``ConlluToken``s and tuples from the columns.
Apart from one ``SubwordScores`` per score record, nothing a loaded table
holds stays tracked by the garbage collector: its collections untrack
tuples of atoms.  A first line that is not exactly the meta object, a
record that is not valid JSON or does not decode, or one that repeats a
request with a different response, fails the load with its file and line.
Subword surfaces are marker-free; ``begins_word`` carries the
beginning-of-word information.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import unicodedata
from array import array
from operator import eq
from sys import intern
from typing import NamedTuple

import numpy as np

from .tables import text_writer

log = logging.getLogger(__name__)


class AdapterError(RuntimeError):
    pass


def adapter_name(adapter) -> str:
    """Its name, else its class name: a repr holds a per-run address."""
    return getattr(adapter, "name", type(adapter).__name__)


def attempt(adapter, item, kept, fn, *args):
    """fn(*args), or None after one warning naming the adapter, the item and
    what is kept if it raises.  Every adapter job runs through here: the one
    place where an error lets a run go on."""
    try:
        return fn(*args)
    except Exception as exc:
        log.warning("adapter %s failed on %s, %s: %s",
                    adapter_name(adapter), item, kept, exc)
        return None


class SubwordScore(NamedTuple):
    surface: str
    logprob2: float  # base-2 log probability, <= 0
    begins_word: bool = True
    is_punct_unit: bool = False


class PredictedPiece(NamedTuple):
    surface: str
    begins_word: bool = True


class SubwordScores:
    """The subword scores of one text as immutable columns.

    A sequence of ``SubwordScore``s: ``len``, iteration and an int index give
    ``SubwordScore``s built on demand, and a slice gives another
    ``SubwordScores``.  Scoring code reads the columns directly:
    ``surfaces`` (a tuple), ``logprob2`` (a read-only float64 view of packed
    bytes) and the ``begins_word`` and ``is_punct_unit`` flags (``bytes``
    of 0 or 1)."""

    __slots__ = ("surfaces", "_logprob2", "begins_word", "is_punct_unit")

    def __init__(self, surfaces, logprob2, begins_word, is_punct_unit):
        logprob2 = array("d", logprob2)
        columns = (tuple(surfaces), logprob2.tobytes(),
                   bytes(map(bool, begins_word)), bytes(map(bool, is_punct_unit)))
        if len({len(columns[0]), len(logprob2), *map(len, columns[2:])}) != 1:
            raise ValueError("columns differ in length")
        if not all(map(math.isfinite, logprob2)):
            raise ValueError("log probabilities not finite: "
                             f"{[v for v in logprob2 if not math.isfinite(v)]}")
        for name, value in zip(self.__slots__, columns):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, subwords) -> SubwordScores:
        """subwords itself if it is a SubwordScores, else the columns of its
        SubwordScore items."""
        if isinstance(subwords, cls):
            return subwords
        return cls(*(tuple(zip(*subwords)) or ((), (), (), ())))

    @property
    def logprob2(self) -> memoryview:
        return memoryview(self._logprob2).cast("d")

    def bits(self) -> list[float]:
        """Per-subword surprisal in bits, -logprob2 floored at 0."""
        return [max(0.0, -lp) for lp in self.logprob2]

    def __setattr__(self, name, value):
        raise AttributeError("SubwordScores is immutable")

    def __delattr__(self, name):
        raise AttributeError("SubwordScores is immutable")

    def __len__(self) -> int:
        return len(self.surfaces)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if (start, stop, step) == (0, len(self), 1):
                return self
            return SubwordScores(self.surfaces[index], self.logprob2[index],
                                 self.begins_word[index], self.is_punct_unit[index])
        return SubwordScore(self.surfaces[index], self.logprob2[index],
                            bool(self.begins_word[index]), bool(self.is_punct_unit[index]))

    def __iter__(self):
        return map(SubwordScore, self.surfaces, self.logprob2,
                   map(bool, self.begins_word), map(bool, self.is_punct_unit))

    def __eq__(self, other):
        if not isinstance(other, SubwordScores):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return f"SubwordScores({list(self)!r})"


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


def meta_of(obj):
    """The meta dict of a parsed {"meta": {...}} line, else None."""
    if isinstance(obj, dict) and set(obj) == {"meta"} and isinstance(obj["meta"], dict):
        return obj["meta"]
    return None


def request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True, ensure_ascii=False)


def write_replay(path, meta: dict, records) -> None:
    """Write a replay file atomically: meta line, then (request, response)
    pairs."""
    with text_writer(path, gz=False) as f:
        f.write(json.dumps({"meta": meta}, ensure_ascii=False) + "\n")
        for request, response in records:
            f.write(json.dumps({"request": request, "response": response},
                               ensure_ascii=False) + "\n")


# what decoding a malformed record can raise; AdapterError and RecursionError
# are RuntimeErrors
_BAD_RECORD = (RuntimeError, LookupError, TypeError, ValueError, ArithmeticError,
               AttributeError)


class _ReplayBase:
    """A replay file's records, each decoded once at load by the subclass's
    ``_decode(request, response)`` into the immutable value its lookups
    read; ``_same`` compares the values of two records for one request."""

    kind = ""
    _same = staticmethod(eq)

    def __init__(self, path):
        """Load the replay file at path.  Its first line must be the meta
        object, checked before any record is read.  A meta line or record
        that does not parse or decode, or a record that repeats a request
        with a different value, raises AdapterError naming its line."""
        self.path = str(path)
        self._units = {}  # surface -> (shared surface, is punct), while loading
        table = self._table = {}
        first_line = {}
        with open(path, encoding="utf-8-sig") as f:
            first = f.readline()
            if not first:
                raise AdapterError(f"{self.path}: empty replay file")
            try:
                meta = self.meta = meta_of(json.loads(first))
                if meta is None:
                    raise ValueError('not a {"meta": {...}} object')
            except ValueError as exc:
                raise AdapterError(f"{self.path}:1: bad replay meta line: {exc}") from exc
            if meta.get("kind") not in (None, self.kind):
                raise AdapterError(f"{self.path}: replay kind {meta.get('kind')!r} "
                                   f"does not match {self.kind!r}")
            self.name = meta.get("name", "replay")
            self.log_base = str(meta.get("log_base", "2"))
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    request = rec["request"]
                    key = request_key(request)
                    value = self._decode(request, rec["response"])
                except _BAD_RECORD as exc:
                    raise AdapterError(
                        f"{self.path}:{lineno}: bad replay record: {exc}") from exc
                if key not in table:
                    table[key] = value
                    first_line[key] = lineno
                elif not self._same(table[key], value):
                    raise AdapterError(
                        f"{self.path}:{lineno}: response for request {key} differs "
                        f"from the one on line {first_line[key]}")
        del self._units

    def _lookup(self, request: dict):
        key = request_key(request)
        if key not in self._table:
            raise AdapterError(f"{self.path}: no replay entry for request {key}")
        return self._table[key]

    def _scores(self, response) -> SubwordScores:
        divisor = _BITS_DIVISOR.get(self.log_base)
        if divisor is None:
            raise AdapterError(f"unknown log base {self.log_base!r}")
        units = self._units
        surfaces, logprob2, begins, punct = [], [], [], []
        for item in response:
            surface = item["surface"]
            unit = units.get(surface)
            if unit is None:
                unit = units[surface] = (intern(surface), is_punct_text(surface))
            surfaces.append(unit[0])
            lp = item["logprob"]
            if type(lp) not in (int, float) or not math.isfinite(lp):
                raise AdapterError(f"logprob {lp!r} is not a finite JSON number")
            logprob2.append(lp / divisor if lp < 0.0 else 0.0)
            begins.append(item.get("begins_word", True))
            punct.append(item.get("is_punct", unit[1]))
        return SubwordScores(surfaces, logprob2, begins, punct)


class ReplayCausalLM(_ReplayBase):
    """Replays recorded left-to-right language model scores."""

    kind = "causal_lm"

    def _decode(self, request, response) -> SubwordScores:
        return self._scores(response)

    def score(self, text: str) -> SubwordScores:
        return self._lookup({"text": text})


class ReplayMT(_ReplayBase):
    """Replays recorded teacher-forced translation model scores."""

    kind = "mt"

    def _decode(self, request, response):
        """SubwordScores, or for an argmax record (surfaces, begins_word
        flags)."""
        if request.get("task") == "argmax":
            return (tuple(intern(item["surface"]) for item in response),
                    bytes(bool(item.get("begins_word", True)) for item in response))
        return self._scores(response)

    def score(self, src: str, tgt: str) -> SubwordScores:
        return self._lookup({"src": src, "tgt": tgt})

    def predict_argmax(self, src: str, tgt: str) -> list[PredictedPiece]:
        surfaces, begins = self._lookup({"src": src, "tgt": tgt, "task": "argmax"})
        return list(map(PredictedPiece, surfaces, map(bool, begins)))


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
