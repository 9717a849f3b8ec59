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

Adapters may emit natural-log probabilities; scores are converted to base-2
bits at ingestion.  Subword surfaces are marker-free; ``begins_word`` carries
the beginning-of-word information.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import unicodedata
from dataclasses import dataclass

import numpy as np


class AdapterError(RuntimeError):
    pass


@dataclass
class SubwordScore:
    surface: str
    logprob2: float  # base-2 log probability, <= 0
    begins_word: bool = True
    is_punct_unit: bool = False


@dataclass
class PredictedPiece:
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


def _log2(logprob: float, base: str) -> float:
    if base == "2":
        return logprob
    if base == "e":
        return logprob / math.log(2)
    if base == "10":
        return logprob / math.log10(2)
    raise AdapterError(f"unknown log base {base!r}")


def request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True, ensure_ascii=False)


def write_replay(path, meta: dict, records) -> None:
    """Write a replay file: meta line, then (request, response) pairs."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"meta": meta}, ensure_ascii=False) + "\n")
        for request, response in records:
            f.write(json.dumps({"request": request, "response": response},
                               ensure_ascii=False) + "\n")


def load_replay(path) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise AdapterError(f"{path}: empty replay file")
        meta = json.loads(first).get("meta", {})
        table = {}
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                table[request_key(rec["request"])] = rec["response"]
            except (KeyError, json.JSONDecodeError) as exc:
                raise AdapterError(f"{path}:{lineno}: bad replay record: {exc}") from exc
    return meta, table


class _ReplayBase:
    kind = ""

    def __init__(self, path):
        self.path = str(path)
        self.meta, self._table = load_replay(path)
        if self.meta.get("kind") not in (None, self.kind):
            raise AdapterError(
                f"{path}: replay kind {self.meta.get('kind')!r} does not match {self.kind!r}")
        self.name = self.meta.get("name", "replay")
        self.log_base = str(self.meta.get("log_base", "2"))

    def _lookup(self, request: dict):
        key = request_key(request)
        if key not in self._table:
            raise AdapterError(f"{self.path}: no replay entry for request {key}")
        return self._table[key]

    def _subwords(self, response) -> list[SubwordScore]:
        subs = []
        for item in response:
            surface = item["surface"]
            subs.append(SubwordScore(
                surface=surface,
                logprob2=min(0.0, _log2(float(item["logprob"]), self.log_base)),
                begins_word=bool(item.get("begins_word", True)),
                is_punct_unit=bool(item.get("is_punct", is_punct_text(surface))),
            ))
        return subs


class ReplayCausalLM(_ReplayBase):
    """Replays recorded left-to-right language model scores."""

    kind = "causal_lm"

    def score(self, text: str) -> list[SubwordScore]:
        return self._subwords(self._lookup({"text": text}))


class ReplayMT(_ReplayBase):
    """Replays recorded teacher-forced translation model scores."""

    kind = "mt"

    def score(self, src: str, tgt: str) -> list[SubwordScore]:
        return self._subwords(self._lookup({"src": src, "tgt": tgt}))

    def predict_argmax(self, src: str, tgt: str) -> list[PredictedPiece]:
        response = self._lookup({"src": src, "tgt": tgt, "task": "argmax"})
        return [PredictedPiece(item["surface"], bool(item.get("begins_word", True)))
                for item in response]


class ReplayEncoder(_ReplayBase):
    """Replays recorded contextual subword embeddings."""

    kind = "encoder"

    def embed(self, text: str, lang: str) -> list[tuple[str, tuple[int, int], np.ndarray]]:
        response = self._lookup({"text": text, "lang": lang})
        out = []
        for item in response:
            out.append((item["surface"], tuple(item["span"]),
                        np.asarray(item["vec"], dtype=float)))
        return out


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

    log_base = "2"

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
