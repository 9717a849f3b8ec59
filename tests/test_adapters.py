import gc
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from wordbits.adapters import (
    AdapterError,
    MockCausalLM,
    MockEncoder,
    MockMT,
    PredictedPiece,
    ReplayCausalLM,
    ReplayEncoder,
    ReplayMT,
    SubwordScore,
    SubwordScores,
    detokenize_pieces,
    is_punct_text,
    mock_pieces,
    request_key,
    write_replay,
)
from wordbits.annotate import ConlluToken, ReplayParser


def _write(path, meta, records):
    write_replay(path, meta, records)
    return str(path)


def test_replay_round_trip(tmp_path):
    p = _write(tmp_path / "lm.jsonl",
               {"kind": "causal_lm", "name": "m1", "log_base": "2"},
               [({"text": "ab"},
                 [{"surface": "ab", "logprob": -3.5, "begins_word": True}])])
    lm = ReplayCausalLM(p)
    assert lm.name == "m1"
    subs = lm.score("ab")
    assert len(subs) == 1
    assert subs[0].surface == "ab"
    assert subs[0].logprob2 == -3.5
    assert subs[0].begins_word is True


def test_missing_request_raises(tmp_path):
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm"}, [])
    with pytest.raises(AdapterError, match="no replay entry"):
        ReplayCausalLM(p).score("never recorded")


def test_kind_mismatch_rejected(tmp_path):
    p = _write(tmp_path / "x.jsonl", {"kind": "encoder"}, [])
    with pytest.raises(AdapterError, match="kind"):
        ReplayCausalLM(p)


def test_natural_log_converted_to_bits(tmp_path):
    p = _write(tmp_path / "lm.jsonl",
               {"kind": "causal_lm", "log_base": "e"},
               [({"text": "x"}, [{"surface": "x", "logprob": -math.log(2)}])])
    subs = ReplayCausalLM(p).score("x")
    assert subs[0].logprob2 == pytest.approx(-1.0, abs=1e-12)


def test_log10_converted_to_bits(tmp_path):
    p = _write(tmp_path / "lm.jsonl",
               {"kind": "causal_lm", "log_base": "10"},
               [({"text": "x"}, [{"surface": "x", "logprob": -math.log10(2)}])])
    subs = ReplayCausalLM(p).score("x")
    assert subs[0].logprob2 == pytest.approx(-1.0, abs=1e-12)


def test_positive_logprob_clamped_to_zero(tmp_path):
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm"},
               [({"text": "x"}, [{"surface": "x", "logprob": 0.2}])])
    assert ReplayCausalLM(p).score("x")[0].logprob2 == 0.0


def test_request_key_order_independent(tmp_path):
    # recorded with keys in one order, queried via another
    p = tmp_path / "mt.jsonl"
    with open(p, "w", encoding="utf-8") as f:
        f.write(json.dumps({"meta": {"kind": "mt"}}) + "\n")
        f.write(json.dumps({"request": {"tgt": "b", "src": "a"},
                            "response": [{"surface": "b", "logprob": -1}]}) + "\n")
    assert ReplayMT(p).score("a", "b")[0].surface == "b"


def test_mt_argmax_channel(tmp_path):
    p = _write(tmp_path / "mt.jsonl", {"kind": "mt"}, [
        ({"src": "a", "tgt": "b"}, [{"surface": "b", "logprob": -2}]),
        ({"src": "a", "tgt": "b", "task": "argmax"},
         [{"surface": "b", "begins_word": True}]),
    ])
    mt = ReplayMT(p)
    assert mt.score("a", "b")[0].logprob2 == -2
    assert mt.predict_argmax("a", "b") == [PredictedPiece("b", True)]


def test_replay_encoder_returns_arrays(tmp_path):
    p = _write(tmp_path / "enc.jsonl", {"kind": "encoder"}, [
        ({"text": "hi", "lang": "EN"},
         [{"surface": "hi", "span": [0, 2], "vec": [1.0, 0.0]}]),
    ])
    out = ReplayEncoder(p).embed("hi", "EN")
    assert out[0][0] == "hi" and out[0][1] == (0, 2)
    assert isinstance(out[0][2], np.ndarray)


def test_empty_replay_file_rejected(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    with pytest.raises(AdapterError, match="empty"):
        ReplayCausalLM(p)


def test_corrupt_record_rejected(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"meta": {"kind": "causal_lm"}}\nnot json\n')
    with pytest.raises(AdapterError, match="bad replay record"):
        ReplayCausalLM(p)


_RECORD_LINES = (json.dumps({"request": {"text": "a"}, "response": []}) + "\n"
                 + json.dumps({"request": {"text": "b"}, "response": []}))


@pytest.mark.parametrize("first_line", [
    "not json", "[1]",
    pytest.param('{"meta": "x"}', id="meta-not-object"),
    pytest.param('{"meta": {}, "request": {}}', id="extra-key"),
    pytest.param(_RECORD_LINES, id="no-meta-line"),
])
def test_corrupt_meta_line_names_file(tmp_path, first_line):
    p = tmp_path / "bad.jsonl"
    p.write_text(first_line + "\n")
    with pytest.raises(AdapterError, match=re.escape(f"{p}:1: bad replay meta line")):
        ReplayCausalLM(p)


def test_unicode_survives_replay(tmp_path):
    text = "für über"
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm"},
               [({"text": text}, [{"surface": text, "logprob": -1}])])
    assert ReplayCausalLM(p).score(text)[0].surface == text


def test_is_punct_text():
    assert is_punct_text("!?")
    assert is_punct_text("%")
    assert not is_punct_text("a.")
    assert not is_punct_text("")


def test_mock_pieces_chunking_and_detok():
    pieces = mock_pieces("intended votes.")
    assert [s for s, _ in pieces] == ["inte", "nded", "vote", "s", "."]
    assert [b for _, b in pieces] == [True, False, True, False, False]
    scored = MockCausalLM().score("intended votes.")
    assert detokenize_pieces(scored) == "intended votes."


def test_mock_lm_deterministic_and_prefix_stable():
    lm = MockCausalLM(seed=5)
    a = lm.score("the red cat sat")
    b = lm.score("the red cat sat")
    assert [(s.surface, s.logprob2) for s in a] == \
        [(s.surface, s.logprob2) for s in b]
    prefix = lm.score("the red")
    assert [(s.surface, s.logprob2) for s in a[:len(prefix)]] == \
        [(s.surface, s.logprob2) for s in prefix]
    assert all(-15.0 <= s.logprob2 <= -0.1 for s in a)


def test_mock_lm_seed_changes_scores():
    a = MockCausalLM(seed=1).score("hello world")
    b = MockCausalLM(seed=2).score("hello world")
    assert [s.logprob2 for s in a] != [s.logprob2 for s in b]


def test_mock_mt_conditions_on_source():
    mt = MockMT(seed=3)
    a = mt.score("Quelle eins", "target text")
    b = mt.score("Quelle zwei", "target text")
    assert [s.logprob2 for s in a] != [s.logprob2 for s in b]
    assert detokenize_pieces(mt.predict_argmax("x", "gold out")) == "gold out"


def test_mock_encoder_same_surface_same_vector():
    enc = MockEncoder(dim=8)
    (_, _, v1), = [e for e in enc.embed("Haus", "DE")]
    (_, _, v2), = [e for e in enc.embed("haus", "EN")]
    assert np.allclose(v1, v2)
    assert np.isclose(np.linalg.norm(v1), 8.0)
    spans = [span for _, span, _ in enc.embed("ab cd", "EN")]
    assert spans == [(0, 2), (3, 5)]


_LM = {"kind": "causal_lm"}
_ENC = {"kind": "encoder"}
_PARSE = {"kind": "parser"}
_GOOD_LM = ({"text": "a"}, [{"surface": "a", "logprob": -1}])
_GOOD_ENC = ({"text": "a", "lang": "EN"}, [{"surface": "a", "span": [0, 1], "vec": [1.0, 2.0]}])
_GOOD_PARSE = ({"text": "a", "lang": "EN"}, [[{"id": "1", "form": "a", "head": 0}]])


@pytest.mark.parametrize("kind, response", [
    ("causal_lm", [{"logprob": -1}]),
    ("causal_lm", [{"surface": "b"}]),
    ("causal_lm", [{"surface": "b", "logprob": "low"}]),
    ("causal_lm", [{"surface": "b", "logprob": None}]),
    ("encoder", [{"surface": "b", "span": [0, 1], "vec": [1.0, 2.0]},
                 {"surface": "c", "span": [1, 2], "vec": [1.0]}]),
    ("encoder", [{"surface": "b", "span": [0, 1], "vec": [1.0, "x"]}]),
    ("encoder", [{"surface": "b", "span": [0, 1], "vec": 1.0}]),
    ("encoder", [{"surface": "b", "span": [0, 1, 2], "vec": [1.0]}]),
    ("encoder", [{"surface": "b", "span": [0.0, 1], "vec": [1.0]}]),
    ("encoder", [{"surface": "b", "span": "01", "vec": [1.0]}]),
    ("parser", [[{"form": "b", "head": 0}]]),
    ("parser", [[{"id": "1", "head": 0}]]),
    ("parser", [[{"id": "1", "form": "b", "head": "root"}]]),
], ids=["lm-no-surface", "lm-no-logprob", "lm-text-logprob", "lm-null-logprob",
        "enc-ragged-vec", "enc-text-in-vec", "enc-scalar-vec", "enc-three-int-span",
        "enc-float-span", "enc-string-span", "parse-no-id", "parse-no-form",
        "parse-text-head"])
def test_bad_record_fails_load_with_file_and_line(tmp_path, kind, response):
    cls, good = {"causal_lm": (ReplayCausalLM, _GOOD_LM), "encoder": (ReplayEncoder, _GOOD_ENC),
                 "parser": (ReplayParser, _GOOD_PARSE)}[kind]
    request = dict(good[0], text="b")
    p = _write(tmp_path / "bad.jsonl", {"kind": kind}, [good, (request, response)])
    with pytest.raises(AdapterError, match=re.escape(f"{p}:3: bad replay record: ")):
        cls(p)


def test_bad_mt_argmax_record_fails_load(tmp_path):
    p = _write(tmp_path / "mt.jsonl", {"kind": "mt"},
               [({"src": "a", "tgt": "b", "task": "argmax"}, [{"begins_word": True}])])
    with pytest.raises(AdapterError, match=re.escape(f"{p}:2: bad replay record")):
        ReplayMT(p)


def test_unknown_log_base_fails_load(tmp_path):
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm", "log_base": "7"}, [_GOOD_LM])
    with pytest.raises(AdapterError, match=r":2: bad replay record: unknown log base '7'"):
        ReplayCausalLM(p)


@pytest.mark.parametrize("logprob", ["-3", math.nan, math.inf, -math.inf, True],
                         ids=["string", "nan", "inf", "-inf", "bool"])
def test_logprob_that_is_not_a_finite_json_number_fails_load(tmp_path, logprob):
    # checked before the clamp at 0, which would turn NaN and +inf into 0 bits
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm"},
               [_GOOD_LM, ({"text": "b"}, [{"surface": "b", "logprob": logprob}])])
    with pytest.raises(AdapterError, match=re.escape(
            f"{p}:3: bad replay record: logprob {logprob!r} is not a finite JSON number")):
        ReplayCausalLM(p)


def test_positive_logprob_scores_zero_bits(tmp_path):
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm", "log_base": "e"},
               [({"text": "a b"}, [{"surface": "a", "logprob": 0.5},
                                   {"surface": "b", "logprob": -math.log(8)}])])
    assert ReplayCausalLM(p).score("a b").bits() == [0.0, pytest.approx(3.0)]
    live = SubwordScores(["a", "b"], [2.0, -3.0], [True, True], [False, False])
    assert live.bits() == [0.0, 3.0]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_subword_scores_reject_a_non_finite_log_probability(value):
    with pytest.raises(ValueError, match=r"log probabilities not finite: \[(nan|-?inf)\]"):
        SubwordScores(["a", "b"], [-1.0, value], [True, True], [False, False])
    with pytest.raises(ValueError, match="not finite"):
        SubwordScores.of([SubwordScore("a", value)])


def test_failed_replay_write_leaves_old_file_loadable(tmp_path):
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm", "name": "old"}, [_GOOD_LM])
    before = (tmp_path / "lm.jsonl").read_bytes()

    def records():
        yield {"text": "b"}, [{"surface": "b", "logprob": -2}]
        raise RuntimeError("recorder stopped")

    with pytest.raises(RuntimeError, match="recorder stopped"):
        write_replay(p, {"kind": "causal_lm", "name": "new"}, records())
    assert (tmp_path / "lm.jsonl").read_bytes() == before
    lm = ReplayCausalLM(p)
    assert lm.name == "old" and lm.score("a")[0].logprob2 == -1
    assert [f.name for f in tmp_path.iterdir()] == ["lm.jsonl"]


def test_kind_checked_before_records_decode(tmp_path):
    p = _write(tmp_path / "x.jsonl", _ENC, [({"text": "a"}, [{"logprob": "none"}])])
    with pytest.raises(AdapterError, match="replay kind 'encoder' does not match"):
        ReplayCausalLM(p)


def test_conflicting_duplicate_request_rejected(tmp_path):
    p = _write(tmp_path / "lm.jsonl", _LM, [
        _GOOD_LM,
        ({"text": "z"}, [{"surface": "z", "logprob": -1}]),
        ({"text": "a"}, [{"surface": "a", "logprob": -2}]),
    ])
    with pytest.raises(AdapterError, match=r":4: response for request .* line 2$"):
        ReplayCausalLM(p)


def test_conflicting_duplicate_embedding_rejected(tmp_path):
    request, response = _GOOD_ENC
    other = [dict(response[0], vec=[1.0, 2.5])]
    p = _write(tmp_path / "enc.jsonl", _ENC, [_GOOD_ENC, (request, other)])
    with pytest.raises(AdapterError, match="line 2"):
        ReplayEncoder(p)


def test_identical_duplicate_requests_allowed(tmp_path):
    p = _write(tmp_path / "enc.jsonl", _ENC, [_GOOD_ENC, _GOOD_ENC])
    assert len(ReplayEncoder(p).embed("a", "EN")) == 1
    p = _write(tmp_path / "lm.jsonl", _LM, [_GOOD_LM, _GOOD_LM])
    assert ReplayCausalLM(p).score("a")[0].logprob2 == -1


def test_records_decode_once_into_shared_values(tmp_path):
    p = _write(tmp_path / "lm.jsonl", {"kind": "causal_lm", "log_base": "e"},
               [({"text": "x"}, [{"surface": "x", "logprob": -math.log(2)}])])
    lm = ReplayCausalLM(p)
    first = lm.score("x")
    assert type(first) is SubwordScores and first is lm.score("x")
    with pytest.raises(TypeError):
        first[0] = None
    with pytest.raises(TypeError):
        first.logprob2[0] = 0.0
    with pytest.raises(AttributeError):
        first.surfaces = ("junk",)
    with pytest.raises(AttributeError):
        del first.begins_word
    assert list(lm.score("x")) == [SubwordScore("x", pytest.approx(-1.0, abs=1e-12), True, False)]


@pytest.mark.parametrize("value, field", [
    (SubwordScore("a", -1.0), "logprob2"),
    (PredictedPiece("a"), "surface"),
    (ConlluToken("1", "a"), "head"),
    (SubwordScores(["a"], [-1.0], [True], [False]), "surfaces"),
])
def test_returned_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


def test_mt_lists_are_fresh_per_call(tmp_path):
    # scores are one shared immutable value; argmax lists are built per call
    p = _write(tmp_path / "mt.jsonl", {"kind": "mt"}, [
        ({"src": "a", "tgt": "b"}, [{"surface": "b", "logprob": -2}]),
        ({"src": "a", "tgt": "b", "task": "argmax"}, [{"surface": "b"}]),
    ])
    mt = ReplayMT(p)
    scores = mt.score("a", "b")
    assert scores is mt.score("a", "b")
    assert not hasattr(scores, "clear")
    mt.predict_argmax("a", "b").clear()
    assert [s.surface for s in mt.score("a", "b")] == ["b"]
    assert mt.predict_argmax("a", "b") == [PredictedPiece("b", True)]


def test_encoder_vectors_read_only_float64(tmp_path):
    vecs = [[1, 0.1, -2.5e-3], [3.25, 0, 1e300]]
    p = _write(tmp_path / "enc.jsonl", _ENC, [
        ({"text": "hi x", "lang": "EN"},
         [{"surface": "hi", "span": [0, 2], "vec": vecs[0]},
          {"surface": "x", "span": [3, 4], "vec": vecs[1]}]),
    ])
    enc = ReplayEncoder(p)
    out = enc.embed("hi x", "EN")
    assert [(s, span) for s, span, _ in out] == [("hi", (0, 2)), ("x", (3, 4))]
    assert all(type(i) is int for _, span, _ in out for i in span)
    for (_, _, vec), json_vec in zip(out, vecs):
        assert vec.dtype == np.float64 and not vec.flags.writeable
        assert np.array_equal(vec, np.asarray(json_vec, dtype=float))
        with pytest.raises(ValueError):
            vec[0] = 9.0
    out.clear()
    assert len(enc.embed("hi x", "EN")) == 2


def test_parser_lists_are_fresh_per_call(tmp_path):
    two = ({"text": "a b. c", "lang": "EN"},
           [[{"id": "1", "form": "a", "head": 0}, {"id": "2", "form": "b.", "head": 1}],
            [], [{"id": "1", "form": "c", "upos": "X", "head": "0"}]])
    rng = random.Random(0)
    p = _write(tmp_path / "parse.jsonl", _PARSE,
               [_GOOD_PARSE, two, *(({"text": f"t{i}", "lang": "EN"}, _parse_response(rng))
                                    for i in range(200))])
    parser = ReplayParser(p)
    # decoded once, into one flat tuple of atoms: per sentence its token
    # count, then its tokens' field values
    stored = parser._table[request_key(_GOOD_PARSE[0])]
    assert stored == (1, "1", "a", None, None, None, None, 0, None, None, None)
    assert parser._table[request_key(two[0])] == (
        2, *ConlluToken("1", "a", head=0), *ConlluToken("2", "b.", head=1),
        0, 1, *ConlluToken("1", "c", upos="X", head=0))
    gc.collect()
    assert not any(map(gc.is_tracked, parser._table.values()))
    first = parser.annotate("a", "EN")
    first[0].append(ConlluToken("2", "junk"))
    first.append([])
    assert parser.annotate("a", "EN") == [[ConlluToken("1", "a", head=0)]]
    assert parser.annotate("a b. c", "EN") == [
        [ConlluToken("1", "a", head=0), ConlluToken("2", "b.", head=1)], [],
        [ConlluToken("1", "c", upos="X", head=0)]]


def _lm_response(rng):
    return [{"surface": rng.choice(["a", "bc", ".", "%."]), "logprob": -rng.random() * 9,
             "begins_word": rng.random() < 0.5}
            for _ in range(rng.randint(0, 12))]


def _parse_response(rng):
    return [[{"id": str(k), "form": rng.choice(["a", "bc", "."]), "lemma": "a",
              "upos": "X", "head": 0 if k == 1 else 1, "deprel": "dep"}
             for k in range(1, rng.randint(2, 6))]
            for _ in range(rng.randint(0, 3))]


def test_loaded_tables_add_at_most_one_tracked_object_per_record(tmp_path):
    # the collector walks every tracked object; a table of columns of atoms
    # gives it at most the one SubwordScores per score record
    rng = random.Random(0)
    n = 200
    files = {
        ReplayCausalLM: [({"text": f"t{i}"}, _lm_response(rng)) for i in range(n)],
        ReplayMT: [({"src": "s", "tgt": f"t{i}", **({"task": "argmax"} if i % 2 else {})},
                    _lm_response(rng)) for i in range(n)],
        ReplayParser: [({"text": f"t{i}", "lang": "EN"}, _parse_response(rng))
                       for i in range(n)],
    }
    for cls, records in files.items():
        p = _write(tmp_path / f"{cls.__name__}.jsonl", {"kind": cls.kind}, records)
        gc.collect()
        before = len(gc.get_objects())
        adapter = cls(p)
        # a collection untracks a tuple only once its items are untracked,
        # so nested tuples can take more than one
        for _ in range(3):
            gc.collect()
        # besides the records: the adapter, its attribute dict, meta and table
        assert len(gc.get_objects()) - before <= n + 4, cls.__name__
        assert len(adapter._table) == n


def test_encoder_holds_about_eight_bytes_per_float(tmp_path):
    # a list of Python floats costs 32 bytes per float; one float64 array 8
    dim, n_records, n_subwords = 768, 4, 12
    rng = np.random.default_rng(0)
    records = []
    for r in range(n_records):
        text = " ".join(f"w{r}{k}" for k in range(n_subwords))
        records.append(({"text": text, "lang": "EN"},
                        [{"surface": f"w{r}{k}", "span": [0, 1],
                          "vec": rng.normal(size=dim).round(6).tolist()}
                         for k in range(n_subwords)]))
    p = _write(tmp_path / "enc.jsonl", _ENC, records)
    tracemalloc.start()
    try:
        enc = ReplayEncoder(p)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(enc._table) == n_records
    assert held / (dim * n_records * n_subwords) < 12
