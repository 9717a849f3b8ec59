"""Tests of the benchmark itself: seeded inputs, the model stand-ins, the
tracer, the correctness gate and the metric names in BENCHMARK.json."""

import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from bench import corpus, models, run, workloads
from bench.tracing import Tracer, WarningCounter
from wordbits.adapters import detokenize_pieces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_corpus_is_a_function_of_the_seed():
    assert corpus.spoken_rows(3, 40) == corpus.spoken_rows(3, 40)
    assert corpus.spoken_rows(3, 40) != corpus.spoken_rows(4, 40)
    assert corpus.written_rows(3, 5) == corpus.written_rows(3, 5)


def test_scorer_conditions_on_one_previous_piece():
    lm = models.Scorer("lm")
    head = "Der Zustand, z.B."
    full = lm.pieces(head + " 3,5 Beistand ist gut.")
    assert full[:len(lm.pieces(head))] == lm.pieces(head)
    assert [s for s, _lp, _b in lm.pieces("It's 5%.")] == ["It", "'s", "5", "%."]
    assert [s for s, _lp, _b in lm.pieces("Dießen")] == ["Dies", "en"]


def test_window_tables_match_direct_scoring():
    lm = models.TableLM(models.Scorer("lm"))
    for row in corpus.written_rows(7, 4):
        text = row["src_raw"]
        lm.add_windows(lm.add(text), 64, detokenize_pieces)
    assert len(lm.table) > 4
    for text, subs in lm.table.items():
        direct = lm.scorer.score(text)
        assert [(s.surface, s.logprob2, s.begins_word) for s in subs] == \
            [(s.surface, s.logprob2, s.begins_word) for s in direct]


def test_parser_covers_its_text_except_for_ampersands():
    text = "It's 3,5 z.B. Nr. don't, well-made 5%. Yes... & im"
    for lang in ("EN", "DE"):
        forms = []
        for sent in models.parse(text, lang):
            assert sum(1 for t in sent if t.get("head") == 0) == 1
            covered = set()
            for t in sent:
                if "-" in t["id"]:
                    lo, hi = map(int, t["id"].split("-"))
                    covered.update(range(lo, hi + 1))
                    forms.append(t["form"])
                elif int(t["id"]) not in covered:
                    forms.append(t["form"])
        assert "".join(forms) == text.replace(" ", "").replace("&", "and")


def test_tracer_self_time_subtracts_same_thread_children_only():
    tracer = Tracer()

    def spin(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    inner = tracer.wrap("inner", lambda: spin(0.02))
    worker = tracer.wrap("worker", lambda: spin(0.02))

    def outer():
        spin(0.02)
        inner()
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    with tracer.root():
        tracer.wrap("outer", outer)()
    self_s, _wall, calls, _counts = tracer.summary()
    assert calls == {"op": 1, "outer": 1, "inner": 1, "worker": 1}
    assert 0.015 < self_s["outer"] < 0.035  # inner taken out, worker not
    assert 0.015 < self_s["inner"] < 0.035
    assert 0.015 < self_s["worker"] < 0.035
    ids = {s[2]: s for s in tracer.spans}
    assert ids["worker"][1] == ids["outer"][0]  # pool-style parent link


def test_warning_counter_counts_templates_without_printing(capsys):
    log = logging.getLogger("wordbits.align")
    with WarningCounter().installed() as counter:
        for i in range(3):
            log.warning("comma in %s", i)
    log.warning("after")
    assert counter.counts == {("align", "comma in %s"): 3}
    assert "comma in" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def spoken(tmp_path_factory):
    wl = workloads.SpokenReplay(5, str(tmp_path_factory.mktemp("sp")))
    wl.n_segments = 60
    workloads.record_spoken(5, wl.workdir, wl.n_segments)
    return wl


def test_spoken_operation_passes_the_gate_twice(spoken):
    with WarningCounter().installed() as counter:
        out = spoken.op(workloads.Calls())
        problems, facts = spoken.check(out)
        assert problems == []
        assert facts["conserved_columns"] > 100 and 0 < facts["null_bits_share"] < 0.2
        assert spoken.check(spoken.op(workloads.Calls()))[0] == []
    assert counter.counts  # comma-nulled alignments at least


def test_gate_catches_broken_outputs(spoken):
    with WarningCounter().installed():
        out = spoken.op(workloads.Calls())
    row = next(r for r in out["vrows"] if r.srp_base_mt is not None)
    row.srp_base_mt += 0.5
    row.aligned_word_id = ["SI_DE_EN_999-99:001"]
    out["longs"].pop()
    problems = " | ".join(spoken.check(out)[0])
    assert "do not conserve" in problems
    assert "do not resolve" in problems
    assert "long rows" in problems


def test_traced_operation_emits_every_listed_metric(spoken):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    tracer = Tracer()
    with WarningCounter().installed() as counter:
        out = workloads.traced_op(spoken, tracer)
        problems, facts = spoken.check(out)
    assert problems == []
    out["warnings"], out["misses"] = counter.counts, 0
    layers = run.layer_metrics(spoken, out, tracer, facts)
    names = set(layers) | {"trace.overhead", "pipeline.annotate_corpus_s",
                           "pipeline.annotate_corpus_1w_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == unit for name, (_v, unit) in layers.items())
    assert layers["adapters.misses"][0] == 0
    assert layers["adapters.calls.parser"][0] > 0
    assert layers["surprisal.rule.none"][0] > 0
    assert 0.5 < layers["trace.coverage"][0] < 1.1


def test_written_window_tables_cover_every_request(tmp_path):
    wl = workloads.WrittenWindow(2, str(tmp_path))
    wl.n_segments = 6
    wl.setup(1)
    with WarningCounter().installed():
        out = wl.op(workloads.Calls())
        assert wl.check(out)[0] == []
    assert wl.misses() == 0


def test_fit_gate_checks_truth_and_fit():
    fit = workloads.FitPair(1, None)
    names = ("intercept",) + workloads.fp.PREDICTORS
    good = SimpleNamespace(coefficients=dict(zip(names, workloads.FIT_TRUTH)),
                           aic=1.0, variances={"speaker_id": 0.09})
    assert fit.check({"fit": good, "gam": SimpleNamespace(lam=1.0, pseudo_r2=0.9)})[0] == []
    bad = SimpleNamespace(coefficients=dict(good.coefficients, nxtwS_src=0.0),
                          aic=1.0, variances={})
    problems = fit.check({"fit": bad, "gam": SimpleNamespace(lam=1.0, pseudo_r2=0.5)})[0]
    assert len(problems) == 3  # coefficient, pseudo-R2, differs from first


def test_end_to_end_metric_names_match():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_s", "items_per_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fp-gam",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
