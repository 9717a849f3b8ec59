"""The three workloads: set-up, one operation, and the correctness gate.

An operation drives wordbits through the public functions the CLI stages
call.  ``Calls`` holds those functions, or traced copies of them in a traced
operation, so both runs execute the same code.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

from wordbits import fp, gam, pipeline
from wordbits.adapters import detokenize_pieces
from wordbits.config import RunConfig, config_hash
from wordbits.tables import read_table, write_table

from . import corpus
from .models import (Encoder, Recorder, Scorer, TableLM, TableParser, argmax_response,
                     embed_response, parse, score_response)
from .tracing import TracedAdapter, WarningCounter, patched_layers

ROLES = ("lm_base", "lm_ft", "src_lm_base", "src_lm_ft", "mt_base", "mt_ft",
         "encoder", "parser")
# surprisal role -> (side, vertical column)
COLUMNS = {
    "lm_base": ("tgt", "srp_base_gpt2"), "lm_ft": ("tgt", "srp_ft_gpt2"),
    "src_lm_base": ("src", "srp_base_gpt2"), "src_lm_ft": ("src", "srp_ft_gpt2"),
    "mt_base": ("tgt", "srp_base_mt"), "mt_ft": ("tgt", "srp_ft_mt"),
}
LM_ROLES = ("lm_base", "lm_ft", "src_lm_base", "src_lm_ft")
LANGS = {"src": "DE", "tgt": "EN"}
FIT_TRUTH = (-1.2, 0.5, -0.4, 0.3, -0.25, 0.2, -0.15)
FIT_N = 20000
FIT_GROUPS = 200
FIT_SAMPLE = 0


def scorers() -> dict:
    return {role: Scorer(role.replace("_", "-"), 19.9 if role.startswith("mt") else 14.9)
            for role in COLUMNS}


def workers() -> int:
    return len(os.sched_getaffinity(0))


class Calls:
    """The public wordbits functions an operation calls, each in a span
    named after its layer metric when a tracer is given."""

    def __init__(self, tracer=None):
        wrap = tracer.wrap if tracer else (lambda _name, fn: fn)
        self.tracer = tracer
        self.read_input_tsv = wrap("pipeline.read_input_s", pipeline.read_input_tsv)
        self.normalize_rows = wrap("pipeline.normalize_rows_s", pipeline.normalize_rows)
        self.write_jsonl = wrap("pipeline.jsonl_write_s", pipeline.write_jsonl)
        self.read_jsonl = wrap("pipeline.jsonl_read_s", pipeline.read_jsonl)
        self.adapters_from_config = wrap("adapters.replay_load_s",
                                         pipeline.adapters_from_config)
        self.annotate_corpus = wrap("pipeline.annotate_corpus", pipeline.annotate_corpus)
        self.aggregate_rows = wrap("pipeline.aggregate_rows_s", pipeline.aggregate_rows)
        self.read_table = wrap("tables.read_s", read_table)
        self.write_table = {fmt: wrap(f"tables.write_s.{fmt}", write_table)
                            for fmt in ("vertical", "long", "wide")}
        self.fit_logistic = wrap("fp.fit_logistic_s", fp.fit_logistic)
        self.fit_gam = wrap("gam.fit_gam_s", gam.fit_gam)

    def adapters(self, adapter_set):
        if self.tracer is None:
            return adapter_set
        for role in ROLES:
            inner = getattr(adapter_set, role)
            if inner is not None:
                setattr(adapter_set, role, TracedAdapter(inner, role, self.tracer))
        return adapter_set


def _body_digest(path, skip_first=False) -> str:
    """sha256 of a gzip text file without its '#' provenance lines (or,
    for JSONL, without its meta line)."""
    h = hashlib.sha256()
    with gzip.open(path, "rb") as f:
        for i, line in enumerate(f):
            if line.startswith(b"#") or (skip_first and i == 0):
                continue
            h.update(line)
    return h.hexdigest()


def _scored_text(side_info) -> str:
    fps = set(side_info["fp_positions"])
    return " ".join(t for i, t in enumerate(side_info["clean"].split()) if i not in fps)


def _expected_rows(side_info, lang) -> int:
    """Vertical rows the annotate stage must write for one side: FP rows,
    plus the benchmark parser's tokens, or one row per whitespace token
    when its forms do not cover the text (the pipeline's fallback)."""
    text = _scored_text(side_info)
    n = len(side_info["fp_positions"])
    if not text:
        return n
    sentences = parse(text, lang)
    surfaces, skip = [], 0
    for sent in sentences:
        for tok in sent:
            if skip:
                skip -= 1
                continue
            surfaces.append(tok["form"])
            if "-" in tok["id"]:
                lo, hi = tok["id"].split("-")
                skip = int(hi) - int(lo) + 1
    if "".join(surfaces) != text.replace(" ", ""):
        return n + len(text.split())
    return n + sum(len(sent) for sent in sentences)


class CorpusWorkload:
    """Shared operation and gate of the two corpus workloads."""

    mode = scoring = None
    roles = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.input = os.path.join(workdir, "input.tsv")
        self.outdir = os.path.join(workdir, "out")
        self.scorers = scorers()
        self.cfg = self.config()
        self._digests = None
        self._expected = None

    def config(self) -> RunConfig:
        return RunConfig(input=self.input, output_dir=self.outdir, lpair="de-en",
                         mode=self.mode, scoring=self.scoring, workers=workers())

    def _out(self, name):
        return os.path.join(self.outdir, name)

    def adapter_set(self, calls):
        raise NotImplementedError

    def op(self, calls: Calls) -> dict:
        """normalize -> annotate -> aggregate, as the three CLI stages run
        them, with every intermediate written and read back."""
        cfg = self.cfg
        os.makedirs(self.outdir, exist_ok=True)
        prov = {"config": config_hash(cfg), "command": "bench"}
        t0 = perf_counter()
        rows = calls.read_input_tsv(cfg.input)
        segs = calls.normalize_rows(rows, cfg)
        calls.write_jsonl(self._out("clean.jsonl.gz"), segs, meta=prov)
        _meta, segs = calls.read_jsonl(self._out("clean.jsonl.gz"))

        adapters = calls.adapters(self.adapter_set(calls))
        vrows, sidecar = calls.annotate_corpus(segs, cfg, adapters)
        calls.write_table["vertical"](vrows, "vertical", self._out("vertical.tsv.gz"),
                                      provenance=prov)
        calls.write_jsonl(self._out("sidecar.jsonl.gz"), sidecar, meta=prov)

        vrows = calls.read_table(self._out("vertical.tsv.gz"), "vertical")
        _meta, sidecar = calls.read_jsonl(self._out("sidecar.jsonl.gz"))
        longs, wides = calls.aggregate_rows(vrows, sidecar, cfg)
        calls.write_table["long"](longs, "long", self._out("long.tsv.gz"), provenance=prov)
        calls.write_table["wide"](wides, "wide", self._out("wide.tsv.gz"), provenance=prov)
        wall = perf_counter() - t0
        return {"wall": wall, "segs": segs, "vrows": vrows, "sidecar": sidecar,
                "longs": longs, "wides": wides}

    def items(self) -> int:
        return self.n_segments

    def misses(self) -> int:
        return 0

    def bytes_written(self) -> int:
        return sum(os.path.getsize(self._out(f"{fmt}.tsv.gz"))
                   for fmt in ("vertical", "long", "wide"))

    def annotate_reference(self) -> tuple:
        """Wall times of annotate_corpus, untraced, on the last op's clean
        segments: with the default workers and with workers=1."""
        _meta, segs = pipeline.read_jsonl(self._out("clean.jsonl.gz"))
        times = []
        for cfg in (self.cfg, replace(self.cfg, workers=1)):
            adapters = self.adapter_set(Calls())
            t0 = perf_counter()
            pipeline.annotate_corpus(segs, cfg, adapters)
            times.append(perf_counter() - t0)
        return tuple(times)

    def _expected_bits(self, segs) -> dict:
        """Scored subword bits per (role, doc, seg): what word bits must sum
        to when no word of the segment failed."""
        cap = self.cfg.cap if self.scoring == "bounded" else None
        out = {}
        for seg in segs:
            key = (str(seg["doc_id"]).zfill(self.cfg.doc_pad),
                   str(seg["seg_id"]).zfill(self.cfg.seg_pad))
            src = _scored_text(seg["sides"]["src"])
            for role in self.roles:
                side, _col = COLUMNS[role]
                text = _scored_text(seg["sides"][side])
                if role.startswith("mt"):
                    pieces = self.scorers[role].pieces(text, src)
                else:
                    pieces = self.scorers[role].pieces(text)[:cap]
                out[(role,) + key] = sum(max(0.0, -lp) for _s, lp, _b in pieces)
        return out

    def check(self, out) -> tuple:
        """(problems, facts) for one operation's outputs."""
        segs, vrows = out["segs"], out["vrows"]
        problems = []
        if self._expected is None:
            self._expected = {
                "rows": sum(_expected_rows(seg["sides"][side], LANGS[side])
                            for seg in segs for side in ("src", "tgt")),
                "bits": self._expected_bits(segs),
            }
        nonempty = [[bool(seg["sides"][side]["clean"].split()) for side in ("src", "tgt")]
                    for seg in segs]
        want = {"segments": (len(segs), self.n_segments),
                "sidecar records": (len(out["sidecar"]), 3 * self.n_segments),
                "vertical rows": (len(vrows), self._expected["rows"]),
                "long rows": (len(out["longs"]), sum(map(sum, nonempty))),
                "wide rows": (len(out["wides"]), sum(map(any, nonempty)))}
        for what, (got, exp) in want.items():
            if got != exp:
                problems.append(f"{what}: {got}, expected {exp}")

        digests = [_body_digest(self._out(f"{fmt}.tsv.gz"))
                   for fmt in ("vertical", "long", "wide")]
        digests.append(_body_digest(self._out("sidecar.jsonl.gz"), skip_first=True))
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            problems.append("table bodies differ from the first operation's")

        ids = {r.word_id.render() for r in vrows}
        dangling = sum(1 for r in vrows for i in (r.aligned_word_id or ()) if i not in ids)
        if dangling:
            problems.append(f"{dangling} aligned_word_id entries do not resolve")

        groups = {}
        for r in vrows:
            if not r.is_fp and not r.is_expansion:
                side = "src" if r.ttype == self.cfg.src_ttype else "tgt"
                groups.setdefault((side, r.doc_id, r.seg_id), []).append(r)
        checked = broken = nulls = scorable = 0
        for (side, doc, seg), words in groups.items():
            for role in self.roles:
                role_side, col = COLUMNS[role]
                if role_side != side:
                    continue
                bits = [getattr(r, col) for r in words]
                scorable += len(bits)
                missing = bits.count(None)
                nulls += missing
                if missing:
                    continue
                checked += 1
                exp = self._expected["bits"][(role, doc, seg)]
                if abs(sum(bits) - exp) > 1e-6 * max(1.0, exp):
                    broken += 1
        if broken:
            problems.append(f"{broken} of {checked} segment columns do not conserve "
                            "subword bits")
        if not checked:
            problems.append("no segment column was fully scored")
        facts = {"vertical_rows": len(vrows), "long_rows": len(out["longs"]),
                 "wide_rows": len(out["wides"]), "conserved_columns": checked,
                 "null_bits_share": nulls / scorable if scorable else 0.0}
        return problems, facts


def record_spoken(seed: int, workdir: str, n_segments: int) -> float:
    """Set-up of sp-replay: write the input TSV and a replay file per
    adapter role.  The recorders answer every request the three stages make
    for this corpus: per side the parse and both LM scores, per segment the
    two MT scores, and, where both sides have words, the two MT argmax
    predictions and both embeddings.  Returns its wall time."""
    t0 = perf_counter()
    wl = SpokenReplay(seed, workdir)
    rows = corpus.spoken_rows(seed, n_segments)
    os.makedirs(wl.replay_dir, exist_ok=True)
    corpus.write_input_tsv(wl.input, rows)
    kinds = {"mt_base": "mt", "mt_ft": "mt", "encoder": "encoder", "parser": "parser"}
    rec = {role: Recorder(kinds.get(role, "causal_lm"), f"bench-{role}") for role in ROLES}
    encoder = Encoder(corpus.lexicon(seed))
    with WarningCounter().installed():
        segs = pipeline.normalize_rows(rows, wl.cfg)
    for seg in segs:
        text = {side: _scored_text(seg["sides"][side]) for side in LANGS}
        both = bool(text["src"] and text["tgt"])
        for side, lang in LANGS.items():
            if text[side]:
                rec["parser"].add({"text": text[side], "lang": lang}, parse(text[side], lang))
            if both:
                rec["encoder"].add({"text": text[side], "lang": lang},
                                   embed_response(encoder, text[side]))
        for role in LM_ROLES:
            t = text[COLUMNS[role][0]]
            rec[role].add({"text": t}, score_response(wl.scorers[role], t))
        for role in ("mt_base", "mt_ft"):
            pair = {"src": text["src"], "tgt": text["tgt"]}
            rec[role].add(pair, score_response(wl.scorers[role], text["tgt"], text["src"]))
            if both:
                rec[role].add(dict(pair, task="argmax"),
                              argmax_response(wl.scorers[role], text["src"], text["tgt"]))
    for role, recorder in rec.items():
        recorder.write(getattr(wl.cfg, f"replay_{role}"))
    return perf_counter() - t0


class SpokenReplay(CorpusWorkload):
    """Spoken DE->EN; all eight adapter roles answer from replay files."""

    name = "sp-replay"
    mode, scoring = "sp", "bounded"
    roles = tuple(COLUMNS)
    n_segments = 1000

    def config(self) -> RunConfig:
        cfg = super().config()
        self.replay_dir = os.path.join(self.workdir, "replay")
        for role in ROLES:
            setattr(cfg, f"replay_{role}", os.path.join(self.replay_dir, f"{role}.jsonl"))
        return cfg

    def setup(self, repeats: int) -> list:
        """Recording runs in a child process, so its memory stays out of
        this process's peak RSS.  Returns the times the child measured."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.path.join(root, "src")]))
        args = [str(self.seed), self.workdir, str(self.n_segments), str(repeats)]
        proc = subprocess.run([sys.executable, "-m", "bench.workloads", *args], env=env,
                              capture_output=True, text=True, timeout=600)
        if proc.returncode:
            raise RuntimeError(f"sp-replay set-up failed:\n{proc.stderr}")
        return json.loads(proc.stdout)

    def adapter_set(self, calls):
        return calls.adapters_from_config(self.cfg)


class WrittenWindow(CorpusWorkload):
    """Written DE->EN with sliding-window scoring; the four LM roles and the
    parser answer from in-memory tables, there is no MT and no encoder."""

    name = "wr-window"
    mode, scoring = "wr", "window"
    roles = LM_ROLES
    n_segments = 320

    def setup(self, repeats: int) -> list:
        times = []
        for _ in range(repeats):
            self.tables = None  # free the last build's tables before the next
            t0 = perf_counter()
            self._build()
            times.append(perf_counter() - t0)
        return times

    def _build(self):
        rows = corpus.written_rows(self.seed, self.n_segments)
        os.makedirs(self.workdir, exist_ok=True)
        corpus.write_input_tsv(self.input, rows)
        lms = {role: TableLM(self.scorers[role]) for role in LM_ROLES}
        parser = TableParser()
        for seg in pipeline.normalize_rows(rows, self.cfg):
            for side, lang in LANGS.items():
                text = _scored_text(seg["sides"][side])
                if text:
                    parser.add(text, lang)
                for role in LM_ROLES:
                    if COLUMNS[role][0] == side:
                        subs = lms[role].add(text)
                        lms[role].add_windows(subs, self.cfg.window, detokenize_pieces)
        self.tables = dict(lms, parser=parser)

    def adapter_set(self, calls):
        return pipeline.AdapterSet(**self.tables)

    def misses(self) -> int:
        return sum(len(t.missed) for t in self.tables.values())


class FitPair:
    """One fp.fit_logistic and one gam.fit_gam on simulated data with a
    known truth; the pipeline does no work.

    The FP sample is the same for every seed, in an order the seed shuffles:
    the fit's Newton steps vary by about 15% from one sample to the next,
    so a fresh sample per seed would change the work itself."""

    name = "fp-gam"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._first = None

    def setup(self, repeats: int) -> list:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self.data = fp.simulate_observations(FIT_N, FIT_TRUTH, group_sd=0.3,
                                                 n_groups=FIT_GROUPS, seed=FIT_SAMPLE)
            random.Random(self.seed).shuffle(self.data)
            rng = np.random.default_rng(self.seed)
            self.x = rng.uniform(0.0, 2.0 * math.pi, FIT_N)
            self.y = np.sin(self.x) + rng.normal(0.0, 0.25, FIT_N)
            times.append(perf_counter() - t0)
        return times

    n_segments = 0

    def items(self) -> int:
        return 2 * FIT_N

    def misses(self) -> int:
        return 0

    def bytes_written(self) -> int:
        return 0

    def annotate_reference(self) -> tuple:
        return 0.0, 0.0

    def op(self, calls: Calls) -> dict:
        t0 = perf_counter()
        fit = calls.fit_logistic(self.data)
        smooth = calls.fit_gam(self.x, self.y)
        return {"wall": perf_counter() - t0, "fit": fit, "gam": smooth}

    def check(self, out) -> tuple:
        problems = []
        fit, smooth = out["fit"], out["gam"]
        names = ("intercept",) + fp.PREDICTORS
        for name, truth in zip(names, FIT_TRUTH):
            if not abs(fit.coefficients[name] - truth) <= 0.15:
                problems.append(f"{name} = {fit.coefficients[name]:.3f}, truth {truth}")
        if not smooth.pseudo_r2 > 0.8:
            problems.append(f"GAM pseudo-R2 {smooth.pseudo_r2:.3f} <= 0.8")
        result = (fit.coefficients, fit.aic, smooth.lam, smooth.pseudo_r2)
        if self._first is None:
            self._first = result
        elif result != self._first:
            problems.append("fit differs from the first operation's")
        return problems, {"aic": fit.aic, "sigma2": fit.variances.get("speaker_id"),
                          "pseudo_r2": smooth.pseudo_r2}


WORKLOADS = {wl.name: wl for wl in (SpokenReplay, WrittenWindow, FitPair)}


def traced_op(workload, tracer) -> dict:
    with patched_layers(tracer), tracer.root():
        return workload.op(Calls(tracer))


if __name__ == "__main__":
    # python3 -m bench.workloads SEED WORKDIR N_SEGMENTS REPEATS: the
    # sp-replay set-up, run REPEATS times; prints the times as JSON
    seed, workdir, n_segments, repeats = sys.argv[1:]
    print(json.dumps([record_spoken(int(seed), workdir, int(n_segments))
                      for _ in range(int(repeats))]))
