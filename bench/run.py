"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sp-replay --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository: the package is imported from the
checkout's ``src``.  The lines before the last are a readable summary.  The
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
RULES = ("none", "abbreviation", "float_like", "punct_sequence", "split_75_25",
         "summed", "failed")
WARNING_LAYERS = ("transcripts", "annotate", "surprisal", "pipeline")


def _prepare_imports() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wordbits", "__init__.py")):
        sys.exit(f"bench: no wordbits package under {src}; run from a checkout")
    sys.path[:0] = [src, ROOT]
    # BLAS threads: at most one per core this process may use
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def attempt(workload, op, log, index):
    """Run and check one operation: (wall or None, problems, facts, out).
    An operation that raises or fails the gate counts as failed."""
    try:
        out = op()
        problems, facts = workload.check(out)
    except Exception:
        log(traceback.format_exc())
        return None, ["operation raised"], {}, None
    for p in problems:
        log(f"op {index}: FAILED: {p}")
    return out["wall"], problems, facts, out


def closed_loop(seconds, one, min_ops=1) -> list:
    """One operation after another until `seconds` have passed."""
    results = []
    start = perf_counter()
    while len(results) < min_ops or perf_counter() - start < seconds:
        results.append(one(len(results) + 1))
    return results


def measure(workload, seconds, log):
    from bench.workloads import Calls

    def one(i):
        wall, problems, facts, _out = attempt(workload, lambda: workload.op(Calls()), log, i)
        return wall, problems, facts

    results = closed_loop(seconds, one)
    walls = [w for w, problems, _f in results if not problems]
    log(f"op walls {[round(w, 3) for w in walls]}; last op {json.dumps(results[-1][2])}")
    op_s = _median(walls)
    return {
        "op_s": (op_s, "s"),
        "items_per_s": (workload.items() / op_s if op_s else 0.0, "1/s"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }, results


def measure_traced(workload, seconds, warnings, log):
    """Untraced and traced operations in turn; each per-layer metric is the
    median over the traced ones, and trace.overhead compares the medians of
    the two kinds."""
    from bench.tracing import Tracer
    from bench.workloads import Calls, traced_op

    def one(i):
        if i % 2:
            wall, problems, facts, _out = attempt(
                workload, lambda: workload.op(Calls()), log, i)
            return wall, problems, facts, None
        tracer = Tracer()
        before, misses = warnings.counts.copy(), workload.misses()

        def op():
            out = traced_op(workload, tracer)
            out["warnings"] = warnings.counts - before
            out["misses"] = workload.misses() - misses
            return out
        wall, problems, facts, out = attempt(workload, op, log, i)
        layers = layer_metrics(workload, out, tracer, facts) if out else None
        return wall, problems, facts, (layers, tracer)

    results = closed_loop(seconds, one, min_ops=2)
    traced = [r[3] for r in results if r[3] and r[3][0]]
    if not traced:
        raise RuntimeError("no traced operation completed")
    metrics = {}
    for name, (_value, unit) in traced[0][0].items():
        metrics[name] = (_median([layers[name][0] for layers, _t in traced]), unit)
    plain = [w for w, problems, _f, extra in results if extra is None and not problems]
    with_trace = [w for w, problems, _f, extra in results if extra and not problems]
    overhead = _median(with_trace) / _median(plain) - 1.0 if plain and with_trace else 0.0
    metrics["trace.overhead"] = (overhead, "share")
    default, single = workload.annotate_reference()
    metrics["pipeline.annotate_corpus_s"] = (default, "s")
    metrics["pipeline.annotate_corpus_1w_s"] = (single, "s")
    return metrics, results, traced[-1][1]


def layer_metrics(workload, out, tracer, facts) -> dict:
    """Per-layer metrics of one traced operation."""
    from bench.workloads import ROLES
    self_s, _wall_s, calls, counts = tracer.summary()
    wall = out["wall"]
    m = {}

    def self_time(name):
        m[name] = (self_s.get(name, 0.0), "s")

    lookup = sum(v for k, v in self_s.items() if k.startswith("adapters.call."))
    m["adapters.lookup_s"] = (lookup, "s")
    m["adapters.call_share"] = (lookup / wall, "share")
    self_time("adapters.replay_load_s")
    for role in ROLES:
        m[f"adapters.calls.{role}"] = (calls.get(f"adapters.call.{role}", 0), "count")
    m["adapters.misses"] = (counts.get("misses", 0) + out["misses"], "count")
    n_calls = sum(calls[k] for k in calls if k.startswith("adapters.call."))
    segments = workload.n_segments
    m["adapters.calls_per_seg"] = (n_calls / segments if segments else 0.0, "count/seg")

    self_time("transcripts.normalize_s")
    self_time("standardize.s")
    self_time("annotate.segment_self_s")
    m["annotate.parser_calls"] = (calls.get("adapters.call.parser", 0), "count")
    m["annotate.parser_fallbacks"] = (counts.get("parser_fallbacks", 0), "count")

    for name in ("bounded_s", "mt_s", "subword_bits_s", "pseudo_bleu_s", "window_s",
                 "realign_s"):
        self_time(f"surprisal.{name}")
    words = sum(counts.get(f"rule.{r}", 0) for r in RULES)
    for r in RULES:
        m[f"surprisal.rule.{r}"] = (counts.get(f"rule.{r}", 0), "count")
    ok = words - counts.get("rule.failed", 0)
    m["surprisal.realign_ok_ratio"] = (ok / words if words else 0.0, "share")
    m["surprisal.null_bits_share"] = (facts.get("null_bits_share", 0.0), "share")

    self_time("align.subword_align_s")
    self_time("align.aggregate_s")
    m["align.links"] = (counts.get("links", 0), "count")
    warned = out["warnings"]
    m["align.comma_nulled"] = (sum(n for (_layer, msg), n in warned.items()
                                   if msg.startswith("comma inside aligned surface")),
                               "count")

    for fmt in ("vertical", "long", "wide"):
        self_time(f"tables.write_s.{fmt}")
    self_time("tables.read_s")
    m["tables.bytes_written"] = (workload.bytes_written(), "bytes")

    for name in ("read_input_s", "normalize_rows_s", "annotate_document_s",
                 "aggregate_rows_s", "jsonl_write_s", "jsonl_read_s"):
        self_time(f"pipeline.{name}")

    self_time("fp.fit_logistic_s")
    self_time("gam.fit_gam_s")
    for layer in WARNING_LAYERS:
        m[f"{layer}.warnings"] = (sum(n for (lay, _msg), n in warned.items()
                                      if lay == layer), "count")
    named = sum(v for k, v in self_s.items() if k != "op")
    m["trace.coverage"] = (named / wall, "share")
    return m


def write_trace(path, tracer) -> None:
    """Self CPU, wall and calls per span name of the last traced op."""
    self_s, wall_s, calls, counts = tracer.summary()
    spans = {name: {"self_cpu_s": self_s[name], "wall_s": wall_s[name], "calls": calls[name]}
             for name in sorted(self_s)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"spans": spans, "counts": dict(sorted(counts.items()))}, f, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one wordbits benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare_imports()
    from bench.tracing import WarningCounter
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    def log(msg):
        print(f"[{args.workload} seed={args.seed}] {msg}", flush=True)

    tag = f"{args.workload}-{args.seed}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with WarningCounter().installed() as warnings:
            setups = workload.setup(SETUP_REPEATS)
            log(f"setup runs {[round(t, 3) for t in setups]} s, "
                f"peak rss after setup {_rss_mb():.1f} MB")
            if args.trace:
                metrics, results, tracer = measure_traced(
                    workload, args.seconds, warnings, log)
                write_trace(os.path.join(ROOT, ".bench_out", f"trace-{tag}.json"), tracer)
            else:
                metrics, results = measure(workload, args.seconds, log)
                metrics["setup_s"] = (statistics.median(setups), "s")
        for (layer, msg), n in sorted(warnings.counts.items()):
            log(f"warnings [{layer}] x{n}: {msg}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in results if r[1])
    for name, (value, unit) in sorted(metrics.items()):
        log(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
