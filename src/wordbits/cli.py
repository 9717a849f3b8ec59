"""Command line entry point.

Subcommands cover the pipeline stages (normalize; annotate, which writes
the vertical, long and wide tables), the corpus builder (build, stats), and
the two analyses (fp-analyze, gam).  Every output carries the provenance
header of ``pipeline.provenance``.  Warnings from the wordbits loggers go
to stderr as "LEVEL logger: message" lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

from . import __version__, build, gam, pipeline
from .config import CHOICES, RunConfig, load_config
from .fp import GROUPING_FIELDS, PREDICTORS, build_fp_dataset, fit_logistic
from .pipeline import output_path, provenance, require_input
from .records import ParallelSegment
from .tables import read_table, write_tsv

# by name: run as `python -m wordbits.cli`, __name__ is __main__
log = logging.getLogger("wordbits.cli")


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--input", help="input path for this stage")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--direction", dest="lpair", choices=CHOICES["lpair"],
                   help="language pair, source first")
    p.add_argument("--mode", choices=CHOICES["mode"])
    p.add_argument("--scoring", choices=CHOICES["scoring"])
    p.add_argument("--window", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--align-threshold", dest="align_threshold", type=float)
    p.add_argument("--replay", help="JSON manifest mapping adapter role to replay file")
    for role in pipeline.ROLES:
        p.add_argument(f"--replay-{role.replace('_', '-')}", dest=f"replay_{role}")
    p.add_argument("--mock", action="store_true",
                   help="fall back to mock adapters for roles without a replay file")


def _config_from_args(args) -> RunConfig:
    overrides = {}
    if args.replay:
        with open(args.replay, encoding="utf-8-sig") as f:
            manifest = json.load(f)
        for role, path in manifest.items():
            if role.replace("-", "_") not in pipeline.ROLES:
                raise ValueError(f"unknown adapter role in replay manifest: {role!r}")
            overrides["replay_" + role.replace("-", "_")] = path
    # each common flag's dest is the RunConfig field it sets
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return load_config(args.config, os.environ, overrides)


def _report(written, unit="rows") -> None:
    print("wrote " + ", ".join(f"{out} ({n} {unit})" for out, n in written.items()))


def cmd_normalize(args) -> None:
    _report(pipeline.normalize_stage(_config_from_args(args)), "segments")


def cmd_annotate(args) -> None:
    cfg = _config_from_args(args)
    adapters = pipeline.adapters_from_config(cfg, mock_fallback=args.mock)
    _report(pipeline.annotate_stage(cfg, adapters))


def _load_documents(path) -> list:
    _meta, records = pipeline.read_jsonl(path)
    docs = []
    for rec in records:
        segments = [ParallelSegment(**s) for s in rec.pop("segments", [])]
        docs.append(build.DocumentPair(segments=segments, **rec))
    return docs


def cmd_build(args) -> None:
    cfg = _config_from_args(args)
    written = _load_documents(require_input(cfg))
    spoken = _load_documents(args.spoken) if args.spoken else []

    reports = []
    by_dir = {}
    for doc in written:
        doc, report = build.filter_empty_segments(doc)
        reports.append(report)
        if doc is not None:
            by_dir.setdefault(doc.lpair, []).append(doc)
    scored = []
    for direction, docs in sorted(by_dir.items()):
        scored.extend(build.filter_by_score(docs, build.SCORE_CUTOFFS.get(direction, 0.0)))
    written_clean = build.remove_overlap(scored, spoken)

    kept = {doc.lpair for doc in written_clean}
    for direction in sorted({doc.lpair for doc in written} - kept):
        log.warning("the filters left no %s documents to split", direction)
    # without spoken documents, each direction left gets a test split
    spoken_sizes = {} if spoken else dict.fromkeys(kept, 0)
    for doc in spoken:
        spoken_sizes[doc.lpair] = spoken_sizes.get(doc.lpair, 0) + doc.n_segments
    splits = build.make_splits(written_clean, spoken_sizes, cfg.seed)

    prov = provenance(cfg, "build")
    out = output_path(cfg, "splits.tsv.gz")
    write_tsv(out, ("doc_id", "lpair", "split", "n_segments"),
              ((doc.doc_id, doc.lpair, split_name, str(doc.n_segments))
               for split_name, docs in (("test", splits.test), ("train", splits.train),
                                        ("dropped", splits.dropped))
               for doc in sorted(docs, key=lambda d: d.doc_id)),
              prov)
    report_out = output_path(cfg, "build_report.jsonl.gz")
    pipeline.write_jsonl(report_out, reports, meta=prov)
    print(f"wrote {out} (test {len(splits.test)}, train {len(splits.train)}, "
          f"dropped {len(splits.dropped)}) and {report_out}")


_STATS_COLUMNS = ("mode", "lpair", "side", "ttype", "docs", "segs", "words",
                  "pct_empty", "fp", "pct_segs_with_fp", "len_mean", "len_sd",
                  "len_min", "len_max", "pct_multi_sentence")


def cmd_stats(args) -> None:
    cfg = _config_from_args(args)
    table = build.describe(_load_documents(require_input(cfg)))
    prov = provenance(cfg, "stats")
    out = output_path(cfg, "stats.tsv.gz")

    def cell(v):
        return "NA" if v is None else (repr(v) if isinstance(v, float) else str(v))

    write_tsv(out, _STATS_COLUMNS,
              ([cell(row.get(col)) for col in _STATS_COLUMNS] for row in table), prov)
    print(f"wrote {out} ({len(table)} rows)")


def cmd_fp_analyze(args) -> None:
    cfg = _config_from_args(args)
    rows = read_table(require_input(cfg), "vertical")
    tgt_rows = [r for r in rows if r.ttype == cfg.target_ttype()]
    src_rows = [r for r in rows if r.ttype == cfg.src_ttype]
    direction = cfg.lpair.upper()
    data = build_fp_dataset(tgt_rows, src_rows, direction, variant=args.variant)
    # "" names no factor: a plain GLM
    intercepts = tuple(f for f in args.random_intercepts.split(",") if f)
    fit = fit_logistic(data, random_intercepts=intercepts)
    prov = provenance(cfg, "fp-analyze", variant=args.variant, direction=direction,
                      aic=repr(fit.aic), c=repr(fit.c), n_obs=fit.n_obs,
                      loglik=repr(fit.loglik),
                      **{f"sigma2_{k}": repr(v) for k, v in fit.variances.items()})
    rows = []
    for term in ("intercept",) + tuple(PREDICTORS):
        if term not in fit.coefficients:
            continue
        est = fit.coefficients[term]
        se = fit.std_errors[term]
        z = est / se if se else float("nan")
        rows.append((term, repr(est), repr(se), repr(z)))
    out = output_path(cfg, "fp_model.tsv.gz")
    write_tsv(out, ("term", "estimate", "std_error", "z"), rows, prov)
    print(f"wrote {out} (AIC {fit.aic:.2f}, C {fit.c:.3f}, n {fit.n_obs})")


def cmd_gam(args) -> None:
    cfg = _config_from_args(args)
    longs = read_table(require_input(cfg), "long")
    wides = read_table(args.wide, "wide")
    lm_col = pipeline.ROLES[f"lm_{args.variant}"].avs
    mt_col = pipeline.ROLES[f"mt_{args.variant}"].avs
    mt_by_seg = {(w.tgt_doc_id, w.tgt_seg_id): getattr(w, mt_col) for w in wides}
    xs, ys = [], []
    for rec in longs:
        if rec.lang != cfg.tgt_lang:
            continue
        lm = getattr(rec, lm_col)
        mt = mt_by_seg.get((rec.doc_id, rec.seg_id))
        if lm is None or mt is None:
            continue
        x, y = (mt, lm) if args.orientation == "lm_on_mt" else (lm, mt)
        xs.append(x)
        ys.append(y)
    fit = gam.fit_gam(xs, ys)
    grid_x, yhat, lower, upper = fit.curve(args.grid_points)
    prov = provenance(cfg, "gam", variant=args.variant,
                      orientation=args.orientation, n=len(xs),
                      lam=repr(fit.lam), pseudo_r2=repr(fit.pseudo_r2),
                      edf=repr(fit.edf), gcv=repr(fit.gcv))
    out = output_path(cfg, "gam_curve.tsv.gz")
    write_tsv(out, ("x", "yhat", "ci_lower", "ci_upper"),
              ([repr(float(v)) for v in row] for row in zip(grid_x, yhat, lower, upper)),
              prov)
    print(f"wrote {out} (pseudo R2 {fit.pseudo_r2:.3f}, edf {fit.edf:.2f})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordbits",
        description="Surprisal pipeline for parallel spoken/written corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    command("normalize", cmd_normalize, "raw parallel TSV -> clean segments")
    command("annotate", cmd_annotate, "clean segments -> vertical, long and wide tables")
    p = command("build", cmd_build, "filter documents and cut train/test splits")
    p.add_argument("--spoken", help="spoken documents JSONL for overlap removal")
    command("stats", cmd_stats, "corpus description table")

    p = command("fp-analyze", cmd_fp_analyze, "mixed logistic FP model")
    p.add_argument("--variant", choices=("base", "ft"), default="base")
    p.add_argument("--random-intercepts", default="speaker_id",
                   help="comma separated grouping factors, of "
                   f"{', '.join(GROUPING_FIELDS)}; empty for a plain GLM")

    p = command("gam", cmd_gam, "smooth LM-vs-MT surprisal curve")
    p.add_argument("--wide", required=True, help="wide table with MT columns")
    p.add_argument("--variant", choices=("base", "ft"), default="base")
    p.add_argument("--orientation", choices=("lm_on_mt", "mt_on_lm"),
                   default="lm_on_mt")
    p.add_argument("--grid-points", type=int, default=100)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # removed when the call returns, so repeated calls in one process do not
    # stack handlers and none outlives the stderr it was given
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("wordbits")
    logger.addHandler(handler)
    try:
        args.func(args)
    except Exception as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
