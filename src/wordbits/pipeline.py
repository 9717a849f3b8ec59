"""End-to-end corpus pipeline: raw parallel input -> normalized segments ->
annotated vertical rows and their long/wide aggregates -> the FP model.

Each ``*_stage`` function reads one stage's input and writes its outputs,
with provenance, under ``cfg.output_dir``; each CLI stage command calls one.
``fp_analyze_stage`` reads the sides and the direction from the vertical.
Annotation also returns in-memory "sidecar" records of what the rows cannot
carry (subword means, pseudo-BLEU, disfluency counts), which the annotate
stage aggregates the rows with.  ``ROLES`` names every field a scoring role
fills: a vertical column with its word bits, and the long (LM) or wide (MT)
record fields of its word mean, subword mean and pseudo-BLEU, the last two
also its sidecar keys.
Annotation runs on the calling thread in doc_id order, so identical inputs
and adapters give byte-identical outputs and the same warnings in order.
A failing adapter job nulls only its values (a parse keeps token-only rows)
with one warning from ``adapters.attempt``, and keeps the segment.
"""

from __future__ import annotations

import gzip
import json
import logging
import os
from bisect import bisect_right
from dataclasses import field, make_dataclass
from typing import NamedTuple

from . import __version__, align, fp, surprisal
from .adapters import (MockCausalLM, MockEncoder, MockMT, ReplayCausalLM,
                       ReplayEncoder, ReplayMT, adapter_name, attempt, meta_of)
from .annotate import MockParser, ReplayParser, annotate_segment
from .config import RunConfig, config_hash
from .ids import IMPLIED_MODE, ItemId
from .records import SegmentPairRecord, SegmentRecord, word_mean
from .standardize import standardize
from .tables import read_table, text_writer, write_table, write_tsv
from .transcripts import normalize_segment

log = logging.getLogger(__name__)

INPUT_COLUMNS = ("doc_id", "seg_id", "src_speaker_id", "tgt_speaker_id",
                 "src_raw", "tgt_raw")


class Role(NamedTuple):
    kind: str  # adapter kind, as in a replay file's meta line
    side: str = None  # segment side the role scores
    column: str = None  # vertical column its word bits fill
    avs: str = None  # record field of the mean of those word bits
    avs_subw: str = None  # record field and sidecar key of its subword mean
    bleu: str = None  # wide field and sidecar key of its pseudo-BLEU


# Every adapter role, in scoring order, and the fields it fills: an LM role's
# in the long record of the side it scores, an MT role's (it scores the target
# given the source) in the wide record, through the "pair" sidecar record.
# The --replay-<role> flags, replay_<role> config keys and adapter_<role>
# provenance entries are named after these keys.
ROLES = {
    "lm_base": Role("causal_lm", "tgt", "srp_base_gpt2", "base_gpt_avs", "base_gpt_avs_subw"),
    "lm_ft": Role("causal_lm", "tgt", "srp_ft_gpt2", "ft_gpt_avs", "ft_gpt_avs_subw"),
    "src_lm_base": Role("causal_lm", "src", "srp_base_gpt2", "base_gpt_avs", "base_gpt_avs_subw"),
    "src_lm_ft": Role("causal_lm", "src", "srp_ft_gpt2", "ft_gpt_avs", "ft_gpt_avs_subw"),
    "mt_base": Role("mt", "tgt", "srp_base_mt", "base_mt_avs", "base_mt_avs_subw", "base_bleu"),
    "mt_ft": Role("mt", "tgt", "srp_ft_mt", "ft_mt_avs", "ft_mt_avs_subw", "ft_bleu"),
    "encoder": Role("encoder"),
    "parser": Role("parser"),
}

# adapter kind -> (replay class, mock class)
_ADAPTER_CLASSES = {
    "causal_lm": (ReplayCausalLM, MockCausalLM),
    "mt": (ReplayMT, MockMT),
    "encoder": (ReplayEncoder, MockEncoder),
    "parser": (ReplayParser, MockParser),
}

AdapterSet = make_dataclass(
    "AdapterSet", [(role, object, field(default=None)) for role in ROLES])
AdapterSet.__module__ = __name__


def adapters_from_config(cfg: RunConfig, mock_fallback: bool = False) -> AdapterSet:
    adapters = {}
    for role, spec in ROLES.items():
        replay, mock = _ADAPTER_CLASSES[spec.kind]
        path = getattr(cfg, f"replay_{role}")
        adapters[role] = replay(path) if path else (mock() if mock_fallback else None)
    return AdapterSet(**adapters)


def open_text(path, mode):
    """A text file to read, BOM dropped, or to write atomically; gzip for .gz."""
    if "w" in mode:
        return text_writer(path, gz=str(path).endswith(".gz"))
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8-sig")
    return open(path, mode, encoding="utf-8-sig")


def read_input_tsv(path) -> list:
    """Raw parallel input: UTF-8 TSV, with or without a byte-order mark, with
    INPUT_COLUMNS (extra columns such as alignment_score and date are
    carried through); empty or NA cells mean an empty side."""
    with open_text(path, "r") as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty input")
    header = lines[0].split("\t")
    missing = [c for c in INPUT_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"{path}: missing input columns {missing}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells")
        rows.append({k: "" if v == "NA" else v for k, v in zip(header, cells)})
    return rows


def normalize_rows(rows, cfg: RunConfig) -> list:
    """Standardize and (for spoken mode) resolve transcript notation on both
    sides.  Returns one dict per segment with clean text, FP positions, and
    disfluency counts."""
    out = []
    for row in rows:
        seg = {"doc_id": row["doc_id"], "seg_id": row["seg_id"], "sides": {}}
        for extra in ("alignment_score", "date"):
            if row.get(extra):
                seg[extra] = row[extra]
        for side, lang in (("src", cfg.src_lang), ("tgt", cfg.tgt_lang)):
            raw = row.get(f"{side}_raw", "")
            text = standardize(raw, lang)
            if cfg.mode == "sp":
                clean, fps, counts = normalize_segment(text)
                counts_d = dict(vars(counts))
            else:
                clean, fps, counts_d = text, [], None
            seg["sides"][side] = {
                "raw": raw,
                "clean": clean,
                "fp_positions": fps,
                "counts": counts_d,
                "speaker_id": row.get(f"{side}_speaker_id") or None,
            }
        out.append(seg)
    return out


def write_jsonl(path, records, meta=None) -> None:
    with open_text(path, "w") as f:
        if meta is not None:
            f.write(json.dumps({"meta": meta}, ensure_ascii=False, sort_keys=True) + "\n")
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(path):
    """(meta, records): a first line {"meta": {...}} is the meta.  Blank
    lines are skipped, as a replay load skips them; any other line that is
    not JSON raises ValueError naming path:line."""
    meta = None
    records = []
    with open_text(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if lineno == 1 and (meta := meta_of(obj)) is not None:
                continue
            records.append(obj)
    return meta, records


def _seg_prefix(cfg: RunConfig, ttype: str, doc_id: str, seg_id: str) -> ItemId:
    return ItemId(ttype=ttype, mode=cfg.mode.upper(), src_lang=cfg.src_lang,
                  tgt_lang=cfg.tgt_lang,
                  doc_id=str(doc_id).zfill(cfg.doc_pad),
                  seg_id=str(seg_id).zfill(cfg.seg_pad),
                  explicit_mode=ttype not in IMPLIED_MODE)


def _word_map_from_spans(spans, emb):
    """Map encoder subword indexes to surface-word ordinals via char spans."""
    intervals = sorted((lo, hi, idx) for idx, (lo, hi) in spans.items())
    starts = [lo for lo, _, _ in intervals]
    mapping = {}
    for k, (_surface, (start, _end), _vec) in enumerate(emb):
        # spans do not overlap: only the last one starting at or before
        # `start` can contain it
        at = bisect_right(starts, start) - 1
        mapping[k] = intervals[at][2] if at >= 0 and start < intervals[at][1] else None
    return mapping


def annotate_document(doc_segments, cfg: RunConfig, adapters: AdapterSet):
    """Annotate one document's segments; returns (word_rows, sidecar).  Each
    adapter job runs through attempt, named by the side it fills (the source
    side for an alignment); a scoring job with subwords left past the last
    word logs one warning naming the segment."""
    rows_out = []
    sidecar = []
    for seg in doc_segments:
        sides = {}
        ids = {}
        for side, lang, ttype in (("src", cfg.src_lang, cfg.src_ttype),
                                  ("tgt", cfg.tgt_lang, cfg.target_ttype())):
            info = seg["sides"][side]
            prefix = ids[side] = _seg_prefix(cfg, ttype, seg["doc_id"], seg["seg_id"])
            parsed = annotate_segment(info["clean"], info["fp_positions"],
                                      lang, prefix, adapters.parser)
            for row in parsed.word_rows:
                row.doc_id = prefix.doc_id
                row.seg_id = prefix.seg_id
                row.lpair = cfg.lpair
                row.lang = lang
                row.mode = cfg.mode
                row.ttype = ttype
                row.speaker_id = info["speaker_id"]
                row.raw_seg = info["raw"]
            sides[side] = parsed

        src_seg, tgt_seg = sides["src"], sides["tgt"]

        # extra keys of the src, tgt and pair sidecar records
        extra = {"src": {}, "tgt": {}, "pair": {}}
        for role, spec in ROLES.items():
            if spec.column is None:
                continue
            adapter = getattr(adapters, role)
            parsed, item = sides[spec.side], ids[spec.side]
            mt = spec.kind == "mt"
            scored = mean = bleu = None
            if _runs(adapter, *((src_seg, parsed) if mt else (parsed,))):
                if mt:
                    job = (surprisal.score_mt, src_seg.text, parsed, adapter)
                elif cfg.scoring == "window":
                    job = (surprisal.score_sliding_window, parsed, adapter, cfg.window)
                else:
                    job = (surprisal.score_segment_bounded, parsed, adapter, cfg.cap)
                scored = attempt(adapter, item, "segment retained with null bits", *job)
                if scored and scored[-1].note == "unconsumed_subwords":
                    log.warning("adapter %s scored subwords past the last word of %s; "
                                "their bits are not kept", adapter_name(adapter), item)
                if mt:
                    bleu = attempt(adapter, item, "pseudo-BLEU nulled", surprisal.pseudo_bleu,
                                   src_seg.text, parsed.text, adapter)
            if scored is not None:
                for ws, row in zip(scored, parsed.scored):
                    if ws.bits is not None:
                        setattr(row, spec.column, ws.bits)
                # the mean of the subwords the word bits came from, if any
                bits = surprisal.subword_bits(scored)
                mean = sum(bits) / len(bits) if bits else None
            extra["pair" if mt else spec.side][spec.avs_subw] = mean
            if mt:
                extra["pair"][spec.bleu] = bleu

        if _runs(adapters.encoder, src_seg, tgt_seg):
            attempt(adapters.encoder, ids["src"], "alignments nulled", _align_segment,
                    src_seg, tgt_seg, adapters.encoder, cfg)

        # sidecar records join against the padded ids both sides' rows carry
        keys = {"doc_id": prefix.doc_id, "seg_id": prefix.seg_id}
        for side in ("src", "tgt"):
            rows_out.extend(sides[side].word_rows)
            extra[side]["counts"] = seg["sides"][side]["counts"]
        sidecar.extend({**keys, "side": side, **extra[side]} for side in extra)
    return rows_out, sidecar


def _runs(adapter, *sides) -> bool:
    """A job runs only when its adapter is set and every side it reads has words."""
    return adapter is not None and all(side.text for side in sides)


def _align_segment(src_seg, tgt_seg, encoder, cfg: RunConfig):
    """Fill aligned_word(_id) on both sides from mutual-softmax subword links.
    Rows are filled only once every link is known, so an error leaves no
    partial alignment."""
    src_emb = encoder.embed(src_seg.text, cfg.src_lang)
    tgt_emb = encoder.embed(tgt_seg.text, cfg.tgt_lang)
    pairs = align.subword_align([e[2] for e in src_emb],
                                [e[2] for e in tgt_emb],
                                cfg.align_threshold)
    links, _unaligned = align.aggregate_to_words(
        pairs,
        _word_map_from_spans(src_seg.spans, src_emb),
        _word_map_from_spans(tgt_seg.spans, tgt_emb),
        cfg.align_threshold)
    forward = {link.src_word_index: link.tgt_word_indices for link in links}
    reverse = {}
    for s, targets in forward.items():  # links come sorted by source word
        for t in targets:
            reverse.setdefault(t, []).append(s)
    fills = []
    for rows, peers, linked in ((src_seg.surface, tgt_seg.surface, forward),
                                (tgt_seg.surface, src_seg.surface, reverse)):
        # each linked peer's id is rendered once; its rows share the string
        rendered = {j: peers[j].word_id.render() for js in linked.values() for j in js}
        # the ", "-joined TSV list cannot carry surfaces that themselves
        # contain a comma; null those alignments rather than corrupt rows
        nulled = []
        for k in sorted(linked):
            tokens = [peers[j].token for j in linked[k]]
            if any("," in t for t in tokens):
                nulled.append(rows[k])
            else:
                fills.append((rows[k], tokens, [rendered[j] for j in linked[k]]))
        if nulled:
            log.warning("comma inside aligned surface, %d alignments nulled, "
                        "first for %s", len(nulled), nulled[0].word_id.render())
    for row, tokens, word_ids in fills:
        row.aligned_word = tokens
        row.aligned_word_id = word_ids


def annotate_corpus(segments, cfg: RunConfig, adapters: AdapterSet):
    """Annotate each document in doc_id order; returns (word_rows, sidecar)."""
    by_doc = {}
    for seg in segments:
        by_doc.setdefault(seg["doc_id"], []).append(seg)
    rows = []
    sidecar = []
    for d in sorted(by_doc):
        r, s = annotate_document(by_doc[d], cfg, adapters)
        rows.extend(r)
        sidecar.extend(s)
    return rows, sidecar


def aggregate_rows(word_rows, sidecar, cfg: RunConfig):
    """Vertical rows and annotate_corpus's sidecar records -> (long records,
    wide records).  Each role that scores a side fills the fields ROLES names:
    its word mean from the rows, its subword mean and BLEU from the sidecar,
    which alone also holds the disfluency counts."""
    info_of = {(rec["doc_id"], rec["seg_id"], rec["side"]): rec for rec in sidecar}

    groups = {}
    for row in word_rows:
        key = (row.doc_id, row.seg_id, row.lang, row.ttype)
        groups.setdefault(key, []).append(row)

    longs = []
    wides = {}  # (doc_id, seg_id) -> the wide record's fields
    for (doc_id, seg_id, lang, ttype), rows in groups.items():
        surface = [r for r in rows if not r.is_expansion]
        word = [r for r in surface if not r.is_fp]
        side = "src" if ttype == cfg.src_ttype else "tgt"
        info = info_of.get((doc_id, seg_id, side), {})
        pair = info_of.get((doc_id, seg_id, "pair"), {})
        long_fields = {}
        wide_fields = wides.setdefault((doc_id, seg_id), {})
        wide_fields.update(lpair=rows[0].lpair, mode=rows[0].mode)
        wide_fields[f"{side}_raw_seg"] = rows[0].raw_seg
        for spec in ROLES.values():
            if spec.side != side:
                continue
            out, rec = (wide_fields, pair) if spec.kind == "mt" else (long_fields, info)
            out[spec.avs] = word_mean(rows, spec.column)
            out[spec.avs_subw] = rec.get(spec.avs_subw)
            if spec.bleu:
                out[spec.bleu] = rec.get(spec.bleu)
        longs.append(SegmentRecord(
            doc_id=doc_id, seg_id=seg_id,
            lpair=rows[0].lpair, lang=lang, mode=rows[0].mode, ttype=ttype,
            speaker_id=rows[0].speaker_id, raw_seg=rows[0].raw_seg,
            tokens=[r.token for r in surface], wc_tok=len(word),
            **long_fields, **(info.get("counts") or {})))
    return longs, [SegmentPairRecord(src_doc_id=d, src_seg_id=s, tgt_doc_id=d,
                                     tgt_seg_id=s, **fields)
                   for (d, s), fields in wides.items()]


def provenance(cfg: RunConfig, command: str, **extra) -> dict:
    """A command's provenance header: command, config hash, package version
    and extra; no wall-clock time, so identical inputs give identical bytes."""
    return {"command": command, "config": config_hash(cfg), "version": __version__,
            **extra}


def output_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def require_input(cfg: RunConfig) -> str:
    if not cfg.input:
        raise ValueError("no input path given (use --input or the config file)")
    return cfg.input


def normalize_stage(cfg: RunConfig) -> dict:
    """Raw parallel TSV at cfg.input -> clean.jsonl.gz.  Like each stage,
    returns {path written: records written}, in the order written."""
    segs = normalize_rows(read_input_tsv(require_input(cfg)), cfg)
    out = output_path(cfg, "clean.jsonl.gz")
    write_jsonl(out, segs, meta=provenance(cfg, "normalize"))
    return {out: len(segs)}


def _write_tables(cfg: RunConfig, prov: dict, **tables) -> dict:
    """Write each format's records to <format>.tsv.gz under one provenance."""
    written = {}
    for fmt, records in tables.items():
        out = output_path(cfg, f"{fmt}.tsv.gz")
        write_table(records, fmt, out, provenance=prov)
        written[out] = len(records)
    return written


def annotate_stage(cfg: RunConfig, adapters: AdapterSet) -> dict:
    """Clean segments at cfg.input -> vertical.tsv.gz, long.tsv.gz and
    wide.tsv.gz, scored by the caller's adapters, whose names the
    provenance records."""
    _meta, segs = read_jsonl(require_input(cfg))
    rows, sidecar = annotate_corpus(segs, cfg, adapters)
    longs, wides = aggregate_rows(rows, sidecar, cfg)
    prov = provenance(cfg, "annotate", **{
        f"adapter_{role}": adapter_name(a) for role in ROLES
        if (a := getattr(adapters, role)) is not None})
    return _write_tables(cfg, prov, vertical=rows, long=longs, wide=wides)


def fp_analyze_stage(cfg: RunConfig, variant: str, intercepts) -> dict:
    """The vertical table at cfg.input -> fp_model.tsv.gz, the FP model of
    variant's bits.  The source side is the rows of ttype cfg.src_ttype, and
    the direction the rows' one lpair; any other count raises ValueError."""
    path = require_input(cfg)
    rows = read_table(path, "vertical")
    lpairs = sorted({r.lpair for r in rows}, key=str)
    if len(lpairs) != 1 or lpairs[0] is None:
        raise ValueError(f"{path}: the FP model fits one language pair, the rows hold {lpairs}")
    direction = lpairs[0].upper()
    src_rows = [r for r in rows if r.ttype == cfg.src_ttype]
    tgt_rows = [r for r in rows if r.ttype != cfg.src_ttype]
    data = fp.build_fp_dataset(tgt_rows, src_rows, direction, ROLES[f"lm_{variant}"].column,
                               ROLES[f"mt_{variant}"].column)
    fit = fp.fit_logistic(data, random_intercepts=intercepts)
    prov = provenance(cfg, "fp-analyze", variant=variant, direction=direction,
                      aic=repr(fit.aic), c=repr(fit.c), n_obs=fit.n_obs,
                      loglik=repr(fit.loglik),
                      **{f"sigma2_{k}": repr(v) for k, v in fit.variances.items()})
    ses = fit.std_errors
    terms = [(term, repr(est), repr(ses[term]),
              repr(est / ses[term] if ses[term] else float("nan")))
             for term, est in fit.coefficients.items()]
    out = output_path(cfg, "fp_model.tsv.gz")
    write_tsv(out, ("term", "estimate", "std_error", "z"), terms, prov)
    return {out: len(terms)}
