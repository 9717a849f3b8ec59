"""End-to-end corpus pipeline: raw parallel input -> normalized segments ->
annotated vertical rows -> long/wide aggregates.

Annotation runs on the calling thread in doc_id order, so identical inputs
and adapters give byte-identical outputs and the same warnings in order.
"""

from __future__ import annotations

import gzip
import json
import logging
from bisect import bisect_right
from dataclasses import field, make_dataclass
from functools import partial
from typing import NamedTuple

from . import align, surprisal
from .adapters import (MockCausalLM, MockEncoder, MockMT, ReplayCausalLM,
                       ReplayEncoder, ReplayMT)
from .annotate import MockParser, ReplayParser, annotate_segment
from .config import RunConfig
from .ids import IMPLIED_MODE, ItemId
from .records import SegmentPairRecord, SegmentRecord
from .standardize import standardize
from .tables import GzipTextWriter
from .transcripts import normalize_segment

log = logging.getLogger(__name__)

INPUT_COLUMNS = ("doc_id", "seg_id", "src_speaker_id", "tgt_speaker_id",
                 "src_raw", "tgt_raw")


class Role(NamedTuple):
    kind: str  # adapter kind, as in a replay file's meta line
    side: str = None  # segment side the role scores
    column: str = None  # vertical column its word bits fill
    key: str = None  # sidecar key of its subword-level mean


# Every adapter role, in scoring order.  MT scores the target given the
# source; its sidecar mean and pseudo-BLEU go to the "pair" record.  The
# --replay-<role> flags, replay_<role> config keys and adapter_<role>
# provenance entries are named after these keys.
ROLES = {
    "lm_base": Role("causal_lm", "tgt", "srp_base_gpt2", "base_gpt_avs_subw"),
    "lm_ft": Role("causal_lm", "tgt", "srp_ft_gpt2", "ft_gpt_avs_subw"),
    "src_lm_base": Role("causal_lm", "src", "srp_base_gpt2", "base_gpt_avs_subw"),
    "src_lm_ft": Role("causal_lm", "src", "srp_ft_gpt2", "ft_gpt_avs_subw"),
    "mt_base": Role("mt", "tgt", "srp_base_mt", "base_mt_avs_subw"),
    "mt_ft": Role("mt", "tgt", "srp_ft_mt", "ft_mt_avs_subw"),
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
    if str(path).endswith(".gz"):
        if "w" in mode:
            return GzipTextWriter(path)
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def read_input_tsv(path) -> list:
    """Raw parallel input: UTF-8 TSV with INPUT_COLUMNS (extra columns such
    as alignment_score and date are carried through); empty or NA cells mean
    an empty side."""
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
        row = dict(zip(header, cells))
        for k, v in row.items():
            if v == "NA":
                row[k] = ""
        rows.append(row)
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
                counts_d = {"disfluencies": counts.disfluencies,
                            "fillers": counts.fillers,
                            "fillers_plus_3": counts.fillers_plus_3}
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
    meta = None
    records = []
    with open_text(path, "r") as f:
        for i, line in enumerate(f):
            obj = json.loads(line)
            if i == 0 and isinstance(obj, dict) and set(obj) == {"meta"}:
                meta = obj["meta"]
                continue
            records.append(obj)
    return meta, records


def _seg_prefix(cfg: RunConfig, ttype: str, doc_id: str, seg_id: str) -> ItemId:
    return ItemId(ttype=ttype, mode=cfg.mode.upper(), src_lang=cfg.src_lang,
                  tgt_lang=cfg.tgt_lang,
                  doc_id=str(doc_id).zfill(cfg.doc_pad),
                  seg_id=str(seg_id).zfill(cfg.seg_pad),
                  explicit_mode=ttype not in IMPLIED_MODE)


def _score_words(seg, adapter, cfg: RunConfig):
    if cfg.scoring == "window":
        return surprisal.score_sliding_window(seg, adapter, cfg.window)
    return surprisal.score_segment_bounded(seg, adapter, cfg.cap)


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
    """Annotate one document's segments; returns (word_rows, sidecar)."""
    rows_out = []
    sidecar = []
    for seg in doc_segments:
        sides = {}
        for side, lang, ttype in (("src", cfg.src_lang, cfg.src_ttype),
                                  ("tgt", cfg.tgt_lang, cfg.target_ttype())):
            info = seg["sides"][side]
            prefix = _seg_prefix(cfg, ttype, seg["doc_id"], seg["seg_id"])
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
        src_text = src_seg.text

        # extra keys of the src, tgt and pair sidecar records
        extra = {"src": {}, "tgt": {}, "pair": {}}
        for role, spec in ROLES.items():
            if spec.column is None:
                continue
            adapter = getattr(adapters, role)
            parsed = sides[spec.side]
            mean = None
            if adapter:
                if spec.kind == "mt":
                    scored = surprisal.score_mt(src_text, parsed, adapter)
                    # no source, no translation to score: the mean stays
                    # null like the word bits score_mt nulls
                    bits = (surprisal.subword_bits(
                        parsed, partial(adapter.score, src_text), cap=None)
                        if src_text.strip() else [])
                else:
                    scored = _score_words(parsed, adapter, cfg)
                    bits = surprisal.subword_bits(parsed, adapter.score, cfg.cap)
                for ws, row in zip(scored, parsed.scored):
                    if ws.bits is not None:
                        setattr(row, spec.column, ws.bits)
                mean = sum(bits) / len(bits) if bits else None
            if spec.kind == "mt":
                extra["pair"][spec.key] = mean
                extra["pair"][spec.key.replace("mt_avs_subw", "bleu")] = \
                    _pseudo_bleu(src_text, parsed.text, adapter)
            else:
                extra[spec.side][spec.key] = mean

        if adapters.encoder and src_seg.words and tgt_seg.words:
            _align_segment(src_seg, tgt_seg, adapters.encoder, cfg)

        # sidecar records join against the padded ids both sides' rows carry
        ids = {"doc_id": prefix.doc_id, "seg_id": prefix.seg_id}
        for side in ("src", "tgt"):
            rows_out.extend(sides[side].word_rows)
            sidecar.append({**ids, "side": side,
                            "counts": seg["sides"][side]["counts"],
                            "n_sentences": len(sides[side].sentence_boundaries),
                            **extra[side]})
        sidecar.append({**ids, "side": "pair", **extra["pair"]})
    return rows_out, sidecar


def _pseudo_bleu(src_text, tgt_text, adapter):
    """Pseudo-BLEU of one MT adapter, or None without an adapter, without
    text on either side, or when the adapter fails."""
    if not (adapter and src_text.strip() and tgt_text.strip()):
        return None
    try:
        return surprisal.pseudo_bleu(src_text, tgt_text, adapter)
    except Exception as exc:
        log.warning("adapter %s failed, pseudo-BLEU nulled: %s",
                    getattr(adapter, "name", adapter), exc)
        return None


def _align_segment(src_seg, tgt_seg, encoder, cfg: RunConfig):
    """Fill aligned_word(_id) on both sides from mutual-softmax subword links.
    An encoder failure leaves the segment's alignments null."""
    try:
        src_emb = encoder.embed(src_seg.text, cfg.src_lang)
        tgt_emb = encoder.embed(tgt_seg.text, cfg.tgt_lang)
    except Exception as exc:
        log.warning("adapter %s failed, alignments nulled: %s",
                    getattr(encoder, "name", encoder), exc)
        return
    pairs = align.subword_align([e[2] for e in src_emb],
                                [e[2] for e in tgt_emb],
                                cfg.align_threshold)
    links, _unaligned = align.aggregate_to_words(
        pairs,
        _word_map_from_spans(src_seg.spans, src_emb),
        _word_map_from_spans(tgt_seg.spans, tgt_emb),
        cfg.align_threshold)
    src_rows, tgt_rows = src_seg.surface, tgt_seg.surface
    reverse = {}
    for link in links:
        srow = src_rows[link.src_word_index]
        srow.aligned_word = [tgt_rows[t].token for t in link.tgt_word_indices]
        srow.aligned_word_id = [str(tgt_rows[t].word_id)
                                for t in link.tgt_word_indices]
        for t in link.tgt_word_indices:
            reverse.setdefault(t, []).append(link.src_word_index)
    for t, sources in reverse.items():
        trow = tgt_rows[t]
        trow.aligned_word = [src_rows[s].token for s in sorted(sources)]
        trow.aligned_word_id = [str(src_rows[s].word_id) for s in sorted(sources)]
    # the ", "-joined TSV list cannot carry surfaces that themselves
    # contain a comma; null those alignments rather than corrupt rows
    for rows in (src_rows, tgt_rows):
        nulled = [row for row in rows
                  if row.aligned_word and any("," in t for t in row.aligned_word)]
        if nulled:
            log.warning("comma inside aligned surface, %d alignments nulled, "
                        "first for %s", len(nulled), nulled[0].word_id.render())
        for row in nulled:
            row.aligned_word = None
            row.aligned_word_id = None


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


def _mean_or_none(values):
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def aggregate_rows(word_rows, sidecar, cfg: RunConfig):
    """Vertical rows (+ optional sidecar) -> (long records, wide records).

    Subword-level averages and BLEU live only in the sidecar; without it
    (sidecar None) those columns stay null.
    """
    side_info = {}
    pair_info = {}
    for rec in sidecar or []:
        key = (str(rec["doc_id"]), str(rec["seg_id"]))
        if rec.get("side") == "pair":
            pair_info[key] = rec
        else:
            side_info[key + (rec["side"],)] = rec

    groups = {}
    for row in word_rows:
        key = (row.doc_id, row.seg_id, row.lang, row.ttype)
        groups.setdefault(key, []).append(row)

    longs = []
    wides = {}
    for (doc_id, seg_id, lang, ttype), rows in groups.items():
        surface = [r for r in rows if not r.is_expansion]
        word = [r for r in surface if not r.is_fp]
        side = "src" if ttype == cfg.src_ttype else "tgt"
        info = side_info.get((str(doc_id), str(seg_id), side), {})
        counts = info.get("counts") or {}
        rec = SegmentRecord(
            doc_id=doc_id, seg_id=seg_id,
            lpair=rows[0].lpair, lang=lang, mode=rows[0].mode, ttype=ttype,
            speaker_id=rows[0].speaker_id,
            base_gpt_avs=_mean_or_none([r.srp_base_gpt2 for r in word]),
            base_gpt_avs_subw=info.get("base_gpt_avs_subw"),
            ft_gpt_avs=_mean_or_none([r.srp_ft_gpt2 for r in word]),
            ft_gpt_avs_subw=info.get("ft_gpt_avs_subw"),
            disfluencies=counts.get("disfluencies"),
            fillers=counts.get("fillers"),
            fillers_plus_3=counts.get("fillers_plus_3"),
            raw_seg=rows[0].raw_seg,
            tokens=[r.token for r in surface],
            wc_tok=len(word),
        )
        longs.append(rec)

        wkey = (doc_id, seg_id)
        if wkey not in wides:
            wides[wkey] = SegmentPairRecord(src_doc_id=doc_id, src_seg_id=seg_id,
                                            tgt_doc_id=doc_id, tgt_seg_id=seg_id,
                                            lpair=rows[0].lpair, mode=rows[0].mode)
        wide = wides[wkey]
        if side == "src":
            wide.src_raw_seg = rows[0].raw_seg
        else:
            wide.tgt_raw_seg = rows[0].raw_seg
            wide.base_mt_avs = _mean_or_none([r.srp_base_mt for r in word])
            wide.ft_mt_avs = _mean_or_none([r.srp_ft_mt for r in word])
            pair = pair_info.get((str(doc_id), str(seg_id)), {})
            wide.base_mt_avs_subw = pair.get("base_mt_avs_subw")
            wide.ft_mt_avs_subw = pair.get("ft_mt_avs_subw")
            wide.base_bleu = pair.get("base_bleu")
            wide.ft_bleu = pair.get("ft_bleu")
    return longs, list(wides.values())
