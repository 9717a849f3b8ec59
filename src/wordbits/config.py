"""Run configuration: defaults < config file < environment < CLI flags.

Config files are plain key=value lines ("#" comments allowed).  Environment
variables use the WORDBITS_ prefix with the upper-cased key (WORDBITS_SEED=7).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields

from .surprisal import SUBWORD_CAP, WINDOW

ENV_PREFIX = "WORDBITS_"


@dataclass
class RunConfig:
    input: str = None
    output_dir: str = "out"
    lpair: str = "de-en"
    mode: str = "sp"  # sp | wr
    src_ttype: str = "ORG"
    tgt_ttype: str = None  # default: SI when spoken, TR when written
    replay_lm_base: str = None
    replay_lm_ft: str = None
    replay_src_lm_base: str = None
    replay_src_lm_ft: str = None
    replay_mt_base: str = None
    replay_mt_ft: str = None
    replay_encoder: str = None
    replay_parser: str = None
    align_threshold: float = 0.01
    score_cutoff_deen: float = 0.3
    score_cutoff_ende: float = 0.5
    scoring: str = "bounded"  # bounded | window
    window: int = WINDOW
    cap: int = SUBWORD_CAP
    seed: int = 1
    # Inert: annotation runs on one thread and nothing here reads it.  It stays
    # for bench/workloads.py, which sets it, and config_hash hashes every field.
    workers: int = 0
    doc_pad: int = 3
    seg_pad: int = 2

    @property
    def src_lang(self) -> str:
        return self.lpair.split("-")[0].upper()

    @property
    def tgt_lang(self) -> str:
        return self.lpair.split("-")[1].upper()

    def target_ttype(self) -> str:
        return target_ttype(self.mode, self.tgt_ttype)


def target_ttype(mode: str, tgt_ttype: str) -> str:
    """The target side's text type: tgt_ttype when set, else interpreted
    speech (SI) for spoken mode and translation (TR) for written mode."""
    return tgt_ttype or ("SI" if mode == "sp" else "TR")


_FIELDS = [f.name for f in fields(RunConfig)]


def _coerce(name: str, value: str):
    # every field without a numeric default is a string
    default = getattr(RunConfig(), name)
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def read_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def load_config(path=None, env=None, overrides=None) -> RunConfig:
    """Merge defaults, a key=value file, WORDBITS_* env vars, and explicit
    overrides (highest precedence).  Unknown keys fail loudly."""
    env = os.environ if env is None else env
    merged = {}
    if path:
        merged.update(read_config_file(path))
    for name in _FIELDS:
        var = ENV_PREFIX + name.upper()
        if var in env:
            merged[name] = env[var]
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    unknown = set(merged) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in merged.items():
        kwargs[key] = _coerce(key, value) if isinstance(value, str) else value
    return RunConfig(**kwargs)


def config_hash(cfg: RunConfig) -> str:
    parts = []
    for f in fields(RunConfig):
        parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]
