"""Run configuration: defaults < config file < environment < CLI flags.

Config files are plain UTF-8 key=value lines ("#" comments allowed, a
byte-order mark dropped).  Environment variables use the WORDBITS_ prefix
with the upper-cased key (WORDBITS_SEED=7).  Values from every source are
checked; a rejection names the key.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from typing import ClassVar

from .surprisal import SUBWORD_CAP, WINDOW

ENV_PREFIX = "WORDBITS_"

# the values each of these keys may take; the CLI flags offer the same
CHOICES = {"lpair": ("de-en", "en-de"), "mode": ("sp", "wr"),
           "scoring": ("bounded", "window")}
POSITIVE = ("cap", "window")  # integer keys that must be at least 1
FRACTIONS = ("align_threshold",)  # float keys that must lie in [0, 1)


@dataclass
class RunConfig:
    input: str = None
    output_dir: str = "out"
    lpair: str = "de-en"
    mode: str = "sp"
    replay_lm_base: str = None
    replay_lm_ft: str = None
    replay_src_lm_base: str = None
    replay_src_lm_ft: str = None
    replay_mt_base: str = None
    replay_mt_ft: str = None
    replay_encoder: str = None
    replay_parser: str = None
    align_threshold: float = 0.01
    scoring: str = "bounded"
    window: int = WINDOW
    cap: int = SUBWORD_CAP
    seed: int = 1
    # Inert: annotation runs on one thread and nothing here reads it.  It stays
    # for bench/workloads.py, which sets it, and config_hash hashes every field.
    workers: int = 0
    # fixed by the corpus (ids like ORG_SP_DE_EN_131-02:001), not keys
    doc_pad: ClassVar[int] = 3
    seg_pad: ClassVar[int] = 2
    src_ttype: ClassVar[str] = "ORG"

    @property
    def src_lang(self) -> str:
        return self.lpair.split("-")[0].upper()

    @property
    def tgt_lang(self) -> str:
        return self.lpair.split("-")[1].upper()

    def target_ttype(self) -> str:
        return target_ttype(self.mode, None)


def target_ttype(mode: str, tgt_ttype: str) -> str:
    """The target side's text type: tgt_ttype when set, else interpreted
    speech (SI) for spoken mode and translation (TR) for written mode."""
    return tgt_ttype or ("SI" if mode == "sp" else "TR")


_FIELDS = [f.name for f in fields(RunConfig)]


def _checked(name: str, value):
    """value for field name, parsed from a string if the field is numeric;
    one that does not parse or is out of range raises ValueError naming it."""
    kind = type(getattr(RunConfig(), name))  # str unless the default is numeric
    if kind in (int, float) and isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            raise ValueError(f"config key {name!r}: {value!r} is not {kind.__name__}") from None
    if name in CHOICES and value not in CHOICES[name]:
        raise ValueError(f"config key {name!r}: {value!r} is not one of "
                         f"{', '.join(CHOICES[name])}")
    if name in POSITIVE and value < 1:
        raise ValueError(f"config key {name!r}: {value!r} is below 1")
    if name in FRACTIONS and not 0 <= value < 1:  # nan fails both comparisons
        raise ValueError(f"config key {name!r}: {value!r} is not in [0, 1)")
    return value


def read_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8-sig") as f:
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
    return RunConfig(**{key: _checked(key, value) for key, value in merged.items()})


def config_hash(cfg: RunConfig) -> str:
    parts = []
    for f in fields(RunConfig):
        parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]
