"""Pluggable text-to-vector encoding.

The default encoder hashes tokens with 64-bit FNV-1a into signed one-hot
vectors, giving a deterministic, dependency-free stand-in for a pretrained
sentence encoder. Precomputed embeddings from a real encoder can be supplied
through a CSV file instead; both produce the same ``TokenEmbeddings`` shape.
The file keys each step's text by ``embedding_id``; ``pipeline.build_windows``
builds these ids only for a file encoder.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property

import numpy as np

from .data import open_utf8
from .errors import DataError, FormatError
from .numeric import fnv1a64

__all__ = [
    "TokenEmbeddings",
    "EncoderConfig",
    "tokenize",
    "encode_hashed",
    "embedding_id",
    "load_embedding_file",
    "encode",
]

_SIGN_BIT = 1 << 63
_TOKEN = re.compile(r"[^\W_]+")


@dataclass
class TokenEmbeddings:
    """Per-token rows plus a pooled sentence vector.

    ``tokens`` is (m, d); ``pooled`` is (d,) with unit L2 norm unless the
    text produced no tokens (then it is the zero vector).
    """

    tokens: np.ndarray
    pooled: np.ndarray


@dataclass(frozen=True)
class EncoderConfig:
    """A model's text encoder: vectors looked up by id in ``embedding_file``, or hashed when it is None.

    The file is read on the first lookup. A model records the encoder its
    training windows were built with, and its model file carries it; a
    pickle carries the name alone, not the table (scoring pickles models).
    """

    embedding_file: str | None = None

    def __reduce__(self):
        return EncoderConfig, (self.embedding_file,)

    @cached_property
    def embeddings(self) -> dict[str, TokenEmbeddings]:
        return load_embedding_file(self.embedding_file)


def tokenize(text: str) -> list[str]:
    r"""Lowercase and split on every non-alphanumeric codepoint.

    A token is a maximal run of codepoints for which ``str.isalnum()`` holds.
    For str patterns ``\w`` matches exactly those codepoints and ``_``, so
    ``[^\W_]`` is that set and one ``findall`` splits the text.
    """
    return _TOKEN.findall(text.lower())


def encode_hashed(text: str, d: int) -> TokenEmbeddings:
    """Signed feature hashing: one +-1 entry per token at FNV-1a(token) mod d."""
    if d < 2:
        raise DataError(f"hashed encoder needs dimension >= 2, got {d}")
    words = tokenize(text)
    tokens = np.zeros((len(words), d), dtype=np.float64)
    for i, word in enumerate(words):
        h = fnv1a64(word.encode("utf-8"))
        sign = -1.0 if h & _SIGN_BIT else 1.0
        tokens[i, h % d] = sign
    pooled = tokens.sum(axis=0) if len(words) else np.zeros(d, dtype=np.float64)
    norm = float(np.linalg.norm(pooled))
    if norm > 0.0:
        pooled = pooled / norm
    return TokenEmbeddings(tokens=tokens, pooled=pooled)


def embedding_id(source: str, ts: datetime) -> str:
    """The id an embedding file gives the text of ``source``, a region or ``global``, at ``ts``."""
    return f"{source}|{ts.isoformat()}"


def load_embedding_file(path) -> dict[str, TokenEmbeddings]:
    """Read `id,v1,...,vd` lines into a lookup of precomputed vectors; every value must be finite."""
    out: dict[str, TokenEmbeddings] = {}
    dim: int | None = None
    with open_utf8(path, FormatError) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            rec_id = row[0]
            if rec_id in out:
                raise FormatError(f"{path} line {lineno}: duplicate embedding id {rec_id!r}")
            values = row[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise FormatError(f"{path} line {lineno}: embedding carries no values")
            elif len(values) != dim:
                raise FormatError(f"{path} line {lineno}: ragged embedding width, expected {dim}, got {len(values)}")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path} line {lineno}: non-numeric embedding field: {exc}") from exc
            if not np.isfinite(vec).all():
                raise FormatError(f"{path} line {lineno}: non-finite embedding value")
            out[rec_id] = TokenEmbeddings(tokens=vec[None, :].copy(), pooled=vec)
    return out


def encode(text: str, key: str, config: EncoderConfig, d: int) -> TokenEmbeddings:
    """Encode as ``config`` says: ``text`` hashed ``d`` wide, or the file's vectors for the id ``key``."""
    if config.embedding_file is None:
        return encode_hashed(text, d)
    if key not in config.embeddings:
        raise DataError(f"no precomputed embedding for id {key!r}")
    return config.embeddings[key]
