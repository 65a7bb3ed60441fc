"""Lifting transforms and exact brute-force oracles.

Keys and queries live in R^d. To search keys by inner product with a
Euclidean-distance index, both sides are lifted to R^(d+1):

    transform_key(k)   = [k / c, sqrt(1 - |k|^2 / c^2)]
    transform_query(q) = [q / |q|, 0]

where c is at least the largest indexed key norm. Both images are unit
vectors and

    |transform_query(q) - transform_key(k)|^2 = 2 - 2 (q . k) / (c |q|),

so for a fixed query the nearest lifted keys are exactly the keys with the
largest inner products, and the index ranks lifted points by inner product
directly. Rankings break ties toward the smaller token id so results are
reproducible (a tree's parent scan is the exception: `dci._parent_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateQueryError, InputError, ScaleViolationError

# Headroom over the max prefill key norm so decode-time inserts rarely
# exceed the scale; keys that still do are clamped (see DciTree).
SCALE_HEADROOM = 1.05

# Relative slack before an over-norm key is treated as a contract violation.
SCALE_RTOL = 1e-9


@dataclass(frozen=True)
class KeyScale:
    """Normalization constant for key lifting; must dominate every key norm."""

    c: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.c) or self.c <= 0.0:
            raise InputError(f"scale must be a positive finite real, got {self.c}")

    @classmethod
    def from_keys(cls, keys: np.ndarray, headroom: float = SCALE_HEADROOM) -> "KeyScale":
        """Fix the scale from a key matrix with multiplicative headroom."""
        keys = np.asarray(keys, dtype=float)
        if keys.size == 0:
            raise InputError("cannot derive a scale from an empty key set")
        max_norm = float(np.sqrt(np.einsum("...j,...j->...", keys, keys).max()))
        if max_norm == 0.0:
            max_norm = 1.0  # all-zero keys: any positive scale works
        return cls(headroom * max_norm)


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite coordinates")
    return v


def transform_key(k, scale: KeyScale | float) -> np.ndarray:
    """Lift a key into R^(d+1); the result has unit norm.

    Raises ScaleViolationError if |k| exceeds the scale by more than a
    relative 1e-9; a radicand that is negative only by rounding is clamped
    to zero.
    """
    k = _as_vector(k, "key")
    c = scale.c if isinstance(scale, KeyScale) else float(scale)
    if c <= 0.0:
        raise InputError(f"scale must be positive, got {c}")
    norm = float(np.linalg.norm(k))
    if norm > c * (1.0 + SCALE_RTOL):
        raise ScaleViolationError(f"key norm {norm} exceeds scale {c}")
    radicand = max(0.0, 1.0 - (norm / c) ** 2)
    out = np.empty(k.size + 1)
    out[:-1] = k / c
    out[-1] = np.sqrt(radicand)
    return out


def transform_query(q) -> np.ndarray:
    """Lift a query into R^(d+1): normalize and append a zero coordinate."""
    q = _as_vector(q, "query")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise DegenerateQueryError("zero query cannot be normalized")
    out = np.empty(q.size + 1)
    out[:-1] = q / norm
    out[-1] = 0.0
    return out


def exact_topk(q, keys, k: int) -> list[int]:
    """Indices of the k keys with the largest inner product against q.

    Descending by score, ties broken toward the smaller index. Asking for
    more results than there are keys returns all indices, sorted the same
    way. This is the exact oracle every approximate path is tested against.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    q = _as_vector(q, "query")
    mat = np.asarray(keys, dtype=float)
    if isinstance(keys, Sequence) and mat.ndim == 1:
        mat = mat.reshape(len(keys), -1)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise InputError("keys must be a non-empty sequence of vectors")
    if mat.shape[1] != q.size:
        raise InputError(f"dimension mismatch: query {q.size}, keys {mat.shape[1]}")
    scores = mat @ q
    order = np.lexsort((np.arange(mat.shape[0]), -scores))
    return [int(i) for i in order[: min(k, mat.shape[0])]]
