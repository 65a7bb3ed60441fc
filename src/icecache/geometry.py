"""Lifting transforms and exact brute-force oracles.

Keys and queries live in R^d. To search keys by inner product with a
Euclidean-distance index, both sides are lifted to R^(d+1):

    lift_keys(k)       = [k / s, sqrt(1 - |k|^2 / s^2)],  s = max(|k|, c)
    transform_query(q) = [q / |q|, 0]

where the scale c is fixed at build time above the indexed key norms; a
later key past it is clamped onto [k / |k|, 0]. Both images are unit
vectors and, for |k| <= c,

    |transform_query(q) - lift_keys(k)|^2 = 2 - 2 (q . k) / (c |q|),

so for a fixed query the nearest lifted keys are exactly the keys with the
largest inner products. A query scores a clamped row times its length
s / c, which `lift_keys` returns, so every key ranks by q . k. Rankings
break ties toward the smaller token id so results are reproducible (a
tree's parent scan is the exception: `dci._parent_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQueryError, InputError

# Headroom over the max prefill key norm so decode-time inserts rarely
# exceed the scale; keys that still do are clamped (see lift_keys).
SCALE_HEADROOM = 1.05


@dataclass(frozen=True)
class KeyScale:
    """Normalization constant for key lifting; keys past it are clamped."""

    c: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.c) or self.c <= 0.0:
            raise InputError(f"scale must be a positive finite real, got {self.c}")

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "KeyScale":
        """Fix the scale from a key matrix: SCALE_HEADROOM times its largest
        norm. InputError if the keys are empty or that norm is not finite, so
        a NaN or infinite key is named as such, not as a bad scale."""
        keys = np.asarray(keys, dtype=float)
        if keys.size == 0:
            raise InputError("cannot derive a scale from an empty key set")
        max_norm = float(np.sqrt(np.einsum("...j,...j->...", keys, keys).max()))
        if not np.isfinite(max_norm):
            raise InputError(f"non-finite keys: the largest key norm is {max_norm}")
        if max_norm == 0.0:
            max_norm = 1.0  # all-zero keys: any positive scale works
        return cls(SCALE_HEADROOM * max_norm)


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite coordinates")
    return v


def lift_keys(keys: np.ndarray, scale: KeyScale, out: np.ndarray) -> np.ndarray:
    """Lift finite key rows into `out`, one row of d + 1 coordinates each:
    [k / s, sqrt(max(0, 1 - |k|^2 / s^2))] with s = max(|k|, c). Returns
    each row's length s / c in float64, above 1 for a clamped row (|k| > c).

    The values are computed in float64 and rounded once to `out`'s dtype.
    A clamped key maps to [k / |k|, 0], on the unit sphere; times its
    length it is [k / c, 0] again.
    """
    keys = np.asarray(keys, dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->i", keys, keys))
    safe_norms = np.maximum(norms, scale.c)
    np.divide(keys, safe_norms[:, None], out=out[:, :-1])
    out[:, -1] = np.sqrt(np.maximum(0.0, 1.0 - (norms / safe_norms) ** 2))
    return safe_norms / scale.c


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
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise InputError("keys must be a non-empty sequence of vectors")
    if mat.shape[1] != q.size:
        raise InputError(f"dimension mismatch: query {q.size}, keys {mat.shape[1]}")
    scores = mat @ q
    order = np.lexsort((np.arange(mat.shape[0]), -scores))
    return [int(i) for i in order[: min(k, mat.shape[0])]]
