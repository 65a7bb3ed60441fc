"""Exact and masked softmax attention with stable arithmetic.

For one query q over keys k_1..k_m and values v_1..v_m,

    a_j = exp(q . k_j / sqrt(d)) / sum_j' exp(q . k_j' / sqrt(d)),
    out = sum_j a_j v_j,

computed after subtracting the max logit so a constant shift of the logits
leaves the weights bit-identical. The sparse variant restricts the softmax
to an explicit list of token ids (mask 1 on selected, 0 elsewhere), gathers
their rows from key/value buffers indexed by token id, and renormalizes
over the selected set; unselected tokens carry implicit weight zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError


@dataclass
class AttentionOutput:
    """Per-token weights (summing to 1 over unmasked tokens) and the
    weighted value vector."""

    weights: dict[int, float]
    value_out: np.ndarray

    def covered_mass(self, token_ids: Iterable[int]) -> float:
        """Total weight this output places on the given tokens."""
        return float(sum(self.weights.get(int(t), 0.0) for t in token_ids))


@dataclass(frozen=True)
class HeadGroup:
    """One kv head and the query heads that share its key embeddings."""

    kv_head_id: int
    query_head_ids: tuple[int, ...]


def _stack(vectors, name: str) -> np.ndarray:
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise InputError(f"{name} must be a non-empty sequence of vectors")
    return mat


def full_attention(q, keys, values, token_ids: Sequence[int] | None = None) -> AttentionOutput:
    """Softmax attention of one query over every key/value pair."""
    q = np.asarray(q, dtype=float)
    k_mat = _stack(keys, "keys")
    v_mat = _stack(values, "values")
    if k_mat.shape[0] != v_mat.shape[0]:
        raise InputError(f"{k_mat.shape[0]} keys but {v_mat.shape[0]} values")
    if k_mat.shape[1] != q.size:
        raise InputError(f"dimension mismatch: query {q.size}, keys {k_mat.shape[1]}")
    if token_ids is None:
        token_ids = range(k_mat.shape[0])
    token_ids = [int(t) for t in token_ids]
    if len(token_ids) != k_mat.shape[0]:
        raise InputError("token_ids must align one-to-one with keys")

    logits = (k_mat @ q) / np.sqrt(q.size)
    logits -= logits.max()
    weights = np.exp(logits)
    weights /= weights.sum()
    return AttentionOutput(dict(zip(token_ids, weights.tolist())), weights @ v_mat)


def sparse_attention(q, selected_tokens: Iterable[int], keys, values) -> AttentionOutput:
    """Attention restricted to a token selection.

    `keys` and `values` are indexed by token id: row t holds token t. The
    selection must be non-empty, distinct and in range; its rows are
    gathered in the order given, and the weights are renormalized over
    them, so selecting every row reproduces full attention exactly.
    """
    ids = [int(t) for t in selected_tokens]
    if not ids:
        raise InputError("empty token selection")
    k_mat = np.asarray(keys, dtype=float)
    v_mat = np.asarray(values, dtype=float)
    n = k_mat.shape[0]
    if n != v_mat.shape[0]:
        raise InputError(f"{n} keys but {v_mat.shape[0]} values")
    if min(ids) < 0 or max(ids) >= n:
        raise InputError(f"selected token ids must lie in [0, {n})")
    if len(set(ids)) != len(ids):
        raise InputError("selected tokens repeat an id")
    return full_attention(q, k_mat[ids], v_mat[ids], ids)


def gqa_union(per_query_selections: Sequence[Iterable[int]]) -> set[int]:
    """Union of the page selections of the query heads in one group."""
    if len(per_query_selections) == 0:
        raise InputError("need at least one selection to union")
    out: set[int] = set()
    for selection in per_query_selections:
        out.update(selection)
    return out
