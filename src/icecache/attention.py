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

import math
from collections.abc import Iterable, Iterator, MutableMapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .arrays import as_ids, distinct
from .errors import InputError


class _WeightView(MutableMapping):
    """Token id -> weight over an output's dense arrays.

    Length and iteration read the id array and must not build the dict:
    the benchmark's checker reads both on every output, and a cached dict
    in the view's place measured slower on clustered-10k decode. The dict
    is built on the first lookup or write, and edits change only the view,
    never the arrays.
    """

    __slots__ = ("_ids", "_weights", "_dict")

    def __init__(self, ids: np.ndarray, weights: np.ndarray):
        self._ids = ids
        self._weights = weights
        self._dict: dict[int, float] | None = None

    def _items(self) -> dict[int, float]:
        if self._dict is None:
            self._dict = dict(zip(self._ids.tolist(), self._weights.tolist()))
        return self._dict

    def __getitem__(self, token_id: int) -> float:
        return self._items()[token_id]

    def __setitem__(self, token_id: int, weight: float) -> None:
        self._items()[token_id] = weight

    def __delitem__(self, token_id: int) -> None:
        del self._items()[token_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist() if self._dict is None else self._dict)

    def __len__(self) -> int:
        return self._ids.size if self._dict is None else len(self._dict)


@dataclass
class AttentionOutput:
    """Attended token ids with their weights (summing to 1), and the
    weighted value vector.

    `weights` maps each attended id to its weight, in attended order.
    """

    token_ids: np.ndarray      # attended ids, in attended order
    dense_weights: np.ndarray  # weight of each attended id, aligned with token_ids
    value_out: np.ndarray
    weights: MutableMapping[int, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights = _WeightView(self.token_ids, self.dense_weights)


def _operands(q, keys, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The query, keys and values as float arrays, or InputError: a 1-D
    query, a non-empty 2-D key matrix with one column per query entry, and
    2-D values with one row per key."""
    q = np.asarray(q, dtype=float)
    k_mat = np.asarray(keys, dtype=float)
    v_mat = np.asarray(values, dtype=float)
    if q.ndim != 1:
        raise InputError(f"the query must be a 1-D vector, got shape {q.shape}")
    if k_mat.ndim != 2 or k_mat.shape[0] == 0:
        raise InputError("keys must be a non-empty sequence of vectors")
    if k_mat.shape[1] != q.size:
        raise InputError(f"dimension mismatch: query {q.size}, keys {k_mat.shape[1]}")
    if v_mat.ndim != 2 or v_mat.shape[0] != k_mat.shape[0]:
        raise InputError(f"{k_mat.shape[0]} keys but values of shape {v_mat.shape}")
    return q, k_mat, v_mat


def full_attention(q, keys, values) -> AttentionOutput:
    """Softmax attention of one query over every key/value pair; the
    output's token ids are the key positions."""
    q, k_mat, v_mat = _operands(q, keys, values)
    return _attend(q, k_mat, v_mat, np.arange(k_mat.shape[0]))


def _attend(q: np.ndarray, k_mat: np.ndarray, v_mat: np.ndarray, ids: np.ndarray
            ) -> AttentionOutput:
    logits = (k_mat @ q) / math.sqrt(q.size)
    logits -= logits.max()
    weights = np.exp(logits)
    weights /= weights.sum()
    ids = ids.view()  # outputs may share the caller's ids; none may write them
    ids.setflags(write=False)
    # np.dot, not `@`: NumPy 2.4's 1-D @ 2-D matmul holds the interpreter
    # lock for its whole run, stalling the other thread; np.dot's gemv
    # releases it and gives the same bits.
    return AttentionOutput(ids, weights, np.dot(weights, v_mat))


def sparse_attention(q, selected_tokens: Iterable[int], keys, values) -> AttentionOutput:
    """Attention restricted to a token selection.

    `keys` and `values` are indexed by token id: row t holds token t. The
    selection must be non-empty, distinct and in range; its rows are
    gathered in the order given, and the weights are renormalized over
    them, so selecting every row reproduces full attention exactly. An
    int64 array is not copied: the output's `token_ids` is a read-only
    view of it.
    """
    ids = as_ids(selected_tokens)
    if ids.ndim != 1 or ids.size == 0:
        raise InputError("the token selection must be a non-empty 1-D id sequence")
    q, k_mat, v_mat = _operands(q, keys, values)
    n = k_mat.shape[0]
    if ids.min() < 0 or ids.max() >= n:
        raise InputError(f"selected token ids must lie in [0, {n})")
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    if np.count_nonzero(seen) != ids.size:
        raise InputError("selected tokens repeat an id")
    return _attend(q, k_mat.take(ids, axis=0), v_mat.take(ids, axis=0), ids)


def gqa_union(per_query_selections: Sequence[Iterable[int]]) -> np.ndarray:
    """Ascending distinct union of the selections of the query heads in one group."""
    if len(per_query_selections) == 0:
        raise InputError("need at least one selection to union")
    return distinct(np.concatenate([as_ids(s) for s in per_query_selections]))
