"""Array helpers shared by the page, tree and attention layers."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InputError


def as_ids(values: Iterable[int]) -> np.ndarray:
    """Token or page ids as an int64 array; an int64 array is used as it is.
    InputError for float or bool ids, which a cast would truncate."""
    ids = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    if ids.size and ids.dtype.kind not in "iu":
        raise InputError(f"ids must be integers, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def grown(arr: np.ndarray, rows: int, fill=0) -> np.ndarray:
    """A copy of a row-indexed array with `rows` rows, new rows set to `fill`."""
    out = np.full((rows,) + arr.shape[1:], fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


def distinct(values: np.ndarray) -> np.ndarray:
    """The ascending distinct values of a 1-D array: `np.unique` by one sort
    and a neighbour compare, without its per-call overhead."""
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]
