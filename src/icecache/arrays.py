"""Array helpers shared by the page, tree and attention layers, and the
package's one helper thread (`helper`)."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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


_helper: ThreadPoolExecutor | None = None
_helper_lock = threading.Lock()


def helper() -> ThreadPoolExecutor:
    """The package's one helper thread, started on first use.

    NumPy copies, ufuncs and BLAS calls release the interpreter lock, so a
    second thread runs them beside the calling one on a host with two
    cores. A caller shares work with it through one iterator that both
    threads take from, then cancels its task, or waits for it only if it
    started: so no caller waits on a task queued behind another one, or
    behind itself when it runs on the helper. `Engine.prefill` (its slab
    copies), `dci._parent_rows` (its blocks of rows) and
    `Engine.decode_step` (its exact attention pairs) use it; no entry
    point that perfbench traces runs here.
    """
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="icecache-helper")
        return _helper


def _forget_helper() -> None:
    """A forked child has no helper thread, only its parent's record of one."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)
