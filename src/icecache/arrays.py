"""Array helpers shared by the page, tree and attention layers, and the
package's one helper thread (`helper`) with the one way to share work with
it (`shared`)."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

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

    On a host with two cores it runs beside the calling thread only in
    NumPy calls that release the interpreter lock. On NumPy 2.4, copies,
    `np.isfinite`, `take`, `exp`, fancy-index gathers, `argmax`, 2-D @ 1-D
    and 2-D @ 2-D matmuls and `np.dot` of a vector and a matrix were
    measured to release it; a 1-D @ 2-D matmul holds it for its whole run,
    so no work shared here calls one (`tests/test_attention.py` checks
    each kernel the helper runs). Work reaches it only through `shared`.
    No entry point that perfbench traces runs here.
    """
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="icecache-helper")
        return _helper


@contextmanager
def shared(work: Callable[[Iterator], object], items: Sequence) -> Iterator[Iterator]:
    """Share `items` between the calling thread and the helper thread.

    With two or more items, `work` runs on the helper over one iterator of
    them (each next() on it is atomic), and the block gets that same
    iterator and must drain it; with fewer, nothing is submitted and the
    block gets them all. On exit the helper's task is cancelled if it has
    not started, or else waited for, so no block waits on a task queued
    behind another one, or behind itself when entered on the helper, and
    no work outlives the block. If the block raised, its own error passes
    on once the helper is done; otherwise the helper's error, if any, is
    raised. Each item is the same work on either thread, so results equal
    a one-thread loop's. `Engine.prefill` (its slab copies),
    `dci._parent_rows` (its blocks of rows) and `Engine.decode_step` (its
    exact attention pairs) share their work this way.
    """
    rest = iter(items)
    task = helper().submit(work, rest) if len(items) > 1 else None
    raised = True
    try:
        yield rest
        raised = False
    finally:
        if task is not None and not task.cancel():  # started: wait for the item it holds
            if raised:
                task.exception()
            else:
                task.result()


def _forget_helper() -> None:
    """A forked child has no helper thread, only its parent's record of one."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)
