"""Span recorder for the traced run.

`SpanRecorder.install()` replaces the public entry points of each layer at
the names `icecache.engine` calls them by, so the engine's own call graph
is recorded without touching its source. Each span holds name, start, end,
parent span and step id; a `DciTree.query` issued inside `DciTree.insert`
is therefore a child of the insert and counts as insert work. Spans stay in
memory; `write()` dumps them when the run ends. A span's self time is its
duration minus its children's durations (one thread, so children never
overlap).

A `note` hook may keep references to a call's arguments and result for
counts taken at the same boundary. It runs after the span has closed and
must stay O(1): it still runs inside the parent span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np

import icecache.engine as engine_mod

Note = Callable[[tuple, object], object]


def _distance_note():
    """Distance evaluations and searched point count of each `DciTree.query`.

    The tree's counter only grows inside queries, and queries on one tree
    never interleave, so the change since the tree's previous query is this
    query's count. `len(tree)` is taken at the same moment, because the
    tree grows later in the run.
    """
    last: dict[int, int] = {}

    def note(args, result):
        tree, q_vec, _, k = args[:4]
        now = tree.distance_evals
        delta = now - last.get(id(tree), 0)
        last[id(tree)] = now
        return tree, q_vec, k, result, delta, len(tree)
    return note


def _entry_points() -> list[tuple[object, str, str, Note | None]]:
    """(owner, attribute, span name, note) for every traced entry point."""
    return [
        (engine_mod.Engine, "prefill", "engine.prefill", None),
        (engine_mod.Engine, "decode_step", "engine.decode_step", None),
        (engine_mod, "dci_indexing", "dci.build", None),
        (engine_mod.DciTree, "query", "dci.query", _distance_note()),
        (engine_mod.DciTree, "insert", "dci.insert", None),
        (engine_mod.TierStore, "backload", "pagestore.backload",
         lambda args, result: (len(args[1]), result)),
        (engine_mod.TierStore, "offload", "pagestore.offload", None),
        (engine_mod, "find_page_index", "pagestore.find_page_index",
         lambda args, result: (len(args[0]), len(result))),
        (engine_mod, "full_attention", "attention.full", None),
        (engine_mod, "sparse_attention", "attention.sparse",
         lambda args, result: len(args[1])),
        (engine_mod, "transform_query", "geometry.transform_query", None),
    ]


class SpanRecorder:
    """In-memory spans of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.notes: dict[int, object] = {}
        self.step_id = -1           # set by the decode loop; -1 during set-up
        self._stack: list[int] = []
        self._points = _entry_points()  # notes keep state across installs

    def wrap(self, name: str, fn: Callable, note: Note | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.step.append(self.step_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if note is not None:
                self.notes[idx] = note(args, result)
            return result
        return traced

    @contextmanager
    def install(self):
        """Trace every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, note in self._points:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(names, durations, self times, parents) as arrays."""
        names = np.asarray(self.names)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(names))
        return names, dur, dur - child_sum, parent

    def overlap_violations(self) -> int:
        """Spans whose children's durations exceed their own duration."""
        self_time = self.arrays()[2]
        return int((self_time < -1e-9).sum())

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, step."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start": self.start[i],
                                     "end": self.end[i], "parent": self.parent[i],
                                     "step": self.step[i]}) + "\n")
