"""Multi-level clustered index over lifted key embeddings.

Every point draws a level from a geometric distribution (ratio r): level
1 + the number of consecutive uniform draws below r. A point at level l is
present at every level from 1 up to l. At its top level it joins the node
(cluster) of its nearest neighbour one level up; below that it heads its own
chain of singleton-seeded nodes down to a level-1 leaf. Pages list each
leaf's members in order, so every indexed token lives in exactly one leaf
and one page slot. The row arrays and the store's page table are the tree's
only state; node records (`DciTree.nodes`) are read from them.

Levels are drawn for a whole batch at once (`assign_levels`), with the
same results and generator state as one scalar draw per point.

One parent rule serves the batch build and decode-time inserts: a point's
parent is its exact nearest lifted neighbour among the points that reach
one level above its top level. Lifted points are unit vectors, so that is
the candidate of largest inner product (any one of several equal ones),
found by a dense scan (`_parent_rows`): one matmul and one argmax per
block of rows. The build scans every point against all others, still
quadratic in the key count; a page inserted during decode scans each of
its points against the rows before it, so inserting a page equals
inserting its points one at a time.

One writer lays out the levels for both: `DciTree._link` adds buffer rows,
whose top levels and parent rows are set, to every level they reach. The
build links all of its rows in one call; an insert links its page in
stretches that keep node ids equal to one point at a time. Which node holds
a point at a level is read from the row arrays (`DciTree._node_of`).

Queries descend from the virtual root to level 1: at each level the
members of the surviving clusters are ranked by inner product with the
lifted query (on the unit sphere the same order as lifted distance), the
best `beam` survive, and their child nodes are searched next. The
candidates of every level feed one top-k. Every surviving node is scanned
whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_ids, distinct, grown
from .errors import ConfigError, InputError
from .geometry import KeyScale
from .pagestore import INDEXED, TierStore

# The only target level a query takes: descend to level 1, collecting at every level.
SENTINEL_LEVEL = -1

# Owner id of the virtual root's node (the top-level cluster).
ROOT_OWNER = -1

# Effectively unbounded beam.
UNBOUNDED = 2**62

# Points per dot-product block of a parent scan.
PARENT_BLOCK = 256


@dataclass(frozen=True)
class SearchBudget:
    """Work bounds for one query: result count and per-level survivors.
    Every surviving node is scanned whole."""

    k: int
    beam: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.beam < self.k:
            raise ConfigError(f"beam ({self.beam}) must be >= k ({self.k})")

    @property
    def visit_cap(self) -> int:
        """Scored members per node: no node's scan is capped. Kept because
        perfbench's traced run reads it for `dci.nodes_over_visit_cap`; it
        goes when the benchmark drops that metric."""
        return UNBOUNDED

    @classmethod
    def for_k(cls, k: int, beam: int | None = None) -> "SearchBudget":
        return cls(k, beam if beam is not None else 2 * k)

    @classmethod
    def exhaustive(cls, k: int) -> "SearchBudget":
        return cls(k, UNBOUNDED)


def assign_levels(r: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n levels, each 1 + the number of consecutive uniform draws
    below r: the levels of n scalar draws, leaving rng in the same state.

    The draws form one stream in which every draw >= r ends a level. Each
    round draws one uniform per unfinished point, which needs at least one
    more, so the stream is never overdrawn.
    """
    if not 0.0 < r < 1.0:
        raise ConfigError(f"promotion ratio must lie in (0, 1), got {r}")
    ends, drawn, need = [np.zeros(1, dtype=np.int64)], 0, n
    while need:
        stop = np.flatnonzero(rng.random(need) >= r)
        ends.append(drawn + stop + 1)
        drawn += need
        need -= stop.size
    return np.diff(np.concatenate(ends))


@dataclass(frozen=True)
class DciNode:
    """One cluster: the points at `level` sharing the same parent point.

    A record read from the tree's arrays (`DciTree.nodes`), holding no
    reference back to the tree. A leaf's `page_ids` are the pages listing
    its members, ascending (none without a store).
    """

    node_id: int
    level: int
    owner_id: int              # owning point id, ROOT_OWNER for the top node
    parent_id: int | None      # None for the top node
    member_ids: list[int]
    page_ids: list[int]        # leaf nodes only

    @property
    def is_leaf(self) -> bool:
        return self.level == 1


def _nearest(ids: np.ndarray, score: np.ndarray, m: int) -> np.ndarray:
    """Positions of the m smallest (score, id) pairs, smallest first. A
    query's scores are negated inner products, so this ranks nearest first."""
    if score.size > m:
        within = np.flatnonzero(score <= np.partition(score, m - 1)[m - 1])
        return within[np.lexsort((ids[within], score[within]))[:m]]
    return np.lexsort((ids, score))


def _parent_rows(buf: np.ndarray, top: np.ndarray, rows: np.ndarray,
                 earlier: bool = False) -> np.ndarray:
    """Each given row's exact nearest row one level above its top level.

    `buf` holds the lifted points and `top` their top levels, one per row.
    A row at top level l has as candidates the rows of top level above l,
    with `earlier` only those before it; its parent is the candidate
    nearest to it, or -1 if it has none. Every row is a unit vector, so
    |p - c|^2 = 2 - 2 p . c and the nearest candidate is the one of largest
    p . c: `argmax` of one matmul. Among candidates of equal p . c the
    parent is one of them, not always the smallest row: BLAS computes a
    product's edge tiles with other kernels, so equal products may round
    apart either way. The rows of one level go in blocks of PARENT_BLOCK,
    each multiplied against the transposed view of all of that level's
    candidates (BLAS takes the transpose as a flag; a contiguous copy
    measured no faster).
    """
    parent = np.full(rows.size, -1)
    levels = top[rows]
    for lv in np.flatnonzero(np.bincount(levels)).tolist():  # the levels present
        at = np.flatnonzero(levels == lv)
        cands = np.flatnonzero((top[: rows[at].max()] if earlier else top) > lv)
        if not cands.size:
            continue
        cand_t = buf[cands].T
        for a in range(0, at.size, PARENT_BLOCK):
            block = at[a:a + PARENT_BLOCK]
            pts = rows[block]
            dots = buf[pts] @ cand_t
            if earlier:
                dots[cands >= pts[:, None]] = -np.inf
            best = cands[np.argmax(dots, axis=1)]  # all masked: cands[0], not earlier
            parent[block] = np.where(best < pts, best, -1) if earlier else best
    return parent


class DciTree:
    """Per-head hierarchical index with dynamic insertion.

    One tree has one writer; reads are pure. The level draws come from
    the constructor seed, so identical inputs reproduce identical trees.

    Every point has a buffer row: `_top` holds its top level and `_parent`
    the row of its parent point (-1 in the top node). Level l is stored as
    arrays at index l - 1: `_members` holds the rows of every point present
    at that level, grouped by node, and `_start`/`_count`/`_node_id`,
    indexed by the row of the node's owner (a point one level up), give
    where that node's members sit in `_members` and its id. The top node is
    its whole level. A row is in its parent's node at its top level and in
    its own node below (`_node_of`).
    """

    def __init__(self, dim: int, scale: KeyScale, promotion_ratio: float,
                 seed: int | tuple = 0, *, store: TierStore | None = None):
        if not 0.0 < promotion_ratio < 1.0:
            raise ConfigError(f"promotion ratio must lie in (0, 1), got {promotion_ratio}")
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.scale = scale
        self.promotion_ratio = promotion_ratio
        self.store = store

        entropy = np.random.SeedSequence(seed if isinstance(seed, int) else list(seed)).entropy
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(0,)))

        self.levels = 0
        self.top_node_id: int | None = None
        self._row: dict[int, int] = {}          # point id -> row in the point buffer
        self._buf = np.empty((0, dim + 1))
        self._point = np.empty(0, dtype=np.int64)  # row -> point id
        self._top = np.empty(0, dtype=np.intp)     # row -> top level
        self._parent = np.empty(0, dtype=np.intp)  # row -> parent row, -1 in the top node
        self._n = 0
        self._members: list[np.ndarray] = []
        self._start: list[np.ndarray] = []
        self._count: list[np.ndarray] = []
        self._node_id: list[np.ndarray] = []
        self._next_node_id = 0

        self.query_count = 0
        self.distance_evals = 0
        self.scale_clamps = 0

    # -- storage helpers ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def point_ids(self) -> list[int]:
        return self._point[: self._n].tolist()

    @property
    def point_level(self) -> dict[int, int]:
        """Each point's top level, by id."""
        return dict(zip(self.point_ids, self._top[: self._n].tolist()))

    @property
    def nodes(self) -> dict[int, DciNode]:
        """Every node by ascending id, read from the level arrays: each row
        present at level l + 1 owns one node at level l, and the top node is
        its whole level. A leaf's pages are its members' pages in the store."""
        found = [(self.top_node_id, self.levels, ROOT_OWNER, None, self._members[-1])] \
            if self.levels else []
        for lv in range(1, self.levels):
            owners, members = self._members[lv], self._members[lv - 1]
            found += [(i, lv, owner, parent, members[a:a + c]) for i, owner, parent, a, c in zip(
                self._node_id[lv - 1][owners].tolist(), self._point[owners].tolist(),
                self._node_of(owners, lv + 1).tolist(), self._start[lv - 1][owners].tolist(),
                self._count[lv - 1][owners].tolist())]
        return {i: DciNode(i, lv, owner, parent, self._point[rows].tolist(),
                           sorted(set(self.store.page_of[self._point[rows]].tolist()))
                           if lv == 1 and self.store is not None else [])
                for i, lv, owner, parent, rows in sorted(found, key=lambda f: f[0])}

    def _reserve(self, rows: int) -> None:
        """Grow every row-indexed array to hold `rows` points: exactly
        that many on an empty tree, and by at least doubling later."""
        cap = self._buf.shape[0]
        if rows <= cap:
            return
        cap = max(rows, 2 * cap)
        self._buf = grown(self._buf, cap)
        self._point = grown(self._point, cap)
        self._top = grown(self._top, cap)
        self._parent = grown(self._parent, cap)
        self._start = [grown(a, cap) for a in self._start]
        self._count = [grown(a, cap) for a in self._count]
        self._node_id = [grown(a, cap) for a in self._node_id]

    def _add_level(self) -> None:
        self._members.append(np.empty(0, dtype=np.intp))
        for arrays in (self._start, self._count, self._node_id):
            arrays.append(np.zeros(self._buf.shape[0], dtype=np.intp))
        self.levels += 1

    def lifted(self, point_id: int) -> np.ndarray:
        return self._buf[self._row[point_id]]

    def _lift_clamped(self, keys: np.ndarray, first: int) -> None:
        """Lift key rows into the buffer from row `first` on, normalizing
        out-of-envelope norms instead of failing.

        A key with |k| > c maps to [k/|k|, 0], which keeps the image on the
        unit sphere at the cost of a slightly perturbed ordering; the event
        is counted in scale_clamps. Non-finite keys are rejected before any
        row or count changes.
        """
        if not np.isfinite(keys).all():
            raise InputError("key contains non-finite coordinates")
        norms = np.linalg.norm(keys, axis=1)
        over = norms > self.scale.c
        self.scale_clamps += int(over.sum())
        safe_norms = np.where(over, norms, self.scale.c)
        out = self._buf[first: first + len(keys)]
        np.divide(keys, safe_norms[:, None], out=out[:, :-1])
        out[:, -1] = np.sqrt(np.maximum(0.0, 1.0 - (norms / safe_norms) ** 2))

    def _add_rows(self, ids, keys: np.ndarray, top, *, earlier: bool) -> np.ndarray:
        """Give points the buffer rows after the last one: lifted keys, ids,
        top levels and parents (`_parent_rows`). Returns the rows. Ids a
        store cannot list and non-finite keys fail before any row is added."""
        if self.store is not None:
            self.store.check_unlisted(ids)
        first = self._n
        rows = np.arange(first, first + len(keys))
        self._reserve(first + rows.size)
        self._lift_clamped(keys, first)
        self._point[rows] = ids
        self._top[rows] = top
        self._row.update(zip(self._point[rows].tolist(), rows.tolist()))
        self._n += rows.size
        self._parent[rows] = _parent_rows(self._buf[: self._n], self._top[: self._n], rows,
                                          earlier=earlier)
        return rows

    # -- node helpers -----------------------------------------------------

    def _node_of(self, rows, level: int):
        """The id of the node holding each given row at `level`, where the
        rows must be present."""
        if level == self.levels:
            return np.full(np.shape(rows), self.top_node_id)
        owner = np.where(self._top[rows] == level, self._parent[rows], rows)
        return self._node_id[level - 1][owner]

    def _link(self, rows: np.ndarray) -> None:
        """Add ascending buffer rows, whose `_top` and `_parent` are set, to
        every level they reach, top down.

        At its top level a row joins its parent's node (the top node for
        parent -1), below that its own node. Members go to the end of their
        node's slice in row order; new nodes go to the end of their level in
        order of first row, with ids counting up level by level. If the rows
        reach above the tree, the first row at their highest level tops it
        before any row is linked (`_grow`); on a tree that has a top node,
        that row must come first.
        """
        top = self._top[rows]
        high = int(top.max())
        if high > self.levels:
            self._grow(int(rows[top.argmax()]))
        parent = self._parent[rows]
        for lv in range(high, 0, -1):
            at = top >= lv
            joins = rows[at]
            members = self._members[lv - 1]
            if lv == self.levels:
                if not members.size:
                    self.top_node_id = self._next_node_id
                    self._next_node_id += 1
                self._members[lv - 1] = np.concatenate((members, joins))
                continue
            owner = np.where(top[at] == lv, parent[at], joins)
            start, count = self._start[lv - 1], self._count[lv - 1]
            old = count[owner] > 0
            if old.any():
                # One np.insert at the slices' current ends (equal positions
                # keep row order) and one shift of the later slices' starts.
                pos = start[owner[old]] + count[owner[old]]
                np.add.at(count, owner[old], 1)
                heads = self._members[lv]  # every row one level up owns a node here
                start[heads] += np.searchsorted(np.sort(pos), start[heads], side="right")
                members = np.insert(members, pos, joins[old])
            if not old.all():
                new = ~old
                owners, first, group = np.unique(owner[new], return_index=True,
                                                 return_inverse=True)
                rank = np.argsort(first)  # node order: first row
                counts = np.bincount(group)[rank]
                owners = owners[rank]
                start[owners] = members.size + np.cumsum(counts) - counts
                count[owners] = counts
                self._node_id[lv - 1][owners] = np.arange(owners.size) + self._next_node_id
                self._next_node_id += owners.size
                members = np.concatenate(
                    (members, joins[new][np.argsort(first[group], kind="stable")]))
            self._members[lv - 1] = members

    def _grow(self, row: int) -> None:
        """Raise the tree to the row's top level. The former top node becomes
        the row's node at the former top level, its points the row's children."""
        old = self.levels
        while self.levels < self._top[row]:
            self._add_level()
        if old:
            members = self._members[old - 1]
            self._parent[members] = row
            self._start[old - 1][row] = 0
            self._count[old - 1][row] = members.size
            self._node_id[old - 1][row] = self.top_node_id

    # -- search -------------------------------------------------------------

    def query(self, q_vec: np.ndarray, target_level: int, k: int,
              budget: SearchBudget | None = None) -> list[int]:
        """Descend the tree to level 1 and return up to k point ids, those
        whose lifted points have the largest inner product with q_vec found
        on the way, best first, ties toward the smaller id. target_level
        must be SENTINEL_LEVEL.

        Each level is one gather and one product pass over the members of
        the surviving nodes, scored by negated inner product; the `beam`
        best own the nodes searched one level down. The candidates of every
        level are ranked once, a point found at several levels once.
        `distance_evals` counts the scored candidates.
        """
        if k < 1:
            raise InputError(f"k must be >= 1, got {k}")
        if self.levels == 0:
            raise InputError("query on an empty tree")
        if target_level != SENTINEL_LEVEL:
            raise InputError(f"target level must be {SENTINEL_LEVEL}, got {target_level}")
        if budget is None:
            budget = SearchBudget.for_k(k)
        q = np.asarray(q_vec)
        self.query_count += 1

        found_ids: list[np.ndarray] = []
        found_scores: list[np.ndarray] = []
        rows = self._members[-1]  # the top node is its whole level
        for level in range(self.levels, 0, -1):
            ids = self._point[rows]
            # einsum, not `@`: BLAS gemv scores a call's last rows with
            # another kernel, so equal rows could get unequal scores.
            score = -np.einsum("ij,j->i", self._buf.take(rows, axis=0), q)
            self.distance_evals += rows.size
            found_ids.append(ids)
            found_scores.append(score)
            if level > 1:  # the members of the survivors' nodes one level down
                owners = rows[_nearest(ids, score, budget.beam)]
                starts = self._start[level - 2][owners]
                counts = self._count[level - 2][owners]
                ends = np.cumsum(counts)
                rows = self._members[level - 2][
                    np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)]

        # A point found at several levels has one row, so one score: its
        # copies rank side by side, and the best k x levels hold k points.
        ids = np.concatenate(found_ids)
        ids = ids[_nearest(ids, np.concatenate(found_scores), k * self.levels)]
        return ids[np.concatenate(([True], ids[1:] != ids[:-1]))][:k].tolist()

    # -- page placement -----------------------------------------------------

    def _place(self, rows: np.ndarray) -> None:
        """Give linked rows' ids page slots, taking the rows in the given
        order, in which each leaf's given rows are its last members: an id
        whose position in its leaf is a multiple of page_size opens a page,
        and every other id joins the page of the id before it in its leaf.
        New pages open in one call, in the order of the ids opening them."""
        store = self.store
        if store is None or not rows.size:
            return
        owner = np.where(self._top[rows] == 1, self._parent[rows], rows)  # -1: the top node
        start, size = (self._start[0], self._count[0]) if self.levels > 1 else \
            (np.zeros(1, dtype=np.intp), np.array([self._members[0].size]))  # owner -1 reads these
        order = np.argsort(owner, kind="stable")  # leaf by leaf, given order within
        leaf, at = owner[order], np.arange(rows.size)
        pos = size[leaf] - np.searchsorted(leaf, leaf, side="right") + at  # place in the leaf
        slot = pos % store.page_size
        fresh = at - slot >= np.searchsorted(leaf, leaf)  # the page opens in this call
        ids = self._point[rows[order]]
        opener = order[(at - slot)[fresh]]  # given place of the id opening a new page
        counts = np.bincount(opener)
        # The ids were checked before any row was added (`_add_rows`).
        store._open(ids[fresh][np.argsort(opener, kind="stable")], counts[counts > 0], INDEXED)
        first = self._members[0][(start[leaf] + pos - slot)[~fresh]]  # opened the page earlier
        store._join(store.page_of[self._point[first]], ids[~fresh])

    # -- dynamic insertion ----------------------------------------------------

    def insert(self, point_id, key, *, level=None):
        """Insert keys during decode; returns the levels assigned.

        A scalar id with a 1-D key inserts one point and returns its level.
        A sequence of ids with one key row each inserts them in order and
        returns their levels: the same tree, pages and counters as inserting
        them one at a time. Levels are drawn from the tree's stream, all
        before any insert, unless given. A point's parent is its exact
        nearest point one level up among those inserted before it, found for
        the whole call by one `_parent_rows` scan; `_place` gives its id a
        page slot. A draw above the current top level grows the tree and
        re-parents the former top-level points to the newcomer. A batch
        failing a check (an id already indexed or listed by a page, a
        bad key or level) leaves the tree and store unchanged.

        The points go to `_link` in stretches, each ending before the next
        point that reaches level 3 or grows the tree: within a stretch only
        its first point opens nodes above level 1 or grows the tree, so the
        level-by-level node ids equal those of one `_link` per point.
        """
        single = np.ndim(point_id) == 0
        pids = as_ids(np.atleast_1d(point_id))
        ids = pids.tolist()
        keys = np.asarray(key, dtype=float)
        shape = (self.dim,) if single else (len(ids), self.dim)
        if keys.shape != shape:
            raise InputError(f"key must have shape {shape}, got {keys.shape}")
        for pid in ids:
            if pid in self._row:
                raise InputError(f"point id {pid} already indexed")
        if len(set(ids)) != len(ids):
            raise InputError("duplicate point ids in one insert")
        if level is None:
            levels = assign_levels(self.promotion_ratio, self.rng, len(ids)).tolist()
        else:
            levels = [int(lv) for lv in np.atleast_1d(level)]
            if len(levels) != len(ids) or min(levels, default=1) < 1:
                raise InputError(f"need one level >= 1 per point id, got {level}")

        rows = self._add_rows(pids, keys.reshape(len(ids), self.dim), levels, earlier=True)
        starts, height = [], self.levels
        for i, lv in enumerate(levels):
            if not i or lv >= 3 or lv > height:
                starts.append(i)
            height = max(height, lv)
        for a, b in zip(starts, starts[1:] + [len(ids)]):
            self._link(rows[a:b])
        self._place(rows)
        return levels[0] if single else levels

    # -- integrity ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Full structural walk; raises AssertionError on violation."""
        assert self.levels >= 1 and self.top_node_id is not None
        assert len(self._members) == self.levels, "level arrays != levels"
        nodes, store = self.nodes, self.store
        points, top = self._point[: self._n], self._top[: self._n]
        seen_levels = {node.level for node in nodes.values()}
        assert seen_levels == set(range(1, self.levels + 1)), "empty level present"
        slices: dict[int, list[tuple[int, int]]] = {lv: [] for lv in seen_levels}
        for node in nodes.values():
            members = node.member_ids
            assert members, f"empty node {node.node_id}"
            rows = np.array([self._row[pid] for pid in members])
            offset = 0 if node.owner_id == ROOT_OWNER else \
                int(self._start[node.level - 1][self._row[node.owner_id]])
            slices[node.level].append((offset, rows.size))
            assert (self._node_of(rows, node.level) == node.node_id).all(), \
                "membership disagrees with the level arrays"
            if node.node_id == self.top_node_id:
                assert node.parent_id is None and node.owner_id == ROOT_OWNER
            else:
                parent = nodes[node.parent_id]
                assert parent.level == node.level + 1, "parent not one level up"
                assert node.owner_id in parent.member_ids, "owner missing from parent"
            if node.is_leaf and store is not None:  # the rule `_place` keeps
                pages, listed = np.asarray(node.page_ids), store.page_of[members]
                assert (store.fill[pages[:-1]] == store.page_size).all(), \
                    "a leaf's inner page is not full"
                assert (listed == pages[np.arange(listed.size) // store.page_size]).all(), \
                    "page j (pages ascending) does not list members from j * page_size on"
                assert store.tokens_in(pages).tolist() == members, \
                    "pages do not list the leaf's members in order"
        for lv, spans in slices.items():
            # The nodes of a level tile its member array exactly.
            spans.sort()
            ends = np.cumsum([count for _, count in spans]).tolist()
            assert [start for start, _ in spans] == [0] + ends[:-1], \
                f"node slices overlap or leave gaps at level {lv}"
            assert ends[-1] == self._members[lv - 1].size, f"stray rows at level {lv}"
            assert np.array_equal(np.sort(self._point[self._members[lv - 1]]),
                                  np.sort(points[top >= lv])), f"level {lv} holds the wrong points"
            held = np.unique(self._node_of(np.flatnonzero(top >= lv), lv)).tolist()
            assert all(i in nodes and nodes[i].level == lv for i in held), \
                "missing level copy"
        leaf_members = [pid for node in nodes.values() if node.is_leaf for pid in node.member_ids]
        assert sorted(leaf_members) == sorted(points.tolist()), "leaf coverage broken"
        assert len(set(leaf_members)) == len(leaf_members), "duplicate leaf membership"


def dci_indexing(ids, keys, promotion_ratio: float, seed: int | tuple = 0, *,
                 store: TierStore | None = None, scale: KeyScale | None = None,
                 rows: int = 0) -> DciTree:
    """Batch-build a tree over point ids and their key rows.

    Levels are drawn for every point first and empty levels removed; then
    each point's parent is its exact nearest lifted neighbour one level up
    (`_parent_rows`, the same result as an exhaustive-budget tree query,
    orders of magnitude faster), and one `_link` call writes every level:
    each level's nodes are ordered by their first point in the input, and
    their members keep input order. With a store, one `_place` call lists
    every leaf's members in pages, opened in leaf order. The tree reserves
    room for `rows` points (at least the input), so inserts up to that count
    never regrow it.
    """
    ids = as_ids(ids)
    mat = np.asarray(keys, dtype=float)
    if not ids.size:
        raise InputError("cannot index an empty key set")
    if mat.ndim != 2 or len(mat) != ids.size:
        raise InputError(f"need one key row per point id, got keys of shape {mat.shape}")
    if distinct(ids).size != ids.size:
        raise InputError("duplicate point ids in index input")

    if scale is None:
        scale = KeyScale.from_keys(mat)
    tree = DciTree(mat.shape[1], scale, promotion_ratio, seed, store=store)
    drawn = assign_levels(promotion_ratio, tree.rng, ids.size)
    top = np.searchsorted(distinct(drawn), drawn) + 1  # levels compacted: none is empty
    tree._reserve(max(ids.size, rows))
    tree._link(tree._add_rows(ids, mat, top, earlier=False))
    tree._place(tree._members[0])
    return tree
