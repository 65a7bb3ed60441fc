"""Multi-level clustered index over lifted key embeddings.

Every point draws a level from a geometric distribution (ratio r): level
1 + the number of consecutive uniform draws below r. A point at level l is
present at every level from 1 up to l. At its top level it joins the node
(cluster) of its nearest neighbour one level up; below that it heads its own
chain of singleton-seeded nodes down to a level-1 leaf. Every tree pages
its points: pages list each leaf's members in order, so every indexed token
lives in exactly one leaf and one page slot. The row arrays and the store's
page table are the tree's only state; node records (`DciTree.nodes`) are
read from them. A batch is checked once (`DciTree._check`) before any level
is drawn, so a rejected batch leaves the tree, its store and its level
stream as they were.

Levels are drawn for a whole batch at once (`assign_levels`), with the
same results and generator state as one scalar draw per point.

Lifted points are held in float32 (`DciTree._buf`), written in place by
`geometry.lift_keys`, which clamps keys past the scale onto the unit
sphere; a query multiplies each row's score by its length s / c
(`DciTree._length`), so keys rank by their true inner product. The index
only ranks tokens, and exact attention reads the engine's float64 keys and
values, so the rows need only order candidates; float32 halves the bytes
that the build's parent scan, inserts and queries read. Two candidates
whose float64 inner products differ by less than float32 resolution (about
1e-7) may rank either way.

Points enter the tree one way, `DciTree.insert`; a build
(`dci_indexing`) is one insert into an empty tree. An inserted point's
parent is its exact nearest lifted neighbour among the points that reach
one level above its top level once its batch is in. Lifted points are
unit vectors, so that is the candidate of largest inner product (any one
of several equal ones), found by a dense scan (`_parent_rows`): one
float32 matmul and one argmax per block of rows, the blocks of a large
level shared with the package's helper thread. A build scans every
point against all others, still quadratic in the key count; a page
inserted during decode scans its points against the tree's rows above
them. Points already in the tree keep their parents, except that a batch
reaching above the tree gives the former top node to its first such
point.

`DciTree._link` adds an insert's buffer rows, whose top levels and parent
rows are set, to every level they reach, in one call that first grows the
tree to their highest level. A node is named by its owner, the
point one level up whose children it holds (`ROOT_OWNER` for the top
node), so a node's name does not depend on how its points were batched.
Which node holds a point at a level is read from the row arrays
(`DciTree._node_of`). Each level keeps its rows sorted by (owner row, row),
so a node is one run of its level and a binary search finds it. `_link`
returns where level 1 put each row, and `DciTree._place` takes page slots
from those places.

Queries descend to level 1 from the highest level holding more than
`2 * beam` points, scanned whole: at each level the members of the
surviving clusters are ranked by inner product with the lifted query (on
the unit sphere the same order as lifted distance), the best `beam`
survive, and their child nodes are searched next. The top k come from the
level-1 candidates alone. Every surviving node is scanned whole. A level
whose beam keeps half of it or more gathers about as large a share of the
level below, so a coarse level is searched only where it cuts the scan;
level 1, stored in place (`_buf`'s rows), is scanned with no gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_ids, grown, shared
from .errors import ConfigError, InputError
from .geometry import KeyScale, lift_keys
from .pagestore import TierStore

# The only target level a query takes: descend to level 1 and rank its candidates.
SENTINEL_LEVEL = -1

# Owner id of the virtual root's node (the top-level cluster).
ROOT_OWNER = -1

# Effectively unbounded beam.
UNBOUNDED = 2**62

# Points per dot-product block of a parent scan. In float32, 256 and 512
# built 10k to 100k clustered keys equally fast; 1024 and 2048 were slower.
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
    def for_k(cls, k: int) -> "SearchBudget":
        return cls(k, 2 * k)

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
    """One cluster: the points at `level` sharing the same parent point,
    its owner.

    A record read from the tree's arrays (`DciTree.nodes`, keyed by
    `(level, owner_id)`), holding no reference back to the tree. Its parent
    node is `(level + 1, parent_owner)`. A leaf's `page_ids` are the pages
    listing its members, ascending.
    """

    level: int
    owner_id: int              # owning point id, ROOT_OWNER for the top node
    parent_owner: int | None   # the parent node's owner_id, None for the top node
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


def _parent_rows(buf: np.ndarray, top: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each given row's exact nearest row one level above its top level.

    `buf` holds the lifted points and `top` their top levels, one per row.
    A row at top level l has as candidates every row of top level above l;
    its parent is the candidate nearest to it, or -1 if it has none. Every
    row is a unit vector, so
    |p - c|^2 = 2 - 2 p . c and the nearest candidate is the one of largest
    p . c: `argmax` of one matmul, in float32 as `buf` is. Among
    candidates of equal p . c the parent is one of them, not always the
    smallest row: BLAS computes a product's edge tiles with other kernels,
    so equal products may round apart either way. The rows of one level go
    in blocks of PARENT_BLOCK, each multiplied against the transposed view
    of all of that level's candidates (BLAS takes the transpose as a flag;
    a contiguous copy measured no faster in float32 either: within noise on
    builds of 10k to 100k keys, and slower on page inserts).

    A level of more than one block is scanned by this thread and the
    package's helper thread at once, both taking blocks from one iterator
    (`arrays.shared`); a block is the same product on either thread, so
    the parents are those of a one-thread loop, and a page insert (one
    page of rows) scans on this thread alone.
    """
    parent = np.full(rows.size, -1)
    levels = top[rows]
    for lv in np.flatnonzero(np.bincount(levels)).tolist():  # the levels present
        at = np.flatnonzero(levels == lv)
        cands = np.flatnonzero(top > lv)
        if not cands.size:
            continue
        cand_t = buf[cands].T

        def scan(blocks):  # runs, and is waited for, within this level
            for a in blocks:
                block = at[a:a + PARENT_BLOCK]
                parent[block] = cands[np.argmax(buf[rows[block]] @ cand_t, axis=1)]
        with shared(scan, range(0, at.size, PARENT_BLOCK)) as rest:
            scan(rest)
    return parent


class DciTree:
    """Per-head hierarchical index with dynamic insertion.

    One tree has one writer; reads are pure. The level draws come from
    the constructor seed, so identical inputs reproduce identical trees.
    Its pages live in `store`; a tree built without one makes its own
    `TierStore(dim, dim)`.

    Every point has a buffer row: `_top` holds its top level and `_parent`
    the row of its parent point (-1 in the top node). Level l is stored as
    two parallel arrays at index l - 1: `_members` holds the rows of every
    point present at that level and `_owners` the row of the owner of each
    one's node (a point one level up, -1 for the top node, which is owned by
    no point: `ROOT_OWNER`), sorted by (owner row, row). A node is named by
    its owner, and its members are the run of its owner's row in `_owners`.
    A row is in its parent's node at its top level and in its own node
    below (`_node_of`).
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
        self.store = store if store is not None else TierStore(dim, dim)

        entropy = np.random.SeedSequence(seed if isinstance(seed, int) else list(seed)).entropy
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(0,)))

        self._buf = np.empty((0, dim + 1), dtype=np.float32)  # lifted rows
        self._point = np.empty(0, dtype=np.int64)  # row -> point id
        self._top = np.empty(0, dtype=np.intp)     # row -> top level
        self._parent = np.empty(0, dtype=np.intp)  # row -> parent row, -1 in the top node
        self._length = np.empty(0, dtype=np.float32)  # row -> key length s / c, >= 1
        self._n = 0
        self._members: list[np.ndarray] = []
        self._owners: list[np.ndarray] = []

        self.query_count = 0
        self.distance_evals = 0
        self.scale_clamps = 0

    # -- storage helpers ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def levels(self) -> int:
        """The tree's height: one level array pair per level, 0 when empty."""
        return len(self._members)

    @property
    def point_ids(self) -> list[int]:
        return self._point[: self._n].tolist()

    @property
    def point_level(self) -> dict[int, int]:
        """Each point's top level, by id."""
        return dict(zip(self.point_ids, self._top[: self._n].tolist()))

    @property
    def nodes(self) -> dict[tuple[int, int], DciNode]:
        """Every node by ascending (level, owner id), read from the level
        arrays: each run of equal owners is one node. A leaf's pages are its
        members' pages in the store."""
        found = []
        for lv in range(1, self.levels + 1):
            heads, first = np.unique(self._owners[lv - 1], return_index=True)
            parents = self._ids(self._node_of(heads, lv + 1)).tolist() if lv < self.levels \
                else [None] * heads.size
            found += zip([lv] * heads.size, self._ids(heads).tolist(), parents,
                         np.split(self._members[lv - 1], first[1:]))
        return {(lv, owner): DciNode(lv, owner, parent, self._point[rows].tolist(),
                                     sorted(set(self.store.page_of[self._point[rows]].tolist()))
                                     if lv == 1 else [])
                for lv, owner, parent, rows in sorted(found, key=lambda f: f[:2])}

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
        self._length = grown(self._length, cap)

    def _ids(self, rows: np.ndarray) -> np.ndarray:
        """The point ids of owner rows, ROOT_OWNER for row -1."""
        return np.where(rows < 0, ROOT_OWNER, self._point[rows])

    def _check(self, ids: np.ndarray, keys: np.ndarray) -> None:
        """InputError unless every key is finite and the store can list the
        ids (distinct, >= 0 and in no page, so not yet indexed). Runs before
        any level is drawn or any row is added; only `_place` then writes
        the store, so a rejected batch leaves it as it was."""
        if not np.isfinite(keys).all():
            raise InputError("key contains non-finite coordinates")
        self.store.check_unlisted(ids)

    def _add_rows(self, ids, keys: np.ndarray, top) -> np.ndarray:
        """Give points the buffer rows after the last one: keys lifted in
        place (`lift_keys`) with their lengths, ids, top levels and parents
        (`_parent_rows`); rows longer than 1 add to `scale_clamps`. Returns
        the rows. The batch passed `_check`."""
        first = self._n
        rows = np.arange(first, first + len(keys))
        self._reserve(first + rows.size)
        length = self._length[rows] = lift_keys(keys, self.scale,
                                                self._buf[first:first + rows.size])
        self.scale_clamps += int((length > 1).sum())
        self._point[rows] = ids
        self._top[rows] = top
        self._n += rows.size
        self._parent[rows] = _parent_rows(self._buf[: self._n], self._top[: self._n], rows)
        return rows

    # -- node helpers -----------------------------------------------------

    def _node_of(self, rows, level: int):
        """The owner row of the node holding each given row at `level`, where
        the rows must be present: its parent at its top level, itself below.
        At the top level that is -1, the top node's (`ROOT_OWNER`)."""
        return np.where(self._top[rows] == level, self._parent[rows], rows)

    def _link(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add buffer rows, ascending and after every linked row, whose `_top`
        and `_parent` are set, to every level they reach; returns the rows
        in (owner, row) order with their places in level 1, for `_place`.
        The rows must not be empty.

        At its top level a row joins its parent's node (the top node for
        parent -1), below that its own node. Each row goes after the last
        member of its node, found by one binary search over the level's
        owners; rows joining one node keep row order (equal insert positions
        keep the order given), so the (owner, row) pairs still ascend and
        the i-th row inserted lands at its insert position plus i. If the
        rows reach above the tree, it grows to their highest level before
        any row is linked, and the first row above the former top level
        takes over the former top node (`_grow`).
        """
        top = self._top[rows]
        high = int(top.max())
        if high > self.levels:
            self._grow(int(rows[np.argmax(top > self.levels)]), high)
        for lv in range(high, 0, -1):
            joins = rows[top >= lv]
            owner = self._node_of(joins, lv)
            order = np.argsort(owner, kind="stable")  # by (owner, row): the rows ascend
            joins, owner = joins[order], owner[order]
            pos = np.searchsorted(self._owners[lv - 1], owner, side="right")
            self._owners[lv - 1] = np.insert(self._owners[lv - 1], pos, owner)
            self._members[lv - 1] = np.insert(self._members[lv - 1], pos, joins)
        return joins, pos + np.arange(joins.size)

    def _grow(self, row: int, high: int) -> None:
        """Raise the tree to `high` levels. The former top node becomes the
        row's node at the former top level, its points the row's children."""
        old = self.levels
        self._members += [np.empty(0, dtype=np.intp) for _ in range(high - old)]
        self._owners += [np.empty(0, dtype=np.intp) for _ in range(high - old)]
        if old:
            self._parent[self._members[old - 1]] = row
            self._owners[old - 1][:] = row

    # -- search -------------------------------------------------------------

    def query(self, q_vec: np.ndarray, target_level: int, k: int,
              budget: SearchBudget | None = None) -> np.ndarray:
        """Descend the tree to level 1 and return up to k point ids, as a
        fresh int64 array: the level-1 candidates whose lifted rows times
        their lengths have the largest inner product with q_vec (dim + 1
        finite coordinates, rounded once to float32 as the rows are), best
        first, ties toward the smaller id.
        k lies in [1, beam]; target_level must be SENTINEL_LEVEL.

        The descent starts at the highest level holding more than
        `2 * beam` points, scanned whole: a level above it would keep half
        of itself or more, so gather about that share of the level below,
        and its points are members of the start level. Each level is one
        gather and one product pass over the members of the surviving
        nodes, scored by negated inner product; the `beam` best own the
        nodes searched one level down, whose members one mask over that
        level's owners picks out. A point among a level's k best survives
        the beam and is a member of its own node below, so no level above 1
        adds to the result. `distance_evals` counts the scored candidates.
        Level 1 is the only level stored in place: a level-1 start scans it
        with no gather and is exact.
        """
        if k < 1 or (budget is not None and k > budget.beam):
            raise InputError(f"k must lie in [1, beam], got {k}")
        if self.levels == 0:
            raise InputError("query on an empty tree")
        if target_level != SENTINEL_LEVEL:
            raise InputError(f"target level must be {SENTINEL_LEVEL}, got {target_level}")
        q = np.asarray(q_vec)
        if q.shape != (self.dim + 1,) or not np.isfinite(q).all():
            raise InputError(f"query must be {self.dim + 1} finite coordinates")
        if budget is None:
            budget = SearchBudget.for_k(k)
        self.query_count += 1

        q = q.astype(np.float32)
        top = max(1, sum(members.size > 2 * budget.beam for members in self._members))
        # Level sizes shrink upward: top is the last over 2 * beam. Level 1 sits in place.
        rows = slice(self._n) if top == 1 else self._members[top - 1]
        for level in range(top, 0, -1):
            ids = self._point[rows]
            # einsum, not `@`: BLAS gemv scores a call's last rows with
            # another kernel, so equal rows could get unequal scores. One
            # expression frees the gathered rows before the next gather.
            score = -np.einsum("ij,j->i", self._buf[rows] if top == 1
                               else self._buf.take(rows, axis=0), q)
            score *= self._length[rows]  # a clamped key's product, back to q . k / c
            self.distance_evals += ids.size
            if level > 1:  # the members of the survivors' nodes one level down
                survives = np.zeros(self._n, dtype=bool)
                survives[rows[_nearest(ids, score, budget.beam)]] = True
                rows = self._members[level - 2][survives[self._owners[level - 2]]]
        return ids[_nearest(ids, score, k)]

    # -- page placement -----------------------------------------------------

    def _place(self, rows: np.ndarray, at: np.ndarray) -> None:
        """Give newly linked rows' ids page slots: `rows` in (owner, row)
        order and `at` their places in level 1, as `_link` returns them. A
        row's slot is its offset in its leaf, mod page_size. A row of slot 0
        opens a page: new pages take the next page ids leaf by leaf, leaves
        in the order of their first given row, and one `TierStore._put`
        writes them. A second `_put` adds every other id to the page of the
        member `slot` places before it in level 1, written by then."""
        store, owners, point = self.store, self._owners[0], self._point
        owner = owners[at]  # -1: the top node
        slot = (at - np.searchsorted(owners, owner)) % store.page_size
        opens = slot == 0
        by_leaf = np.argsort(rows[np.searchsorted(owner, owner)], kind="stable")
        first = rows[by_leaf[opens[by_leaf]]]  # the ids pass `_check`
        store._put(store.n_pages + np.arange(first.size), point[first])
        head = self._members[0][(at - slot)[~opens]]
        store._put(store.page_of[point[head]], point[rows[~opens]])

    # -- dynamic insertion ----------------------------------------------------

    def insert(self, point_ids, keys, *, level=None) -> list[int]:
        """Insert a sequence of ids, with one key row each; returns their
        levels. The only way points enter the tree: a build is one insert
        into an empty tree.

        The batch is checked first (`_check`, the key shape and any given
        levels); a batch that fails leaves the tree, the store and the level
        stream unchanged. Levels are then drawn from the tree's stream for
        the whole batch, unless given (`level=`, one per id). A point's
        parent is its exact nearest point one level up once the batch is in
        (one `_parent_rows` scan), or none at the top. A batch reaching
        above the current top level grows the tree, and its first point
        above that level takes over the former top node. One `_link` call
        writes every level, and `_place` gives every id a page slot at the
        place `_link` put it. An empty batch returns [] and draws nothing.
        """
        ids = as_ids(point_ids)
        keys = np.asarray(keys, dtype=float)
        if keys.shape != (ids.size, self.dim):
            raise InputError(f"keys must have shape {(ids.size, self.dim)}, got {keys.shape}")
        if level is not None and (len(level) != ids.size or min(level, default=1) < 1):
            raise InputError(f"need one level >= 1 per point id, got {level}")
        self._check(ids, keys)
        if not ids.size:
            return []
        if level is None:
            levels = assign_levels(self.promotion_ratio, self.rng, ids.size)
        else:
            levels = np.asarray(level, dtype=np.intp)

        self._place(*self._link(self._add_rows(ids, keys, levels)))
        return levels.tolist()

    # -- integrity ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Full structural walk, level arrays first (the node records are read
        from them); raises AssertionError on violation."""
        assert self.levels >= 1
        assert self._buf.dtype == np.float32, "lifted rows are not float32"
        rows = self._buf[: self._n]
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
        assert (np.abs(norms - 1.0) <= 1e-6).all(), "a lifted row is not a unit vector"
        assert (self._length[: self._n] >= 1).all(), "a row is shorter than the scale"
        points, top = self._point[: self._n], self._top[: self._n]
        for lv in range(1, self.levels + 1):
            members, owners = self._members[lv - 1], self._owners[lv - 1]
            assert np.array_equal(owners, self._node_of(members, lv)), \
                "membership disagrees with the level arrays"
            step = np.diff(owners)
            assert ((step > 0) | (step == 0) & (np.diff(members) > 0)).all(), \
                f"level {lv} is not sorted by (owner, row)"
            assert np.array_equal(np.sort(self._point[members]), np.sort(points[top >= lv])), \
                f"level {lv} holds the wrong points"
        nodes, store = self.nodes, self.store
        assert {lv for lv, _ in nodes} == set(range(1, self.levels + 1)), "empty level present"
        for (lv, owner), node in nodes.items():
            members = node.member_ids
            assert members, f"empty node {(lv, owner)}"
            if owner == ROOT_OWNER:
                assert lv == self.levels and node.parent_owner is None, "top node below the top"
            else:
                parent = nodes[(lv + 1, node.parent_owner)]
                assert owner in parent.member_ids, "owner missing from parent"
            if node.is_leaf:  # the rule `_place` keeps
                pages, listed = np.asarray(node.page_ids), store.page_of[members]
                assert (store.fill[pages[:-1]] == store.page_size).all(), \
                    "a leaf's inner page is not full"
                assert (listed == pages[np.arange(listed.size) // store.page_size]).all(), \
                    "page j (pages ascending) does not list members from j * page_size on"
                assert store.tokens_in(pages).tolist() == members, \
                    "pages do not list the leaf's members in order"
        leaf_members = [pid for node in nodes.values() if node.is_leaf for pid in node.member_ids]
        assert sorted(leaf_members) == sorted(points.tolist()), "leaf coverage broken"
        assert len(set(leaf_members)) == len(leaf_members), "duplicate leaf membership"


def dci_indexing(ids, keys, promotion_ratio: float, seed: int | tuple = 0, *,
                 store: TierStore | None = None, scale: KeyScale | None = None,
                 rows: int = 0) -> DciTree:
    """Build a tree over point ids and their key rows: one `insert` of
    every point into an empty tree.

    The scale is fixed from the keys unless given. Each point's parent is
    its exact nearest lifted neighbour one level up (`_parent_rows`, the
    same result as an exhaustive-budget tree query, orders of magnitude
    faster); each node's members keep input order, and the leaves' pages in
    `store` (the tree's own store without one) go leaf by leaf in the order
    of each leaf's first point. The tree reserves room for `rows` points
    (at least the input), so inserts up to that count never regrow it.
    """
    ids = as_ids(ids)
    mat = np.asarray(keys, dtype=float)
    if not ids.size:
        raise InputError("cannot index an empty key set")
    if mat.ndim != 2 or len(mat) != ids.size:
        raise InputError(f"need one key row per point id, got keys of shape {mat.shape}")
    if scale is None:
        scale = KeyScale.from_keys(mat)
    tree = DciTree(mat.shape[1], scale, promotion_ratio, seed, store=store)
    tree._reserve(max(ids.size, rows))
    tree.insert(ids, mat)
    return tree
