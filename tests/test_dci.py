"""Tree construction, querying, and dynamic insertion against brute force."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from icecache import (ConfigError, DciTree, InputError, KeyScale, SearchBudget,
                      SENTINEL_LEVEL, TierStore, assign_levels, dci_indexing,
                      exact_topk, lift_keys, transform_query)
from icecache.dci import PARENT_BLOCK, ROOT_OWNER


def _index(keys, *args, **kwargs):
    """A batch-built tree over the key rows, point i holding row i."""
    return dci_indexing(np.arange(len(keys)), keys, *args, **kwargs)


def _rows(tree, ids):
    """The buffer rows of the given point ids."""
    points = tree._point[: len(tree)]
    order = np.argsort(points)
    return order[np.searchsorted(points, ids, sorter=order)]


def _lifted(tree, ids):
    """The lifted points of the given ids, one row each."""
    return tree._buf[_rows(tree, ids)]


def _lift64(keys, scale):
    """The key rows lifted into float64, the reference the tree rounds."""
    out = np.empty((len(keys), keys.shape[1] + 1))
    lift_keys(keys, scale, out)
    return out


def _node_holding(tree, nodes, pid, level):
    """The node that holds point pid at the level, looked up in one
    `tree.nodes` snapshot."""
    owner = int(tree._node_of(_rows(tree, pid), level))
    return nodes[(level, ROOT_OWNER if owner < 0 else int(tree._point[owner]))]


def _clustered(seed, n, d, clusters, spread=0.1):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, clusters, size=n)
    keys = centers[labels] + rng.normal(size=(n, d)) * spread / np.sqrt(d)
    return keys, labels, centers


# -- level assignment -------------------------------------------------------


def test_assign_level_never_promotes_at_vanishing_ratio():
    rng = np.random.default_rng(0)
    assert (assign_levels(1e-12, rng, 1000) == 1).all()


def test_assign_level_matches_geometric_law():
    rng = np.random.default_rng(1)
    draws = assign_levels(0.25, rng, 100_000)
    assert abs((draws >= 2).mean() - 0.25) < 0.01
    assert abs((draws >= 3).mean() - 0.0625) < 0.01


@pytest.mark.parametrize("r", [1e-12, 0.1, 0.25, 0.5, 0.9])
def test_batched_level_draws_equal_scalar_draws(r):
    """n levels drawn at once equal the definition's n scalar draws (the
    reference loop) and n one-level draws, so how a stream is split into
    batches does not change it, and leave the generator where those do."""
    for n in (0, 1, 16, 10_000):
        batched, single, reference = (np.random.default_rng(n) for _ in range(3))
        levels = assign_levels(r, batched, n)
        assert levels.tolist() == [int(assign_levels(r, single, 1)[0]) for _ in range(n)]
        expected = []
        for _ in range(n):  # the definition: 1 + consecutive draws below r
            level = 1
            while reference.random() < r:
                level += 1
            expected.append(level)
        assert levels.tolist() == expected
        assert batched.random() == single.random() == reference.random()


def test_assign_level_rejects_bad_ratio():
    rng = np.random.default_rng(2)
    for r in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            assign_levels(r, rng, 1)


# -- batch indexing ----------------------------------------------------------


def test_single_key_builds_degenerate_tree():
    store = TierStore(4, 4)
    tree = dci_indexing([7], np.ones((1, 4)), 0.3, seed=0, store=store)
    assert tree.levels == 1
    assert len(tree.nodes) == 1
    top = tree.nodes[(tree.levels, ROOT_OWNER)]
    assert top.owner_id == ROOT_OWNER and top.member_ids == [7]
    assert len(top.page_ids) == 1 and store.fill[top.page_ids[0]] == 1
    tree.check_invariants()


def test_duplicate_point_ids_rejected():
    with pytest.raises(InputError):
        dci_indexing([1, 1], np.stack([np.ones(3), np.zeros(3)]), 0.1)


def test_parents_stay_within_generating_cluster():
    rng = np.random.default_rng(3)
    centers = np.zeros((2, 16))
    centers[0, 0] = 10.0
    centers[1, 0] = -10.0
    labels = rng.integers(0, 2, size=2000)
    keys = centers[labels] + rng.normal(size=(2000, 16))
    tree = _index(keys, 0.1, seed=3)
    bottom = [pid for pid, lv in tree.point_level.items() if lv == 1]
    same = 0
    nodes = tree.nodes
    for pid in bottom:
        node = _node_holding(tree, nodes, pid, 1)
        same += labels[node.owner_id] == labels[pid]
    assert same / len(bottom) >= 0.95


def test_build_gives_every_point_its_exact_nearest_parent_across_blocks():
    """Oracle for the build's parent scan: level 1 spans several row
    blocks, and the scale lies below the largest key norm, so some keys
    clamp. Each point's owner at its top level is its nearest lifted point
    among all the points that reach above that level."""
    keys, _, _ = _clustered(43, 2048, 32, 64)
    keys *= np.random.default_rng(44).uniform(0.5, 1.0, size=(2048, 1))
    c = 0.95 * np.linalg.norm(keys, axis=1).max()
    tree = _index(keys, 0.1, seed=43, scale=KeyScale(c))
    tree.check_invariants()
    point_level = tree.point_level
    top = np.array([point_level[pid] for pid in range(len(keys))])
    assert tree.scale_clamps > 0 and tree.levels >= 3
    assert (top == 1).sum() > 4 * PARENT_BLOCK

    lifted = _lifted(tree, range(len(keys)))
    nodes = tree.nodes
    for pid in range(len(keys)):
        owner = _node_holding(tree, nodes, pid, int(top[pid])).owner_id
        above = np.flatnonzero(top > top[pid])
        if not above.size:
            assert owner == ROOT_OWNER
            continue
        d2 = ((lifted[above] - lifted[pid]) ** 2).sum(axis=1)
        assert owner in above and d2[above == owner][0] <= d2.min() + 1e-12, pid


def test_parent_is_one_of_the_equal_nearest_candidates():
    """Key rows repeat, so a point can have several candidates of one
    lifted vector, all equally near. Its parent is one of them; which one
    BLAS rounding decides, not the row order."""
    rng = np.random.default_rng(45)
    ties = 0
    for seed in range(4):
        keys = rng.normal(size=(40, 64))[rng.integers(0, 40, size=600)]
        tree = _index(keys, 0.3, seed=seed)
        point_level = tree.point_level
        top = np.array([point_level[pid] for pid in range(len(keys))])
        lifted = _lifted(tree, range(len(keys)))
        nodes = tree.nodes
        for pid in np.flatnonzero(top < tree.levels):
            owner = _node_holding(tree, nodes, pid, int(top[pid])).owner_id
            above = np.flatnonzero(top > top[pid])
            d2 = ((lifted[above] - lifted[pid]) ** 2).sum(axis=1)
            nearest = above[d2 <= d2.min() + 1e-12]
            assert (lifted[nearest] == lifted[nearest[0]]).all(), pid  # copies of one row
            assert owner in nearest, pid
            ties += nearest.size > 1
    assert ties > 100


def test_self_retrieval_of_indexed_keys():
    rng = np.random.default_rng(4)
    keys = rng.normal(size=(2000, 16))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)  # equal norms: self is argmax
    tree = _index(keys, 0.1, seed=4)
    budget = SearchBudget(1, beam=32)
    hits = 0
    sample = rng.choice(2000, size=500, replace=False)
    for pid in sample:
        got = tree.query(transform_query(keys[pid]), SENTINEL_LEVEL, 1, budget)
        hits += got[0] == pid
    assert hits / len(sample) >= 0.99


def test_tree_structure_invariants_hold():
    keys, _, _ = _clustered(5, 1500, 12, 8)
    store = TierStore(12, 4, page_size=8)
    tree = _index(keys, 0.2, seed=5, store=store)
    tree.check_invariants()
    # parent-level invariant, walked explicitly over points
    nodes = tree.nodes
    for pid, lv in tree.point_level.items():
        if lv < tree.levels:
            node = _node_holding(tree, nodes, pid, lv)
            assert node.owner_id in nodes[(lv + 1, node.parent_owner)].member_ids


def test_invariant_check_catches_a_broken_level_layout():
    """`check_invariants` rejects a level whose owners disagree with the row
    arrays, and one whose (owner, row) pairs do not ascend."""
    keys, _, _ = _clustered(5, 1500, 12, 8)
    tree = _index(keys, 0.2, seed=5)
    owners, members = tree._owners[0], tree._members[0]
    ends = np.flatnonzero(np.diff(owners))  # the last member of a node
    ends = ends[(ends > 0) & (owners[ends - 1] == owners[ends])
                & (members[ends] < members[ends + 1])]
    moved = copy.deepcopy(tree)
    moved._owners[0][ends[0]] = owners[ends[0] + 1]  # into the next node, order kept
    with pytest.raises(AssertionError, match="membership disagrees"):
        moved.check_invariants()
    i = int(np.flatnonzero(np.diff(owners) == 0)[0])  # two members of one node
    swapped = copy.deepcopy(tree)
    swapped._members[0][[i, i + 1]] = members[[i + 1, i]]
    with pytest.raises(AssertionError, match="not sorted"):
        swapped.check_invariants()


def test_invariant_check_catches_a_broken_leaf_page():
    """`check_invariants` holds each leaf's pages to the rule `_place`
    keeps: inner pages full, page j listing the members from j * page_size
    on, in member order. Each corruption of a two-page leaf trips its own
    check."""
    keys, _, _ = _clustered(7, 200, 4, 4)
    tree = _index(keys, 0.3, seed=7, store=TierStore(4, 2, page_size=3))
    tree.check_invariants()
    leaf = next(node for node in tree.nodes.values() if node.is_leaf and len(node.page_ids) >= 2)
    first, second = leaf.page_ids[:2]

    short = copy.deepcopy(tree)
    short.store.fill[first] -= 1
    with pytest.raises(AssertionError, match="a leaf's inner page is not full"):
        short.check_invariants()

    crossed = copy.deepcopy(tree)
    store = crossed.store
    a, b = store.slots[[first, second], 0]
    store.slots[[first, second], 0] = b, a
    store.page_of[[a, b]] = second, first
    with pytest.raises(AssertionError,
                       match=r"page j .* does not list members from j \* page_size on"):
        crossed.check_invariants()

    shuffled = copy.deepcopy(tree)
    shuffled.store.slots[first, [0, 1]] = shuffled.store.slots[first, [1, 0]]
    with pytest.raises(AssertionError, match="pages do not list the leaf's members in order"):
        shuffled.check_invariants()


def test_invariant_check_catches_a_row_off_the_unit_sphere_or_in_float64():
    """Every linked lifted row is a float32 unit vector, within 1e-6."""
    keys, _, _ = _clustered(5, 300, 12, 8)
    tree = _index(keys, 0.2, seed=5)
    tree.check_invariants()
    stretched = copy.deepcopy(tree)
    stretched._buf[7] *= np.float32(1.0 + 1e-5)
    with pytest.raises(AssertionError, match="not a unit vector"):
        stretched.check_invariants()
    wide = copy.deepcopy(tree)
    wide._buf = wide._buf.astype(np.float64)
    with pytest.raises(AssertionError, match="not float32"):
        wide.check_invariants()


def test_lifted_rows_are_the_float64_lift_rounded_once():
    """A tree's rows and lengths, built and inserted, some of them clamped,
    equal `lift_keys` into float64 cast once to float32; the clamped rows
    are those longer than 1."""
    keys, _, _ = _clustered(45, 600, 12, 8)
    keys[400:] *= 1.1
    c = 0.95 * np.linalg.norm(keys[:400], axis=1).max()
    tree = _index(keys[:400], 0.2, seed=45, scale=KeyScale(c))
    tree.insert(range(400, 600), keys[400:])
    lifted = np.empty((600, 13))
    length = lift_keys(keys, tree.scale, lifted)
    assert (length > 1).sum() == tree.scale_clamps > 0
    assert np.array_equal(tree._buf[:600], lifted[tree._point[:600]].astype(np.float32))
    assert np.array_equal(tree._length[:600], length[tree._point[:600]].astype(np.float32))


# -- within-node search ------------------------------------------------------------
# A one-level tree's top node is its whole level, so a query searches exactly
# that node.


def test_pdci_query_single_member_node():
    tree = dci_indexing([3], np.array([[1.0, 2.0]]), 0.5, seed=6)
    assert tree.levels == 1
    assert tree.query(np.array([0.0, 0.0, 1.0]), SENTINEL_LEVEL, 5).tolist() == [3]


def test_pdci_query_exhaustive_cap_matches_brute_force():
    rng = np.random.default_rng(7)
    keys = rng.normal(size=(256, 10))
    tree = _index(keys, 1e-9, seed=7)  # one flat node
    top = tree.nodes[(tree.levels, ROOT_OWNER)]
    assert tree.levels == 1 and len(top.member_ids) == 256
    scale = tree.scale
    for _ in range(20):
        q = rng.normal(size=10)
        tq = transform_query(q)
        got = tree.query(tq, SENTINEL_LEVEL, 8, SearchBudget(8, 16)).tolist()
        d2 = ((_lift64(keys, scale) - tq) ** 2).sum(axis=1)
        want = [int(i) for i in np.lexsort((np.arange(256), d2))[:8]]
        assert got == want


def test_pdci_query_full_k_returns_all_ranked():
    rng = np.random.default_rng(8)
    keys = rng.normal(size=(40, 6))
    tree = _index(keys, 1e-9, seed=8)
    assert tree.levels == 1
    q = transform_query(rng.normal(size=6))
    got = tree.query(q, SENTINEL_LEVEL, 40)
    assert sorted(got) == list(range(40))
    d2 = ((_lifted(tree, got) - q) ** 2).sum(axis=1).tolist()
    assert d2 == sorted(d2)


def test_large_node_is_scanned_whole():
    """A node far past the former projection cut (max(64, 4k) = 256 members)
    is scored member by member: the query returns the brute-force ranking
    and counts one evaluation per member."""
    rng = np.random.default_rng(9)
    keys = rng.normal(size=(600, 8))
    keys[300:320] = keys[:20]  # equal rows: ties go toward the smaller id
    tree = _index(keys, 1e-9, seed=9)  # one flat node
    assert tree.levels == 1 and len(tree.nodes[(tree.levels, ROOT_OWNER)].member_ids) == 600
    lifted = _lifted(tree, range(600))
    for k in (1, 4, 64):
        for q in rng.normal(size=(3, 8)):
            q = transform_query(q)
            score = np.einsum("ij,j->i", lifted, q)
            want = np.lexsort((np.arange(600), -score))[:k].tolist()
            before = tree.distance_evals
            assert tree.query(q, SENTINEL_LEVEL, k, SearchBudget.for_k(k)).tolist() == want
            assert tree.distance_evals - before == 600
    q = transform_query(keys[5])  # ranks id 5 and its copy 305 first
    assert tree.query(q, SENTINEL_LEVEL, 2, SearchBudget.for_k(2)).tolist() == [5, 305]


# -- multi-level query ---------------------------------------------------------


def test_query_with_everything_unbounded_returns_all_ids():
    rng = np.random.default_rng(10)
    keys = rng.normal(size=(300, 8))
    tree = _index(keys, 0.2, seed=10)
    got = tree.query(transform_query(rng.normal(size=8)), SENTINEL_LEVEL,
                     300, SearchBudget.exhaustive(300))
    assert sorted(got) == list(range(300))


def test_exhaustive_budget_query_equals_exact_topk():
    """The ordered result is the brute-force ranking of the lifted keys:
    inner product descending, ties toward the smaller id. In the last
    trials every key row repeats, so equal scores tie across ids, and
    returned points reach above level 1; each id is returned once. Past
    its scale the tree stays exact: on a built tree fed pages of keys 2 to
    4 times as long as its scale, the result is `exact_topk`'s set over
    all the raw keys."""
    rng = np.random.default_rng(11)
    ties = repeats = 0
    for trial in range(70):
        n = int(rng.integers(50, 400))
        keys = rng.normal(size=(n, 12))
        if trial >= 50:
            keys = keys[rng.integers(0, n // 8, size=n)]
        tree = _index(keys, 0.15, seed=trial)
        q = rng.normal(size=12)
        tq = transform_query(q)
        got = tree.query(tq, SENTINEL_LEVEL, 16, SearchBudget.exhaustive(16)).tolist()
        if trial < 50:
            assert set(got) == set(exact_topk(q, keys, 16))
        scores = _lift64(keys, tree.scale) @ tq
        want = np.lexsort((np.arange(n), -scores))[:16].tolist()
        assert got == want and len(set(got)) == 16
        ties += len(np.unique(scores[want])) < 16
        repeats += sum(tree.point_level[pid] > 1 for pid in got)  # reach above level 1
    assert ties == 20 and repeats >= 20

    keys = rng.normal(size=(400, 12))
    tree = _index(keys[:240], 0.15, seed=70)
    keys[240:] *= tree.scale.c * rng.uniform(2, 4, size=(160, 1)) \
        / np.linalg.norm(keys[240:], axis=1, keepdims=True)
    for first in range(240, 400, 16):
        tree.insert(range(first, first + 16), keys[first:first + 16])
    assert tree.scale_clamps == 160
    for q in rng.normal(size=(20, 12)):
        got = tree.query(transform_query(q), SENTINEL_LEVEL, 16, SearchBudget.exhaustive(16))
        assert set(got.tolist()) == set(exact_topk(q, keys, 16))


def test_float32_ranking_equals_exact_topk_beyond_near_ties():
    """The tree ranks by float32 rows and a float32 query. Wherever the
    float64 lifted scores of the k-th and (k+1)-th keys differ by more than
    1e-6, an exhaustive-beam query returns `exact_topk`'s set. Keys are
    copies of a few rows, each moved by noise of 1e-7 to 1e-3, so gaps on
    both sides of 1e-6 occur."""
    rng = np.random.default_rng(47)
    checked = near = 0
    for trial in range(60):
        n, d = int(rng.integers(100, 400)), 64
        keys = rng.normal(size=(n // 8, d))[rng.integers(0, n // 8, size=n)]
        keys += rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-7, -3, size=(n, 1))
        tree = _index(keys, 0.15, seed=trial)
        tree.check_invariants()
        lifted = _lift64(keys, tree.scale)
        for q, k in zip(rng.normal(size=(6, d)), rng.integers(1, 33, size=6).tolist()):
            scores = np.sort(lifted @ transform_query(q))[::-1]
            if scores[k - 1] - scores[k] <= 1e-6:
                near += 1
                continue
            got = tree.query(transform_query(q), SENTINEL_LEVEL, k, SearchBudget.exhaustive(k))
            assert set(got) == set(exact_topk(q, keys, k)), (trial, k)
            checked += 1
    assert checked >= 120 and near >= 60


def test_query_rejects_targets_other_than_the_sentinel():
    keys = np.eye(5)
    tree = _index(keys, 0.2, seed=12)
    for target in (1, tree.levels, tree.levels + 5, 0, -2):
        with pytest.raises(InputError):
            tree.query(transform_query(keys[0]), target, 2, SearchBudget.exhaustive(2))
    assert tree.query_count == 0
    assert tree.query(transform_query(keys[0]), SENTINEL_LEVEL, 2)[0] == 0


def test_query_rejects_bad_vectors_and_k_outside_the_beam():
    """A query that is not dim + 1 finite coordinates, or a k outside
    [1, beam], fails before the query is counted: a length-1 vector would
    broadcast through the scores, and k over the beam could lose points
    that only a level above 1 ranks among the k best."""
    rng = np.random.default_rng(13)
    tree = _index(rng.normal(size=(300, 8)), 0.2, seed=13)
    q = transform_query(rng.normal(size=8))
    inf = q.copy()
    inf[3] = np.inf
    for bad in (q[:1], np.full(9, np.nan), inf, q[:8], np.append(q, 0.0), q[None], q[0]):
        with pytest.raises(InputError):
            tree.query(bad, SENTINEL_LEVEL, 3)
    for k, budget in ((0, None), (-2, SearchBudget(4, 8)), (9, SearchBudget(4, 8)),
                      (64, SearchBudget.for_k(16))):
        with pytest.raises(InputError):
            tree.query(q, SENTINEL_LEVEL, k, budget)
    assert (tree.query_count, tree.distance_evals) == (0, 0)
    assert len(tree.query(q, SENTINEL_LEVEL, 8, SearchBudget(4, 8))) == 8
    assert tree.query_count == 1


def _start_level(tree, beam):
    """The query's start level, read from the row array `_top`: the highest
    level holding more than `2 * beam` points, or level 1."""
    size = [np.count_nonzero(tree._top[:len(tree)] >= lv) for lv in range(1, tree.levels + 1)]
    return max(1, sum(points > 2 * beam for points in size))


def _union_of_levels(tree, q, k, beam, start=None):
    """The former query, as a reference: walk down from the start level
    (`_start_level` unless given), scanned whole, and rank every level's
    candidates together, each id once. A survivor's children are read from
    the row arrays `_top` and `_parent`, in row order, not from the level
    layout under test. A query that starts at level 1 ranks every point.
    Returns the k best ids and the number of rows scored."""
    start = _start_level(tree, beam) if start is None else start
    top, parent = tree._top[:len(tree)], tree._parent[:len(tree)]
    rows, found = np.flatnonzero(top >= start), []
    for level in range(start, 0, -1):
        score = -np.einsum("ij,j->i", tree._buf.take(rows, axis=0), q)
        ids = tree._point[rows]
        found += zip(score.tolist(), ids.tolist())
        if level > 1:
            owners = rows[np.lexsort((ids, score))[:beam]]
            owner = np.where(top == level - 1, parent, np.arange(top.size))
            rows = np.flatnonzero((top >= level - 1) & np.isin(owner, owners))
    return list(dict.fromkeys(pid for _, pid in sorted(found)))[:k], len(found)


def test_query_equals_the_union_of_levels_ranking():
    """With k <= beam, ranking level 1 alone returns the lists that ranking
    the union of every level's candidates did: on built trees and on trees
    grown by page inserts (some topping the tree), at several ratios, with
    repeated key rows so that scores tie. It scores as many rows as the
    reference walk does."""
    rng = np.random.default_rng(60)
    deep = grown = 0
    for trial in range(24):
        r = (0.05, 0.1, 0.2, 0.5)[trial % 4]
        n = int(rng.integers(100, 1000))
        keys = rng.normal(size=(n, 8))
        if trial % 3 == 0:
            keys = keys[rng.integers(0, n // 8, size=n)]  # repeated rows: tied scores
        if trial % 2:
            tree = _index(keys, r, seed=trial)
        else:
            tree = DciTree(8, KeyScale.from_keys(keys), r, seed=trial)
            for first in range(0, n, 16):
                ids = list(range(first, min(first + 16, n)))
                levels = assign_levels(r, rng, len(ids))
                if first % 160 == 80:
                    levels[len(ids) // 2] = tree.levels + 1  # tops the tree mid-page
                    grown += 1
                tree.insert(ids, keys[ids], level=levels.tolist())
        for _ in range(12):
            k = int(rng.integers(1, 17))
            beam = int(rng.integers(k, 4 * k + 1))
            q = transform_query(keys[rng.integers(n)] if rng.random() < 0.5
                                else rng.normal(size=8))
            deep += _start_level(tree, beam) > 1
            before = tree.distance_evals
            got = tree.query(q, SENTINEL_LEVEL, k, SearchBudget(k, beam)).tolist()
            assert (got, tree.distance_evals - before) == \
                _union_of_levels(tree, q, k, beam), (trial, k, beam)
    assert deep > 200 and grown > 40


@pytest.mark.parametrize("level,size", [pytest.param(2, size, id=str(size)) for size in (9, 12, 16, 17)]
                         + [pytest.param(3, size, id=f"level3-{size}") for size in (9, 16, 17)])
def test_a_level_two_start_of_at_most_twice_the_beam_scans_level_one(level, size):
    """With beam 8, a level of at most 16 points is not searched: the query
    starts one level down, scanned whole. A level 2 of 9 to 16 points
    starts at level 1, which returns the exact ranking of every lifted row,
    ties toward the smaller id, and counts len(tree) distance evaluations.
    Under a level 3 of 9 or 16 points, the 40 points of level 2 and the
    level-1 rows of the nodes of level 2's beam best are scored. A level
    of 17 points still starts the descent."""
    beam, k, n = 8, 4, 300
    rng = np.random.default_rng(size)
    keys = rng.normal(size=(n, 8))
    keys[1::7] = keys[::7][: len(keys[1::7])]  # repeated rows: tied scores
    levels = np.ones(n, dtype=int)
    levels[:40 if level == 3 else size] = 2
    if level == 3:
        levels[:size] = 3
    levels[0] = level + 1
    tree = DciTree(8, KeyScale.from_keys(keys), 0.1)
    tree.insert(np.arange(n), keys, level=rng.permutation(levels).tolist())
    assert [members.size for members in tree._members] == \
        ([n, size, 1] if level == 2 else [n, 40, size, 1])
    start = level if size > 2 * beam else level - 1
    ids = tree._point[:n]
    for q in [transform_query(keys[i]) for i in range(0, n, 15)] + \
             [transform_query(rng.normal(size=8)) for _ in range(20)]:
        before = tree.distance_evals
        got = tree.query(q, SENTINEL_LEVEL, k, SearchBudget(k, beam)).tolist()
        assert (got, tree.distance_evals - before) == _union_of_levels(tree, q, k, beam, start)
        if start == 1:
            score = np.einsum("ij,j->i", tree._buf[:n], q.astype(np.float32))
            assert got == ids[np.lexsort((ids, -score))[:k]].tolist()
            assert tree.distance_evals - before == len(tree)


def test_planted_needle_is_always_retrieved():
    d = 32
    for seed in range(100):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=d)
        target /= np.linalg.norm(target)
        keys = rng.normal(size=(1000, d))
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        scale = KeyScale.from_keys(keys[:999])
        keys[999] = scale.c * target  # strongest possible inner product
        tree = _index(keys, 0.1, seed=seed)
        got = tree.query(transform_query(target), SENTINEL_LEVEL, 16,
                         SearchBudget.for_k(16))
        assert 999 in got


def test_default_budget_recall_on_clustered_data():
    keys, _, centers = _clustered(13, 10_000, 64, 32)
    tree = _index(keys, 0.1, seed=13)
    rng = np.random.default_rng(14)
    budget = SearchBudget(32, 64)
    recalls = []
    for _ in range(30):
        q = centers[rng.integers(0, 32)] + rng.normal(size=64) * 0.1 / 8.0
        got = set(tree.query(transform_query(q), SENTINEL_LEVEL, 32, budget))
        want = set(exact_topk(q, keys, 32))
        recalls.append(len(got & want) / 32)
    assert float(np.mean(recalls)) >= 0.90


def test_recall_is_monotone_in_beam():
    keys, _, centers = _clustered(15, 3000, 32, 16)
    tree = _index(keys, 0.1, seed=15)
    rng = np.random.default_rng(16)
    queries = [centers[rng.integers(0, 16)] + rng.normal(size=32) * 0.02
               for _ in range(25)]
    k = 16
    means = []
    for beam in (k, 2 * k, 4 * k):
        budget = SearchBudget(k, beam)
        r = [len(set(tree.query(transform_query(q), SENTINEL_LEVEL, k, budget))
                 & set(exact_topk(q, keys, k))) / k for q in queries]
        means.append(float(np.mean(r)))
    assert means[0] <= means[1] + 1e-12 and means[1] <= means[2] + 1e-12


def test_query_counters_and_empty_tree_error():
    keys = np.eye(4)
    tree = _index(keys, 0.2, seed=17)
    before = tree.query_count
    tree.query(transform_query(keys[0]), SENTINEL_LEVEL, 2)
    assert tree.query_count == before + 1
    empty = DciTree(4, KeyScale(1.0), 0.2, seed=0)
    with pytest.raises(InputError):
        empty.query(transform_query(keys[0]), SENTINEL_LEVEL, 1)


# -- dynamic insertion -----------------------------------------------------------


def test_insert_into_empty_tree():
    store = TierStore(3, 3, page_size=4)
    tree = DciTree(3, KeyScale(2.0), 0.2, seed=18, store=store)
    tree.insert([0], np.ones((1, 3)), level=[1])
    assert tree.levels == 1 and len(tree.nodes) == 1
    leaf = tree.nodes[(tree.levels, ROOT_OWNER)]
    assert leaf.page_ids and store.fill[leaf.page_ids[0]] == 1
    tree.check_invariants()


def test_insert_overflow_opens_second_page():
    s = 8
    store = TierStore(2, 2, page_size=s)
    tree = DciTree(2, KeyScale(5.0), 0.2, seed=19, store=store)
    rng = np.random.default_rng(19)
    for i in range(s + 1):  # all level 1 -> single leaf
        tree.insert([i], np.array([[1.0, 0.0]]) + rng.normal(size=(1, 2)) * 1e-3, level=[1])
    leaf = _node_holding(tree, tree.nodes, 0, 1)
    assert len(leaf.page_ids) == 2
    fills = store.fill[leaf.page_ids].tolist()
    assert fills == [s, 1]
    tree.check_invariants()


def test_insert_duplicate_id_rejected():
    tree = DciTree(2, KeyScale(5.0), 0.2, seed=20)
    tree.insert([1], np.ones((1, 2)))
    with pytest.raises(InputError):
        tree.insert([1], np.zeros((1, 2)))


def test_insert_above_top_grows_tree():
    rng = np.random.default_rng(21)
    keys = rng.normal(size=(50, 6))
    tree = _index(keys, 0.1, seed=21)
    old_levels = tree.levels
    tree.insert([100], rng.normal(size=(1, 6)), level=[old_levels + 2])
    assert tree.levels == old_levels + 2
    tree.check_invariants()
    # the grown tree still answers exactly under unbounded budgets
    got = tree.query(transform_query(keys[0]), SENTINEL_LEVEL, 51,
                     SearchBudget.exhaustive(51))
    assert sorted(got) == sorted(tree.point_level)


def test_insert_clamps_out_of_envelope_keys():
    tree = DciTree(2, KeyScale(1.0), 0.2, seed=22)
    tree.insert([0], np.array([[5.0, 0.0]]))
    assert tree.scale_clamps == 1
    assert abs(np.linalg.norm(_lifted(tree, 0)) - 1.0) < 1e-12


def test_incremental_matches_batch_recall():
    keys, _, centers = _clustered(23, 2000, 32, 16)
    batch = _index(keys, 0.1, seed=23)
    incr = DciTree(32, KeyScale.from_keys(keys), 0.1, seed=23)
    for i, k in enumerate(keys):
        incr.insert([i], k[None])
    incr.check_invariants()
    rng = np.random.default_rng(24)
    k = 32
    budget = SearchBudget.for_k(k)
    diffs = []
    for _ in range(50):
        q = centers[rng.integers(0, 16)] + rng.normal(size=32) * 0.02
        want = set(exact_topk(q, keys, k))
        rb = len(set(batch.query(transform_query(q), SENTINEL_LEVEL, k, budget)) & want) / k
        ri = len(set(incr.query(transform_query(q), SENTINEL_LEVEL, k, budget)) & want) / k
        diffs.append(rb - ri)
    assert abs(float(np.mean(diffs))) <= 0.05



def test_a_tree_grown_4x_by_page_inserts_keeps_recall_near_a_rebuild():
    """The rebuild gap: a tree built on 2048 clustered keys and grown to
    8192 by 16-key page inserts, against a batch build of all 8192 with the
    same levels. Points already in the tree keep their parents, so the live
    tree's recall@64 falls short of the rebuild's; a regression guard, not
    the 0.01 target. Measured at seed 0: 0.9739 against 0.9995."""
    n0, n, k = 2048, 8192, 64
    keys, _, centers = _clustered(0, n, 32, 256)
    scale = KeyScale.from_keys(keys)  # over all keys: no insert clamps
    live = dci_indexing(np.arange(n0), keys[:n0], 0.1, seed=0, scale=scale, rows=n)
    for first in range(n0, n, 16):
        live.insert(np.arange(first, first + 16), keys[first:first + 16])
    rebuilt = _index(keys, 0.1, seed=0, scale=scale)
    assert live.scale_clamps == 0 and live.point_level == rebuilt.point_level
    rng = np.random.default_rng(1000)
    budget = SearchBudget.for_k(k)
    recalls = np.empty((100, 2))
    for i in range(100):
        q = centers[rng.integers(0, 256)] + rng.normal(size=32) * 0.02
        want, lifted = set(exact_topk(q, keys, k)), transform_query(q)
        recalls[i] = [len(want.intersection(tree.query(lifted, SENTINEL_LEVEL, k, budget).tolist()))
                      / k for tree in (live, rebuilt)]
    live_recall, rebuilt_recall = recalls.mean(axis=0)
    assert rebuilt_recall >= 0.99 and rebuilt_recall - live_recall <= 0.04


def test_identical_seeds_build_identical_trees():
    keys, _, _ = _clustered(25, 800, 16, 8)
    a = _index(keys, 0.15, seed=99)
    b = _index(keys, 0.15, seed=99)
    assert a.point_level == b.point_level
    assert {(n.level, n.owner_id, n.parent_owner, tuple(n.member_ids))
            for n in a.nodes.values()} == \
           {(n.level, n.owner_id, n.parent_owner, tuple(n.member_ids))
            for n in b.nodes.values()}
    q = transform_query(keys[0])
    assert a.query(q, SENTINEL_LEVEL, 8).tolist() == b.query(q, SENTINEL_LEVEL, 8).tolist()


# -- golden outputs and randomized operation sequences ----------------------------


def test_query_results_and_distance_counts_match_golden_values():
    """Selected ids pinned from the per-node search the level arrays
    replaced (ties toward the smaller id); distance evaluations pinned from
    the descent that starts at the highest level over twice the beam. The
    incremental tree's scale is below 77 of its key norms: its last two
    results are pinned from queries that rank those keys by their true
    product (row times length)."""
    keys, _, _ = _clustered(30, 1500, 12, 8)
    batch = _index(keys, 0.2, seed=30)
    rng = np.random.default_rng(31)
    got = [batch.query(transform_query(rng.normal(size=12)), SENTINEL_LEVEL, 5).tolist()
           for _ in range(3)]
    assert got == [[186, 982, 517, 1078, 994], [998, 321, 691, 603, 1379],
                   [686, 341, 1438, 199, 588]]
    assert batch.distance_evals == 430

    rng = np.random.default_rng(32)
    incr = DciTree(12, KeyScale(4.0), 0.2, seed=32)
    got = []
    for i in range(400):  # three inserts grow the top; only the queries count
        incr.insert([i], rng.normal(size=(1, 12)), level=[incr.levels + 1] if i % 97 == 50 else None)
        if i % 133 == 132:
            q = transform_query(rng.normal(size=12))
            got.append(incr.query(q, SENTINEL_LEVEL, 5).tolist())
    assert got == [[61, 25, 4, 6, 2], [112, 34, 28, 172, 73], [248, 13, 289, 258, 365]]
    assert (incr.distance_evals, incr.levels, incr.scale_clamps) == (326, 7, 77)

    rng = np.random.default_rng(33)
    uniform = _index(rng.normal(size=(3000, 12)), 0.02, seed=33)
    budget = SearchBudget.for_k(5)
    assert max(len(n.member_ids) for n in uniform.nodes.values()) > 64  # scanned whole
    got = [uniform.query(transform_query(rng.normal(size=12)), SENTINEL_LEVEL, 5, budget).tolist()
           for _ in range(3)]
    assert got == [[356, 1691, 2568, 981, 2760], [2928, 1960, 2930, 2489, 2666],
                   [2760, 1691, 2568, 356, 1391]]
    assert uniform.distance_evals == 1738


def _paged_tree(batched):
    """A small tree fed four pages, either one insert call per page or one
    per id. The pages hold a level-2 token mid-page, tokens drawn at the top
    level, top growth mid-page, clamped keys, drawn levels, and leaves whose
    pages overflow."""
    rng = np.random.default_rng(40)
    centers = rng.normal(size=(3, 6))
    prompt = centers[rng.integers(0, 3, size=12)] + rng.normal(size=(12, 6)) * 0.1
    store = TierStore(6, 2, page_size=3)
    tree = _index(prompt, 0.3, seed=40, store=store)
    top = tree.levels
    pages = [(100, [1, 1, 2, 1, 1], 0, (1,)), (105, [1, top, 1, 1, 1], 1, ()),
             (110, [1, 1, top + 1, 1, 1], 0, (0, 4)), (115, [None] * 6, 2, ())]
    for first, levels, center, clamped in pages:
        keys = centers[center] + rng.normal(size=(len(levels), 6)) * 0.05
        keys[list(clamped)] *= 3.0  # beyond the prompt's envelope
        ids = list(range(first, first + len(levels)))
        drawn = levels[0] is None
        if batched:
            tree.insert(ids, keys, level=None if drawn else levels)
        else:
            for pid, key, lv in zip(ids, keys, levels):
                tree.insert([pid], key[None], level=None if drawn else [lv])
    return tree, store


# batched -> (leaves' owners and members, leaves' pages, page contents)
PAGED_GOLDEN = {
    # In a page, a point before a nearer level-2 point takes it as parent:
    # 100 and 101 join 102's leaf, 110 joins 112's and 115-118 join 119's.
    True: ([(4, [4, 6]), (5, [5, 7]), (8, [0, 1, 2, 3, 8, 10, 11]), (9, [9, 105]),
            (102, [100, 101, 102, 103, 104, 111, 113]), (106, [106, 107, 108, 109]),
            (112, [110, 112, 114]), (119, [115, 116, 117, 118, 119]), (120, [120])],
           [(4, [3]), (5, [4]), (8, [0, 1, 2]), (9, [5]), (102, [6, 7, 11]), (106, [8, 9]),
            (112, [10]), (119, [12, 13]), (120, [14])],
           [[0, 1, 2], [3, 8, 10], [11], [4, 6], [5, 7], [9, 105], [100, 101, 102],
            [103, 104, 111], [106, 107, 108], [109], [110, 112, 114], [113], [115, 116, 117],
            [118, 119], [120]]),
    False: ([(4, [4, 6]), (5, [5, 7]),
             (8, [0, 1, 2, 3, 8, 10, 11, 100, 101, 115, 116, 117, 118]), (9, [9, 105]),
             (102, [102, 103, 104, 110, 111, 113]), (106, [106, 107, 108, 109]),
             (112, [112, 114]), (119, [119]), (120, [120])],
            [(4, [3]), (5, [4]), (8, [0, 1, 2, 11, 12]), (9, [5]), (102, [6, 9]),
             (106, [7, 8]), (112, [10]), (119, [13]), (120, [14])],
            [[0, 1, 2], [3, 8, 10], [11, 100, 101], [4, 6], [5, 7], [9, 105], [102, 103, 104],
             [106, 107, 108], [109], [110, 111, 113], [112, 114], [115, 116, 117], [118],
             [119], [120]]),
}


@pytest.mark.parametrize("batched", [True, False])
def test_page_inserts_match_golden_values(batched):
    """Tree, pages and counters pinned from page inserts and from
    one-at-a-time inserts: the same levels, and parents by one rule once
    each insert's points are in."""
    tree, store = _paged_tree(batched)
    tree.check_invariants()
    leaves, leaf_pages, pages = PAGED_GOLDEN[batched]
    assert [(n.level, n.owner_id, n.parent_owner, n.member_ids)
            for n in tree.nodes.values()] == [
        *[(1, owner, 112, members) for owner, members in leaves],
        (2, 112, ROOT_OWNER, [4, 5, 8, 9, 102, 106, 112, 119, 120]),
        (3, ROOT_OWNER, None, [112])]
    assert [(n.owner_id, n.page_ids) for n in tree.nodes.values() if n.is_leaf] == leaf_pages
    assert [store.tokens_in([pid]).tolist() for pid in range(15)] == pages
    above = {4: 2, 5: 2, 8: 2, 9: 2, 102: 2, 106: 2, 112: 3, 119: 2, 120: 2}
    assert tree.point_level == {pid: above.get(pid, 1) for pid in [*range(12), *range(100, 121)]}
    assert (tree.distance_evals, tree.query_count, tree.scale_clamps, tree.levels) == \
        (0, 0, 3, 3)


def _uniform_paged_tree():
    """A uniform tree with level-2 nodes of more than 64 members, fed ten
    16-token pages with drawn levels."""
    rng = np.random.default_rng(5)
    keys = rng.normal(size=(8160, 16))
    tree = _index(keys[:8000], 0.03, seed=5, store=TierStore(16, 16))
    for first in range(8000, 8160, 16):
        tree.insert(range(first, first + 16), keys[first:first + 16])
    return tree, np.stack([transform_query(q) for q in rng.normal(size=(4, 16))])


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_truncated_page_inserts_and_queries_match_golden_values():
    """Tree, pages, counters and query results pinned on a tree whose
    level-2 nodes pass 64 members; every node a query keeps is scanned
    whole, and inserts issue no query however large the node. Re-pinned
    when page inserts took the build's parent rule: point 8144 moved from
    leaf 7609 to leaf 8147, a level-2 point later in its page."""
    tree, queries = _uniform_paged_tree()
    tree.check_invariants()
    assert max(len(n.member_ids) for n in tree.nodes.values() if n.level == 2) > 64
    assert any(tree.point_level[pid] == 2 for pid in range(8000, 8160))
    nodes = [(n.level, n.owner_id, n.parent_owner, n.member_ids, n.page_ids)
             for n in tree.nodes.values()]
    pages = [tree.store.tokens_in([pid]).tolist() for pid in range(tree.store.n_pages)]
    assert (_digest(nodes), _digest(pages)) == ("0f68b9072127b68e", "c154b599cad2bfa5")
    assert (tree.distance_evals, tree.query_count, tree.scale_clamps, tree.levels) == \
        (0, 0, 0, 3)

    budget = SearchBudget.for_k(6)
    expected = [[332, 6096, 4856, 6157, 4334, 6931], [6569, 6357, 7347, 7156, 54, 3395],
                [6735, 890, 5858, 4142, 7387, 2188], [92, 4035, 5515, 6422, 1438, 2086]]
    assert [tree.query(q, SENTINEL_LEVEL, 6, budget).tolist() for q in queries] == expected
    assert (tree.distance_evals, tree.query_count) == (1982, 4)


def _tree_state(tree):
    return ([(n.level, n.owner_id, n.parent_owner, tuple(n.member_ids), tuple(n.page_ids))
             for n in tree.nodes.values()],
            [(pid, tuple(tree.store.tokens_in([pid]).tolist()))
             for pid in range(tree.store.n_pages)],
            tree.point_level, tree.distance_evals, tree.query_count, tree.scale_clamps)


def test_a_page_insert_links_in_one_call(monkeypatch):
    """A page goes to `_link` in one call however high its points reach,
    also when points grow the tree: one at the former top level before the
    first grower, a second at the grower's level and a second grower."""
    rng = np.random.default_rng(46)
    tree = DciTree(4, KeyScale(4.0), 0.3, seed=46, store=TierStore(4, 2, page_size=3))
    tree.insert(range(12), rng.normal(size=(12, 4)), level=[4] + [1, 2, 3] * 3 + [1, 1])
    calls = []
    link = DciTree._link

    def counted(self, rows):
        calls.append((self, rows.size))
        return link(self, rows)
    monkeypatch.setattr(DciTree, "_link", counted)
    n = 12
    # The third page comes to a tree 5 levels high.
    for levels in ([1, 2, 3, 1, 1], [1, 3, 5, 1, 2], [5, 6, 6, 7, 1]):
        calls.clear()
        height = tree.levels
        assert tree.insert(range(n, n + 5), rng.normal(size=(5, 4)), level=levels) == levels
        tree.check_invariants()
        assert [size for t, size in calls if t is tree] == [5]
        assert tree.levels == max(height, *levels)
        n += 5


def _place_by_rule(twin, leaf_pages, placed, page_size):
    """The placement rule spelled out on twin pages, each a list of ids: a
    batch's (leaf, id) pairs, given in batch order, go leaf by leaf, leaves
    in the order of their first id in the batch and ids in batch order
    within; each in turn appends the id to the leaf's last page, opening a
    page first when that page is full or the leaf has none."""
    first = {}
    for at, (leaf, _) in enumerate(placed):
        first.setdefault(leaf, at)
    for leaf, pid in sorted(placed, key=lambda pair: first[pair[0]]):
        pages = leaf_pages.setdefault(leaf, [])
        if not pages or len(twin[pages[-1]]) == page_size:
            pages.append(len(twin))
            twin.append([])
        twin[pages[-1]].append(pid)


def _assert_pages_equal(tree, twin, leaf_pages):
    store = tree.store
    assert store.n_pages == len(twin)
    assert {node.owner_id: node.page_ids for node in tree.nodes.values() if node.is_leaf} == \
        leaf_pages
    assert [store.tokens_in([p]).tolist() for p in range(store.n_pages)] == twin


@pytest.mark.parametrize("page_size", [2, 3])
def test_page_writer_matches_the_placement_rule(page_size):
    """Oracle for `_place`: page ids, fills and slot order equal one rule
    applied one id at a time, for builds and for page inserts, where one
    call opens several pages in one leaf, opens pages in a leaf the call
    created, and grows the tree."""
    seen = set()
    for trial in range(30):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(1, 30))
        tree = _index(rng.normal(size=(n, 4)), 0.3, seed=trial,
                      store=TierStore(4, 2, page_size=page_size))
        twin, leaf_pages, nodes = [], {}, tree.nodes
        _place_by_rule(twin, leaf_pages, [(_node_holding(tree, nodes, pid, 1).owner_id, pid)
                                          for pid in range(n)], page_size)
        _assert_pages_equal(tree, twin, leaf_pages)
        for _ in range(4):
            m = int(rng.integers(1, 10))
            levels = rng.choice([1, 1, 1, 1, 2, 3], size=m).tolist()
            if rng.random() < 0.3:
                levels[int(rng.integers(m))] = tree.levels + 1
            old_leaves, height, opened = set(leaf_pages), tree.levels, len(twin)
            tree.insert(range(n, n + m), rng.normal(size=(m, 4)), level=levels)
            nodes = tree.nodes
            if ROOT_OWNER in leaf_pages and tree.levels > 1:
                # The former top leaf is now owned by the point that grew the tree.
                grower = _node_holding(tree, nodes, twin[leaf_pages[ROOT_OWNER][0]][0], 1).owner_id
                leaf_pages[grower] = leaf_pages.pop(ROOT_OWNER)
                old_leaves.add(grower)
            placed = [(_node_holding(tree, nodes, pid, 1).owner_id, pid)
                      for pid in range(n, n + m)]
            _place_by_rule(twin, leaf_pages, placed, page_size)
            _assert_pages_equal(tree, twin, leaf_pages)
            new_pages = [leaf for leaf, pages in leaf_pages.items() for page in pages
                         if page >= opened]
            if len(new_pages) > len(set(new_pages)):
                seen.add("several pages in one leaf")
            if set(leaf_pages) - old_leaves:
                seen.add("pages in a new leaf")
            if tree.levels > height:
                seen.add("growth")
            n += m
        tree.check_invariants()
    assert seen == {"several pages in one leaf", "pages in a new leaf", "growth"}


def test_page_inserts_give_every_point_its_exact_nearest_parent():
    """Oracle for the parent rule on a head shaped like reuse-drift's (2048
    prompt keys in 256 clusters, 16-token pages): drawn levels, a page that
    grows the top, and key norms that drift past the scale and clamp. Each
    inserted point's owner at its top level is its nearest lifted point
    among all the points that reach above that level once its page is in,
    the build's rule; some are later points of the same page. A point with
    none is in the top node, or in the node of the point that grew the tree
    after it."""
    keys, _, _ = _clustered(41, 2048 + 24 * 16, 64, 256)
    keys[2048:] *= 1.001 ** np.arange(1, 24 * 16 + 1)[:, None]
    tree = _index(keys[:2048], 0.1, seed=41, store=TierStore(64, 64))
    built_levels = tree.levels
    rng = np.random.default_rng(42)
    for first in range(2048, len(keys), 16):
        levels = None  # drawn from the tree's stream
        if first == 2048 + 12 * 16:
            levels = assign_levels(0.1, rng, 16).tolist()
            levels[5] = tree.levels + 1
            grower = first + int(np.argmax(np.array(levels) > tree.levels))
        tree.insert(range(first, first + 16), keys[first:first + 16], level=levels)
    tree.check_invariants()
    assert tree.levels > built_levels and tree.scale_clamps > 0

    point_level = tree.point_level
    top = np.array([point_level[pid] for pid in range(len(keys))])
    lifted = _lifted(tree, range(len(keys)))
    checked = later = 0
    nodes = tree.nodes
    for pid in range(2048, len(keys)):
        owner = _node_holding(tree, nodes, pid, int(top[pid])).owner_id
        page_end = pid - pid % 16 + 16
        above = np.flatnonzero(top[:page_end] > top[pid])
        if not above.size:  # it topped the tree when its page came
            assert owner == (grower if pid < grower - grower % 16 else ROOT_OWNER), pid
            continue
        d2 = ((lifted[above] - lifted[pid]) ** 2).sum(axis=1)
        assert owner in above and d2[above == owner][0] <= d2.min() + 1e-12, pid
        checked += 1
        later += owner > pid
    assert checked >= 300 and later > 0


def test_insert_returns_levels_and_rejects_bad_batches():
    tree = DciTree(2, KeyScale(5.0), 0.2, seed=26)
    assert tree.insert([0], np.ones((1, 2)), level=[3]) == [3]
    assert tree.insert([1, 2], np.ones((2, 2)), level=[1, 2]) == [1, 2]
    assert tree.insert([], np.empty((0, 2))) == []
    for ids, keys, level in (([3, 3], np.ones((2, 2)), None), ([3, 1], np.ones((2, 2)), None),
                             ([3, 4], np.ones((3, 2)), None), ([3, 4], np.ones((2, 2)), [1]),
                             ([3, 4], np.ones((2, 2)), [1, 0]), ([3], np.ones(2), None),
                             ([3, -1], np.ones((2, 2)), None)):
        with pytest.raises(InputError):
            tree.insert(ids, keys, level=level)
    assert len(tree) == 3 and tree._n == 3
    tree.check_invariants()


def test_non_finite_keys_are_rejected_before_the_tree_changes():
    with pytest.raises(InputError):
        _index(np.array([[1.0, 0.0], [np.inf, 1.0]]), 0.2)
    tree = _index(np.eye(2), 0.2, seed=27, store=TierStore(2, 2, page_size=2))
    before = _tree_state(tree)
    page = np.array([[9.0, 9.0], [np.nan, 0.0]])  # the first key would clamp
    with pytest.raises(InputError):
        tree.insert([5, 6], page, level=[1, 1])
    assert _tree_state(tree) == before and len(tree) == 2 and 5 not in tree.point_level
    # An id a page already lists or a negative id fails before any row is
    # added, like a bad key.
    tree.store.open_pages([100], [1])
    before = _tree_state(tree)
    for ids in ([5, 100], [5, -1]):
        with pytest.raises(InputError):
            tree.insert(ids, np.ones((2, 2)), level=[1, 1])
        assert _tree_state(tree) == before and len(tree) == 2 and 5 not in tree.point_level
    tree.check_invariants()
    assert tree.insert([5, 6], np.ones((2, 2)), level=[1, 1]) == [1, 1]
    tree.check_invariants()


@pytest.mark.parametrize("bad", ["nan key", "repeated id", "listed id"])
def test_a_rejected_batch_leaves_the_page_table_size_as_it_was(bad):
    """A batch is checked before the store's `page_of` grows to its largest
    id, so a rejected batch with a far id allocates nothing."""
    tree = _index(np.eye(2), 0.2, seed=27)
    size = tree.store.page_of.size
    ids, keys = [5, 10**7], np.ones((2, 2))
    if bad == "nan key":
        keys[1, 0] = np.nan
    else:
        ids = [10**7, 10**7] if bad == "repeated id" else [10**7, 1]
        with pytest.raises(InputError):
            tree.store.open_pages(ids, [2])
    with pytest.raises(InputError):
        tree.insert(ids, keys, level=[1, 1])
    assert tree.store.page_of.size == size and len(tree) == 2
    tree.check_invariants()


@pytest.mark.parametrize("bad", ["nan key", "listed id", "negative id"])
def test_a_rejected_batch_leaves_the_level_stream_as_it_was(bad):
    """A batch that fails its check draws no levels: the next insert draws
    the same levels, and ends in the same state, as on a twin tree that
    never saw it."""
    rng = np.random.default_rng(3)
    tree = _index(rng.normal(size=(40, 4)), 0.5, seed=3, store=TierStore(4, 2, page_size=4))
    tree.store.open_pages([100], [1])
    twin = copy.deepcopy(tree)
    ids, keys = [1000, 1001, 1002, 1003, 1004, 1005], rng.normal(size=(6, 4))
    if bad == "nan key":
        keys[4, 1] = np.nan
    else:
        ids[2] = 100 if bad == "listed id" else -3
    with pytest.raises(InputError):
        tree.insert(ids, keys)
    for first in (40, 46):
        page, ids = rng.normal(size=(6, 4)), range(first, first + 6)
        assert tree.insert(ids, page) == twin.insert(ids, page)
    assert _tree_state(tree) == _tree_state(twin)
    tree.check_invariants()


class InsertQueryMachine(RuleBasedStateMachine):
    """Inserts, some growing the top, and pages of inserts with forced
    levels, interleaved with exhaustive queries."""

    def __init__(self):
        super().__init__()
        self.tree = DciTree(6, KeyScale(3.0), 0.3, seed=0, store=TierStore(6, 2, page_size=4))
        self.keys: list[np.ndarray] = []

    @rule(seed=st.integers(0, 2**32 - 1), grow=st.integers(0, 7))
    def insert(self, seed, grow):
        key = np.random.default_rng(seed).uniform(-1.0, 1.0, size=6)  # |key| < c
        level = [self.tree.levels + 1] if grow == 0 and self.keys else None
        self.tree.insert([len(self.keys)], key[None], level=level)
        self.keys.append(key)

    @rule(seed=st.integers(0, 2**32 - 1),
          levels=st.lists(st.sampled_from([1, 1, 1, 2, 3, 5]), min_size=1, max_size=9))
    def insert_page(self, seed, levels):
        keys = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(levels), 6))
        first = len(self.keys)
        assert self.tree.insert(range(first, first + len(levels)), keys, level=levels) == levels
        self.keys.extend(keys)
        self.exhaustive_query_is_exact(seed, 1 + seed % 8)

    @precondition(lambda self: self.keys)
    @rule(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8))
    def exhaustive_query_is_exact(self, seed, k):
        q = np.random.default_rng(seed).normal(size=6)
        got = self.tree.query(transform_query(q), SENTINEL_LEVEL, k, SearchBudget.exhaustive(k))
        assert set(got) == set(exact_topk(q, np.array(self.keys), k))

    @invariant()
    def structure_holds(self):
        if self.keys:
            self.tree.check_invariants()


TestInsertQueryMachine = InsertQueryMachine.TestCase
TestInsertQueryMachine.settings = settings(max_examples=25, stateful_step_count=40,
                                           deadline=None, derandomize=True, database=None)
