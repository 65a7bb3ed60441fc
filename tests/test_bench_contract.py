"""The engine names the benchmark's traced run relies on.

perfbench/spans.py traces a run by replacing entry points at the names
`icecache.engine` calls them by, and perfbench/check.py reads the attended
ids from each output's weights. A refactor that moves one of those names or
changes what the weights hold would leave the traced run blind without
failing it, so the contract is checked here, from the engine's side.
"""

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import icecache.engine as engine_mod  # noqa: E402
from icecache import Engine, EngineConfig, WorkloadSpec, generate_workload  # noqa: E402
from perfbench.check import attended_ids  # noqa: E402
from perfbench.spans import SpanRecorder, _distance_note, _entry_points  # noqa: E402


def test_every_traced_entry_point_exists_on_the_engine_module():
    for owner, attr, name, _ in _entry_points():
        assert owner is engine_mod or getattr(engine_mod, owner.__name__) is owner, name
        assert attr in vars(owner), name


def test_decode_attends_and_looks_up_pages_through_the_module_names(monkeypatch):
    spec = WorkloadSpec(kind="clustered", n_tokens=600, d=16, d_prime=8, clusters=8,
                        layers=4, kv_heads=2, query_heads_per_group=2, seed=3)
    cfg = EngineConfig(layers=4, kv_heads=2, query_heads_per_group=2, d=16, d_prime=8,
                       token_budget=16, seed=3)
    wl = generate_workload(spec)
    eng = Engine(cfg).prefill(wl, 500)

    calls = defaultdict(list)

    def counted(name):
        original = getattr(engine_mod, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append((args, result))
            return result
        return wrapper

    for name in ("sparse_attention", "find_page_index"):
        monkeypatch.setattr(engine_mod, name, counted(name))
    monkeypatch.setattr(engine_mod, "full_attention", counted("full_attention"))

    def counted_method(owner, attr):
        original = getattr(owner, attr)

        def wrapper(obj, *args, **kwargs):
            calls[attr].append(obj)
            return original(obj, *args, **kwargs)
        return wrapper

    for owner, attr in ((engine_mod.TierStore, "backload"), (engine_mod.TierStore, "offload"),
                        (engine_mod.DciTree, "insert")):
        monkeypatch.setattr(owner, attr, counted_method(owner, attr))
    selected = defaultdict(set)  # tree -> ids its queries returned
    original_query = engine_mod.DciTree.query

    def query(tree, *args):
        result = original_query(tree, *args)
        selected[id(tree)].update(result)
        return result
    monkeypatch.setattr(engine_mod.DciTree, "query", query)
    outs, _ = eng.decode_step(wl.decode_step(500, 0))

    indexed = cfg.layers - cfg.skip_layers
    assert len(calls["sparse_attention"]) == indexed * cfg.n_query_heads
    # One page lookup per (layer, kv head), given the group's token union.
    tree_of = {id(state.store): state.tree for state in eng.heads.values()}
    assert sorted(id(args[1]) for args, _ in calls["find_page_index"]) == sorted(tree_of)
    for (tokens, store), pages in calls["find_page_index"]:
        assert tokens.tolist() == sorted(selected[id(tree_of[id(store)])])
        assert pages.tolist() == sorted(set(store.page_of[tokens].tolist()))
    returned = [outs[layer][qh] for layer in range(cfg.skip_layers, cfg.layers)
                for qh in range(cfg.n_query_heads)]
    assert all(result is out for (_, result), out in zip(calls["sparse_attention"], returned))
    for args, out in calls["sparse_attention"]:
        assert attended_ids(out).tolist() == [int(t) for t in args[1]]

    # One backload per (anchor, kv head), here every indexed layer at
    # stride 1, one full attention per skip-layer query head, and no fold
    # at fill 5.
    assert len(calls["backload"]) == indexed * cfg.kv_heads
    assert len(calls["full_attention"]) == cfg.skip_layers * cfg.n_query_heads
    assert not calls["insert"] and not calls["offload"]
    # Token 512 fills a new window page's first slot: layer 2 folds, once per head.
    for t in range(1, 13):
        calls.clear()
        eng.decode_step(wl.decode_step(500, t))
    folding = [eng.heads[(cfg.skip_layers, h)] for h in range(cfg.kv_heads)]
    assert sorted(map(id, calls["insert"])) == sorted(id(state.tree) for state in folding)
    assert sorted(map(id, calls["offload"])) == sorted(id(state.store) for state in folding)
    assert len(calls["backload"]) == indexed * cfg.kv_heads
    assert len(calls["full_attention"]) == cfg.skip_layers * cfg.n_query_heads
    assert len(calls["sparse_attention"]) == indexed * cfg.n_query_heads


def test_a_reuse_engine_selects_and_loads_once_per_anchor_head(monkeypatch):
    """At reuse_stride 3 each anchor head queries once per query head and
    looks up and loads once per step for its whole group, and folds once on
    its anchor's fold step, while every indexed (layer, query head) attends
    and selections stay in (layer, query head) order."""
    spec = WorkloadSpec(kind="clustered", n_tokens=540, d=16, d_prime=8, clusters=8,
                        layers=7, kv_heads=2, query_heads_per_group=2, seed=5)
    cfg = EngineConfig(layers=7, kv_heads=2, query_heads_per_group=2, d=16, d_prime=8,
                       token_budget=16, skip_layers=1, reuse_stride=3, seed=5)
    wl = generate_workload(spec)
    eng = Engine(cfg).prefill(wl, 500)
    assert eng.anchors == [1, 4]  # groups 1-3 and 4-6
    calls = defaultdict(list)  # name -> the tree or store of each call

    def counted(owner, attr, pick):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr].append(pick(args))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((engine_mod.DciTree, "query"), (engine_mod.DciTree, "insert"),
                        (engine_mod.TierStore, "backload"), (engine_mod.TierStore, "offload")):
        counted(owner, attr, lambda args: id(args[0]))
    counted(engine_mod, "find_page_index", lambda args: id(args[1]))
    counted(engine_mod, "sparse_attention", lambda args: None)

    g = cfg.query_heads_per_group
    trees = {a: sorted(id(eng.heads[(a, h)].tree) for h in range(cfg.kv_heads))
             for a in eng.anchors}
    stores = {a: sorted(id(eng.heads[(a, h)].store) for h in range(cfg.kv_heads))
              for a in eng.anchors}
    queried = sorted(id(eng.heads[(a, qh // g)].tree)
                     for a in eng.anchors for qh in range(cfg.n_query_heads))
    folds = []
    for step in range(24):
        calls.clear()
        _, metrics = eng.decode_step(wl.decode_step(500, step))
        assert sorted(calls["query"]) == queried
        assert metrics.dci_queries == len(calls["query"])
        assert list(metrics.selections) == [(layer, qh) for layer in range(1, cfg.layers)
                                            for qh in range(cfg.n_query_heads)]
        assert sorted(calls["find_page_index"]) == sorted(calls["backload"]) == \
            sorted(sum(stores.values(), []))
        assert len(calls["sparse_attention"]) == \
            (cfg.layers - cfg.skip_layers) * cfg.n_query_heads
        folding = [a for a in eng.anchors if sorted(calls["insert"]) == trees[a]]
        assert sorted(calls["offload"]) == sum((stores[a] for a in folding), [])
        assert folding or not calls["insert"]
        folds += [(step, a) for a in folding]
    # Fill 1 (token 512) for anchor 1 and fill 16 * 3 // 6 + 1 = 9 (token
    # 520) for anchor 4; at token 504 anchor 4's window is not yet full.
    assert folds == [(12, 1), (20, 4)]


def test_selection_queries_have_the_call_shape_the_trace_unpacks(monkeypatch):
    """The traced run notes each `DciTree.query` call by unpacking
    `tree, q_vec, _, k` from its positional arguments, so every selection
    query must pass the lifted query, the target level and k in that order.
    Each returns its ids as an int64 array."""
    spec = WorkloadSpec(kind="clustered", n_tokens=600, d=16, d_prime=8, clusters=8,
                        layers=4, kv_heads=2, query_heads_per_group=2, seed=3)
    cfg = EngineConfig(layers=4, kv_heads=2, query_heads_per_group=2, d=16, d_prime=8,
                       token_budget=16, seed=3)
    wl = generate_workload(spec)
    eng = Engine(cfg).prefill(wl, 500)
    rec = SpanRecorder()
    monkeypatch.setattr(engine_mod.DciTree, "query",
                        rec.wrap("dci.query", engine_mod.DciTree.query, _distance_note()))
    eng.decode_step(wl.decode_step(500, 0))

    assert len(rec.notes) == (cfg.layers - cfg.skip_layers) * cfg.n_query_heads
    for tree, q_vec, k, result, delta, size in rec.notes.values():
        assert type(k) is int and k == cfg.token_budget
        assert np.shape(q_vec) == (cfg.d + 1,)
        assert len(result) == k and delta > 0 and size == len(tree)
        assert isinstance(result, np.ndarray) and result.dtype == np.int64


def test_rotation_folds_each_page_into_its_tree_in_one_insert(monkeypatch):
    """The traced run times `dci.insert` per call and reads each tree's
    `distance_evals` at `dci.query` boundaries: a fold must insert each of
    the folding layer's heads' offloaded page in one call (and no
    other head's), which issues no `DciTree.query` and leaves the query
    counters as they were, and distances are counted only inside queries."""
    spec = WorkloadSpec(kind="clustered", n_tokens=560, d=16, d_prime=8, clusters=8,
                        layers=4, kv_heads=2, seed=4)
    cfg = EngineConfig(layers=4, kv_heads=2, d=16, d_prime=8, token_budget=16,
                       skip_layers=1, promotion_ratio=0.3, seed=4)
    wl = generate_workload(spec)
    eng = Engine(cfg).prefill(wl, 500)
    tree_cls = engine_mod.DciTree
    stack, inserts, queries = [], [], []
    outside = []  # distance_evals changes seen outside any query

    def insert(tree, ids, keys, **kwargs):
        stack.append("insert")
        before = (tree.query_count, tree.distance_evals)
        inside = len(queries)
        try:
            return original_insert(tree, ids, keys, **kwargs)
        finally:
            stack.pop()
            nested = sum(delta for _, delta in queries[inside:])
            outside.append(tree.distance_evals - before[1] - nested)
            inserts.append((id(tree), np.atleast_1d(ids).tolist(), len(queries) - inside,
                            (tree.query_count, tree.distance_evals) != before))

    def query(tree, *args, **kwargs):
        where = stack[-1] if stack else "decode"
        before = tree.distance_evals
        result = original_query(tree, *args, **kwargs)
        queries.append((where, tree.distance_evals - before))
        return result

    original_insert, original_query = tree_cls.insert, tree_cls.query
    monkeypatch.setattr(tree_cls, "insert", insert)
    monkeypatch.setattr(tree_cls, "query", query)
    trees = [state.tree for state in eng.heads.values()]
    anchors = eng.anchors
    assert len(anchors) == 3  # every indexed layer is its own group: folds at fills 1, 6, 11
    folds = []
    s = cfg.page_size
    for step in range(2 * s):
        n = 500 + step + 1  # tokens once this step's token is in
        heads = {key: (id(state.tree), list(range(eng.window_start[key[0]],
                                                  eng.window_start[key[0]] + s)),
                       n - eng.window_start[key[0]]) for key, state in eng.heads.items()}
        inserts.clear()
        selection = [q for q in queries if q[0] == "decode"]
        evals, counted = sum(t.distance_evals for t in trees), len(queries)
        eng.decode_step(wl.decode_step(500, step))
        assert sum(t.distance_evals for t in trees) - evals == \
            sum(delta for _, delta in queries[counted:])
        fill = (n - 1) % s + 1  # the newest window page's: windows start on a page
        due = {key: (tree, ids) for key, (tree, ids, window) in heads.items()
               if fill == s * anchors.index(key[0]) // len(anchors) + 1
               and window > cfg.window_pages * s}
        assert sorted((tree, ids) for tree, ids, _, _ in inserts) == sorted(due.values())
        if not inserts:
            continue
        folds.append(fill)
        # Parents come from the dense scan: no query, no counted distance.
        assert not any(searched or counted for _, _, searched, counted in inserts)
        assert len([q for q in queries if q[0] == "decode"]) - len(selection) == \
            (cfg.layers - cfg.skip_layers) * cfg.n_query_heads
    assert folds == [1, 6, 11, 1]
    assert outside and not any(outside)
