"""Microbenchmarks of the decode hot paths, outside the tier-1 test paths.

Run from the repository root:

    python -m pytest benchmarks --benchmark-only

Shapes follow the clustered-10k workload: 10k keys of dimension 64 in 32
clusters, promotion ratio 0.1, budget 64. The end-to-end numbers live in
perfbench; these isolate one call each.
"""

import copy

import numpy as np
import pytest

from icecache import (SENTINEL_LEVEL, Engine, EngineConfig, SearchBudget, TierStore,
                      WorkloadSpec, dci_indexing, find_page_index, full_attention,
                      generate_workload, sparse_attention, transform_query)

N_KEYS = 10_000
PAGE = 16


@pytest.fixture(scope="module")
def stream():
    return _stream(N_KEYS)


def _stream(n_tokens):
    spec = WorkloadSpec(kind="clustered", clusters=32, n_tokens=n_tokens, layers=1, kv_heads=1)
    wl = generate_workload(spec)
    return wl.keys[:, 0, 0], wl.values[:, 0, 0], wl.queries[:, 0, 0]


def _build(keys, rows=0, n_keys=N_KEYS):
    return dci_indexing(np.arange(n_keys), keys[:n_keys], 0.1, seed=0, store=TierStore(64, 64),
                        rows=rows)


def _time_queries(benchmark, tree, queries):
    lifted = [transform_query(q) for q in queries[:64]]
    budget = SearchBudget.for_k(64)

    def run():
        for q in lifted:
            tree.query(q, SENTINEL_LEVEL, 64, budget)
    benchmark(run)


def test_dci_query(benchmark, stream):
    keys, _, queries = stream
    _time_queries(benchmark, _build(keys), queries)


def test_dci_query_2k(benchmark, stream):
    """64 queries on a 2,048-key tree, reuse-drift's tree size: level 2
    holds at most twice the beam, so each query scans level 1 in place."""
    keys, _, queries = stream
    _time_queries(benchmark, _build(keys, n_keys=2048), queries)


def test_dci_insert_page(benchmark):
    """One folded window page inserted into the tree: one insert call, as
    each head of the folding layer makes on its fold step. The tree
    reserves the page's rows, as prefill reserves the stream's."""
    keys = _stream(N_KEYS + PAGE)[0]
    tree = _build(keys, rows=N_KEYS + PAGE)
    ids = list(range(N_KEYS, N_KEYS + PAGE))

    def fresh():
        return (copy.deepcopy(tree), ids, keys[ids]), {}
    benchmark.pedantic(lambda t, i, k: t.insert(i, k), setup=fresh, rounds=50, iterations=1)


N_UNIFORM = 32_768


@pytest.fixture(scope="module")
def uniform():
    """The uniform-32k key shape: its stream and a tree over its first
    N_UNIFORM keys, with room for one more page."""
    spec = WorkloadSpec(kind="uniform", n_tokens=N_UNIFORM + PAGE, layers=1, kv_heads=1)
    wl = generate_workload(spec)
    keys = wl.keys[:, 0, 0]
    tree = dci_indexing(np.arange(N_UNIFORM), keys[:N_UNIFORM], 0.1, seed=0,
                        store=TierStore(64, 64), rows=N_UNIFORM + PAGE)
    return keys, wl.queries[:, 0, 0], tree


def test_dci_query_uniform(benchmark, uniform):
    """64 queries on the 32k uniform tree, the only key shape whose nodes
    pass 256 members: every node the beam keeps is scanned whole."""
    _, queries, tree = uniform
    _time_queries(benchmark, tree, queries)


def test_dci_insert_page_uniform(benchmark, uniform):
    """One page into a 32k uniform tree, as uniform-32k folds it: the
    page's parent scan runs over the largest tree of the workloads."""
    keys, _, tree = uniform
    n = N_UNIFORM
    ids = list(range(n, n + PAGE))

    def fresh():
        return (copy.deepcopy(tree), ids, keys[ids]), {}
    benchmark.pedantic(lambda t, i, k: t.insert(i, k), setup=fresh, rounds=20, iterations=1)


def test_dense_argpartition_bar(benchmark, stream):
    keys, _, queries = stream

    def run():
        for q in queries[:64]:
            np.argpartition(keys @ q, -64)[-64:]
    benchmark(run)


def test_dci_indexing(benchmark, stream):
    keys, _, _ = stream
    benchmark.pedantic(_build, args=(keys,), rounds=3, iterations=1)


def test_full_attention(benchmark, stream):
    keys, values, queries = stream
    benchmark(full_attention, queries[0], keys, values)


def test_decode_page_glue(benchmark):
    """One indexed head's page work for one query, shaped like reuse-drift
    (2048-token prompt, 256 clusters, queries x 8, budget 64): page lookup,
    backload, the sink + window + loaded gather, sparse attention."""
    spec = WorkloadSpec(kind="clustered", clusters=256, n_tokens=2048 + 16, layers=2,
                        kv_heads=1)
    wl = generate_workload(spec)
    wl.queries *= 8.0
    eng = Engine(EngineConfig(layers=2, kv_heads=1, skip_layers=1)).prefill(wl, 2048)
    for step in range(8):
        eng.decode_step(wl.decode_step(2048, step))
    state, n = eng.heads[(1, 0)], 2048 + 8
    q = wl.queries[n, 1, 0]
    budget = eng.cfg.budget()
    tokens = state.tree.query(transform_query(q), SENTINEL_LEVEL, budget.k, budget)
    keys, values = wl.keys[:n, 1, 0].copy(), wl.values[:n, 1, 0].copy()  # the engine's slabs
    resident = np.concatenate((np.arange(eng.sink_end), np.arange(eng.window_start[1], n)))

    def run():
        store = state.store
        pages = find_page_index(tokens, store)
        store.backload(pages)
        attended = np.concatenate((resident, store.tokens_in(pages)))
        sparse_attention(q, attended, keys, values)
    benchmark(run)
