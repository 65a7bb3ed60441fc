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

from icecache import (SENTINEL_LEVEL, PageTable, SearchBudget, TierStore, WorkloadSpec,
                      dci_indexing, full_attention, generate_workload, transform_query)
from icecache.dci import EXHAUSTIVE_NODE_LIMIT, PARENT_BUDGET

N_KEYS = 10_000
PAGE = 16


@pytest.fixture(scope="module")
def stream():
    return _stream(N_KEYS)


def _stream(n_tokens):
    spec = WorkloadSpec(kind="clustered", clusters=32, n_tokens=n_tokens, layers=1, kv_heads=1)
    wl = generate_workload(spec)
    return wl.keys[:, 0, 0], wl.values[:, 0, 0], wl.queries[:, 0, 0]


def _build(keys):
    return dci_indexing(list(enumerate(keys[:N_KEYS])), 0.1, seed=0, store=TierStore(64, 64),
                        table=PageTable(), page_size=16)


def test_dci_query(benchmark, stream):
    keys, _, queries = stream
    tree = _build(keys)
    lifted = [transform_query(q) for q in queries[:64]]
    budget = SearchBudget.for_k(64)

    def run():
        for q in lifted:
            tree.query(q, SENTINEL_LEVEL, 64, budget)
    benchmark(run)


def test_dci_insert_page(benchmark):
    """One rotated window page folded into the tree: one insert call."""
    keys = _stream(N_KEYS + PAGE)[0]
    tree = _build(keys)
    ids = list(range(N_KEYS, N_KEYS + PAGE))

    def fresh():
        return (copy.deepcopy(tree), ids, keys[ids]), {}
    benchmark.pedantic(lambda t, i, k: t.insert(i, k), setup=fresh, rounds=50, iterations=1)


def test_dci_insert_page_uniform(benchmark):
    """One page into a 32k uniform tree, as uniform-32k rotates it: some
    level-2+ node outgrows the parent searches' scan limit, so they truncate."""
    n = 32_768
    spec = WorkloadSpec(kind="uniform", n_tokens=n + PAGE, layers=1, kv_heads=1)
    keys = generate_workload(spec).keys[:, 0, 0]
    tree = dci_indexing(list(enumerate(keys[:n])), 0.1, seed=0, store=TierStore(64, 64),
                        table=PageTable(), page_size=16)
    limit = max(EXHAUSTIVE_NODE_LIMIT, PARENT_BUDGET.visit_cap)
    assert max(len(node.member_ids) for node in tree.nodes.values() if node.level > 1) > limit
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
