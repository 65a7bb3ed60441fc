"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every criterion carries its stated tolerance and wall-clock
budget.
"""

import time

import numpy as np

from icecache import (DciTree, Engine, EngineConfig, KeyScale, SearchBudget,
                      SENTINEL_LEVEL, WorkloadSpec, assign_levels, dci_indexing,
                      exact_topk, full_attention, generate_workload,
                      lift_keys, pipeline_estimate, transform_query)
from icecache.bench import score_step
from icecache.pagestore import find_page_index


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail} ({elapsed:.1f}s / {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_01_mips_nn_ordering_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(100):
        keys = rng.normal(size=(200, 32))
        q = rng.normal(size=32)
        scale = KeyScale.from_keys(keys)
        lifted = np.empty((200, 33))
        lift_keys(keys, scale, lifted)
        tq = transform_query(q)
        d2 = ((lifted - tq) ** 2).sum(axis=1)
        by_distance = list(np.lexsort((np.arange(200), d2)))
        by_product = exact_topk(q, keys, 200)
        mismatches += by_distance != by_product
    _report(1, "MIPS<->NN transform identity", mismatches == 0,
            f"{100 - mismatches}/100 instances with identical full orderings",
            time.time() - t0, 1.0)


def test_02_full_budget_equivalence():
    t0 = time.time()
    spec = WorkloadSpec(kind="clustered", n_tokens=1074, d=32, d_prime=16,
                        clusters=8, layers=4, kv_heads=4, seed=102)
    wl = generate_workload(spec)
    cfg = EngineConfig(layers=4, kv_heads=4, d=32, d_prime=16,
                       token_budget=10**6, seed=102)
    eng = Engine(cfg).prefill(wl, 1024)
    worst = 0.0
    for t in range(50):
        step = wl.decode_step(1024, t)
        outs, _ = eng.decode_step(step)
        token = step.token_id
        for layer in range(4):
            for h in range(4):
                ref = full_attention(step.queries[layer, h],
                                     wl.keys[: token + 1, layer, h],
                                     wl.values[: token + 1, layer, h])
                num = np.linalg.norm(outs[layer][h].value_out - ref.value_out)
                worst = max(worst, num / np.linalg.norm(ref.value_out))
    _report(2, "full-budget equivalence", worst <= 1e-6,
            f"max relative error {worst:.2e} over 50 steps x 4 layers x 4 heads",
            time.time() - t0, 30.0)


def test_03_planted_needle_retrieval():
    t0 = time.time()
    successes = 0
    for seed in range(100):
        spec = WorkloadSpec(kind="planted_needle", n_tokens=10_001, d=32,
                            d_prime=8, cluster_spread=4.0, needle_gain=2.0,
                            layers=3, kv_heads=1, seed=seed)
        wl = generate_workload(spec)
        cfg = EngineConfig(layers=3, kv_heads=1, d=32, d_prime=8,
                           token_budget=64, seed=seed)
        eng = Engine(cfg).prefill(wl, 10_000)
        state = eng.heads[(2, 0)]
        pages = find_page_index(eng._select_tokens(wl.queries[10_000, 2, 0], 2, 0),
                                state.store)
        page_hit = state.store.page_of[wl.needle_token] in pages
        outs, _ = eng.decode_step(wl.decode_step(10_000, 0))
        weights = outs[2][0].weights
        top_token = max(weights.items(), key=lambda kv: kv[1])[0]
        successes += page_hit and top_token == wl.needle_token
    _report(3, "planted-needle retrieval", successes == 100,
            f"{successes}/100 seeds selected the needle page and gave the "
            "needle the largest weight", time.time() - t0, 60.0)


def test_04_geometric_level_law():
    t0 = time.time()
    worst = 0.0
    for r in (0.1, 0.25, 0.5):
        rng = np.random.default_rng(hash(("levels", r)) % 2**32)
        draws = assign_levels(r, rng, 100_000)
        for level in (1, 2, 3):
            err = abs((draws >= level).mean() - r ** (level - 1))
            worst = max(worst, err)
    _report(4, "geometric level law", worst <= 0.01,
            f"max |empirical - r^(l-1)| = {worst:.4f} over r in {{0.1, 0.25, 0.5}}, l <= 3",
            time.time() - t0, 5.0)


def test_05_page_bound_fuzz():
    t0 = time.time()
    spec = WorkloadSpec(kind="clustered", n_tokens=2049, d=16, d_prime=8,
                        clusters=16, layers=3, kv_heads=1, seed=105)
    wl = generate_workload(spec)
    cfg = EngineConfig(layers=3, kv_heads=1, d=16, d_prime=8, token_budget=64,
                       seed=105)
    eng = Engine(cfg).prefill(wl, 2048)
    state = eng.heads[(2, 0)]
    s = cfg.page_size
    rng = np.random.default_rng(1055)
    violations = 0
    for i in range(10_000):
        q = rng.normal(size=16)
        k = int(rng.integers(1, 65))
        tokens = eng._select_tokens(q, 2, 0, SearchBudget.for_k(k))
        pages = find_page_index(tokens, state.store)
        state.store.backload(pages)
        loaded = len(state.store.tokens_in(pages))
        if loaded > len(pages) * s or len(pages) > k:
            violations += 1
        if i % 7 == 0:
            state.store.backload([])
    _report(5, "page bound (loaded tokens <= pages x page size)", violations == 0,
            f"0 violations required, saw {violations} in 10000 select->backload pairs",
            time.time() - t0, 30.0)


def test_06_semantic_vs_token_order_hit_rate():
    t0 = time.time()
    spec = WorkloadSpec(kind="clustered", n_tokens=10_100, d=64, d_prime=32,
                        clusters=32, cluster_spread=0.1, layers=3, kv_heads=1,
                        seed=106)
    wl = generate_workload(spec)
    cfg = EngineConfig(layers=3, kv_heads=1, d=64, d_prime=32, token_budget=64, seed=106)
    eng = Engine(cfg).prefill(wl, 10_000)
    semantic, token_order = [], []
    for t in range(100):
        outputs, metrics = eng.decode_step(wl.decode_step(10_000, t))
        m = score_step(eng, wl, outputs, metrics, baseline=True)
        semantic.append(m["page_hit_rate"])
        token_order.append(m["baseline_hit_rate"])
    sem, base = float(np.mean(semantic)), float(np.mean(token_order))
    _report(6, "semantic vs token-order hit rate", sem >= base,
            f"semantic {sem:.3f} vs token-order {base:.3f} "
            "(mean oracle-top-64 page hit rate, 100 steps)",
            time.time() - t0, 120.0)


def test_07_incremental_index_parity():
    t0 = time.time()
    k = 32
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        centers = rng.normal(size=(16, 32))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        keys = centers[rng.integers(0, 16, size=5000)] + \
            rng.normal(size=(5000, 32)) * 0.1 / np.sqrt(32)
        batch = dci_indexing(np.arange(len(keys)), keys, 0.1, seed=seed)
        incremental = DciTree(32, KeyScale.from_keys(keys), 0.1, seed=seed)
        for i, kv in enumerate(keys):
            incremental.insert([i], kv[None])
        budget = SearchBudget.for_k(k)
        rb, ri = [], []
        for _ in range(50):
            q = centers[rng.integers(0, 16)] + rng.normal(size=32) * 0.02
            want = set(exact_topk(q, keys, k))
            tq = transform_query(q)
            rb.append(len(set(batch.query(tq, SENTINEL_LEVEL, k, budget)) & want) / k)
            ri.append(len(set(incremental.query(tq, SENTINEL_LEVEL, k, budget)) & want) / k)
        worst = max(worst, abs(float(np.mean(rb)) - float(np.mean(ri))))
    _report(7, "incremental-index parity", worst <= 0.05,
            f"max |batch recall@32 - incremental recall@32| = {worst:.3f} over 5 seeds",
            time.time() - t0, 60.0)


def test_08_bulk_transfer_accounting():
    t0 = time.time()
    from icecache import TierStore
    store = TierStore(8, 8)
    pages = store.open_pages(range(7 * 16), [16] * 7).tolist()
    first = store.backload(pages)
    ok = first.transactions == 1 and first.pages_backloaded == 7
    second = store.backload(pages)
    ok = ok and second.transactions == 0 and second.bytes_moved == 0
    partial = store.backload(pages[:3])  # still resident
    ok = ok and partial.transactions == 0
    store.backload([])
    third = store.backload(pages[:3])
    ok = ok and third.transactions == 1 and third.pages_backloaded == 3
    _report(8, "bulk-transfer accounting", ok,
            "every backload costs <= 1 transaction; repeated selection moves 0 bytes",
            time.time() - t0, 1.0)


def test_09_selection_reuse():
    t0 = time.time()
    spec = WorkloadSpec(kind="clustered", n_tokens=4100, d=64, d_prime=32,
                        clusters=32, cluster_spread=0.1, layers=8, kv_heads=1,
                        seed=109)
    wl = generate_workload(spec)
    base = dict(layers=8, kv_heads=1, d=64, d_prime=32, token_budget=64, seed=109)
    recalls = {}
    queries = {}
    for label, stride in (("vanilla", 0), ("reuse", 3)):
        cfg = EngineConfig(reuse_stride=stride, **base)
        eng = Engine(cfg).prefill(wl, 4000)
        r, qc = [], []
        for t in range(60):
            outputs, m = eng.decode_step(wl.decode_step(4000, t))
            r.append(score_step(eng, wl, outputs, m)["recall_at_k"])
            qc.append(m.dci_queries)
        recalls[label] = float(np.mean(r))
        queries[label] = qc
    indexed_layers = 8 - 2
    expected = -(-indexed_layers // 3)  # ceil
    count_ok = all(q == expected for q in queries["reuse"]) and \
        all(q == indexed_layers for q in queries["vanilla"])
    degradation = recalls["vanilla"] - recalls["reuse"]
    _report(9, "selection reuse", count_ok and degradation <= 0.10,
            f"queries/step {queries['reuse'][0]} (= ceil({indexed_layers}/3)) vs "
            f"{queries['vanilla'][0]} vanilla; recall degradation {degradation:.3f}",
            time.time() - t0, 120.0)


def test_10_pipeline_estimator():
    t0 = time.time()
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(1000):
        tp, to, ti = rng.uniform(0, 100, size=3)
        layers = int(rng.integers(1, 128))
        serial, pipelined = pipeline_estimate(tp, to, ti, layers)
        ok = ok and pipelined <= serial + 1e-9
    for zeros in ((0.0, 0.0, 5.0), (0.0, 7.0, 0.0), (3.0, 0.0, 0.0)):
        serial, pipelined = pipeline_estimate(*zeros, 11)
        ok = ok and serial == pipelined
    _report(10, "pipeline estimator", ok,
            "pipelined <= serial on 1000 random triples; equality with two zero stages",
            time.time() - t0, 1.0)
