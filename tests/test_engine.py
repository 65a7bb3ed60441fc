"""Engine orchestration: prefill layout, decode flow, reuse, and the
pipeline estimator."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from icecache import (SENTINEL_LEVEL, ConfigError, DegenerateQueryError, Engine, EngineConfig,
                      InputError, SearchBudget, Workload, WorkloadSpec, full_attention,
                      generate_workload, gqa_union, pipeline_estimate, transform_query)
from icecache.bench import score_step
from icecache.geometry import exact_topk
from icecache.pagestore import NO_PAGE, find_page_index


def _small(seed=0, n_tokens=600, layers=3, kv_heads=2, d=16, d_prime=8, **cfg_kwargs):
    spec = WorkloadSpec(kind="clustered", n_tokens=n_tokens, d=d, d_prime=d_prime,
                        clusters=8, layers=layers, kv_heads=kv_heads, seed=seed,
                        query_heads_per_group=cfg_kwargs.pop("query_heads_per_group", 1))
    wl = generate_workload(spec)
    cfg = EngineConfig(layers=layers, kv_heads=kv_heads, d=d, d_prime=d_prime,
                       query_heads_per_group=spec.query_heads_per_group,
                       seed=seed, **cfg_kwargs)
    return wl, cfg


def _query(eng, q, layer, kv_head):
    """A fresh tree query, as an anchor layer's selection issues it."""
    budget = eng.cfg.budget()
    return eng.heads[(layer, kv_head)].tree.query(transform_query(q), SENTINEL_LEVEL,
                                                  budget.k, budget)


def _pages(eng, q, layer, kv_head):
    """The pages holding the tree's top-budget tokens for one query."""
    return find_page_index(_query(eng, q, layer, kv_head),
                           eng.heads[(layer, kv_head)].store).tolist()


# -- prefill -------------------------------------------------------------------


def test_skipped_layers_have_no_trees():
    wl, cfg = _small(token_budget=16)
    eng = Engine(cfg).prefill(wl, 500)
    assert (0, 0) not in eng.heads and (1, 0) not in eng.heads
    assert (2, 0) in eng.heads and (2, 1) in eng.heads


def test_prefill_coverage_and_roles():
    wl, cfg = _small(token_budget=16)
    eng = Engine(cfg).prefill(wl, 500)
    s = cfg.page_size
    state = eng.heads[(2, 0)]
    store = state.store
    # 500 tokens: 32 pages, the last two the window's
    assert eng.sink_end == cfg.sink_pages * s
    assert eng.window_start == {2: (32 - cfg.window_pages) * s}
    # every middle token sits in exactly one page slot; sink and window tokens in none
    seen = store.tokens_in(range(store.n_pages)).tolist()
    indexed = list(range(cfg.sink_pages * s, (32 - cfg.window_pages) * s))
    assert sorted(seen) == indexed
    assert state.tree.point_ids == indexed
    assert (store.page_of[: cfg.sink_pages * s] == NO_PAGE).all()
    assert (store.page_of[(32 - cfg.window_pages) * s: 500] == NO_PAGE).all()


@pytest.mark.parametrize("n_prefill, skip_layers, fallback", [
    (40, 2, True),     # under sink+window+1 pages: too short to split
    (500, 3, False)],  # every layer skipped: split, but nothing is indexed
    ids=["short-prompt", "all-skip"])
def test_an_engine_with_no_indexed_layer_attends_exactly(n_prefill, skip_layers, fallback):
    wl, cfg = _small(token_budget=16, skip_layers=skip_layers)
    eng = Engine(cfg).prefill(wl, n_prefill)
    assert eng.fallback == fallback and not eng.heads and not eng.anchors
    outs, metrics = eng.decode_step(wl.decode_step(n_prefill, 0))
    n = n_prefill + 1
    for layer in range(cfg.layers):
        for h in range(cfg.kv_heads):
            ref = full_attention(wl.queries[n - 1, layer, h],
                                 wl.keys[:n, layer, h], wl.values[:n, layer, h])
            assert np.allclose(outs[layer][h].value_out, ref.value_out, atol=1e-12)
    assert not metrics.selections and metrics.dci_queries == 0
    assert score_step(eng, wl, outs, metrics)["approx_rel_error"] == 0.0


def test_prefill_validates_inputs():
    wl, cfg = _small()
    with pytest.raises(ConfigError):
        Engine(cfg).prefill(wl, 0)
    other = EngineConfig(layers=2, kv_heads=1, d=16, d_prime=8)
    with pytest.raises(ConfigError):
        Engine(other).prefill(wl, 100)
    eng = Engine(cfg).prefill(wl, 500)
    with pytest.raises(ConfigError):
        eng.prefill(wl, 500)


def test_prefill_names_a_non_finite_indexed_key():
    """A NaN key in the indexed range fails as a bad key, not a bad scale."""
    wl, cfg = _small()
    wl.keys[250, cfg.skip_layers, 0, 3] = np.nan
    with pytest.raises(InputError, match="non-finite keys"):
        Engine(cfg).prefill(wl, 500)


# -- decode flow ------------------------------------------------------------------


def test_each_indexed_layer_folds_once_per_page_at_its_fill():
    # Indexed layer l of anchor a folds its oldest window page when the
    # newest window page's fill reaches page_size * (a - skip_layers) //
    # n_indexed + 1: anchor groups {1, 2} and {3, 4} fold at fills 1 and 9,
    # each group on one step. Only anchors own a tree and a store, so only
    # they charge the offload and insert the folded page.
    wl, cfg = _small(n_tokens=600, layers=5, skip_layers=1, reuse_stride=2, token_budget=8)
    n_prefill = 512  # multiple of page size: the first token opens a fresh window page
    eng = Engine(cfg).prefill(wl, n_prefill)
    s = cfg.page_size
    assert eng.anchors == [1, 3]
    assert sorted(eng.heads) == [(1, 0), (1, 1), (3, 0), (3, 1)]
    folds = {layer: [] for layer in eng.window_start}  # (step, newest window fill) of each fold
    for t in range(3 * s):
        starts = dict(eng.window_start)
        before = {key: (state.store.stats.pages_offloaded, len(state.tree))
                  for key, state in eng.heads.items()}
        eng.decode_step(wl.decode_step(n_prefill, t))
        n = n_prefill + t + 1
        for layer, start in eng.window_start.items():
            window = n - start
            assert start - starts[layer] in (0, s)
            if start > starts[layer]:
                folds[layer].append((t, (window - 1) % s + 1))
            assert (cfg.window_pages - 1) * s < window <= (cfg.window_pages + 1) * s
        for (layer, h), state in eng.heads.items():
            offloaded, size = before[(layer, h)]
            folded = eng.window_start[layer] > starts[layer]
            assert state.store.stats.pages_offloaded - offloaded == folded
            assert len(state.tree) == size + s * folded  # the folded page was full
    for layer, seen in folds.items():
        k = 2 * ((layer - cfg.skip_layers) // 2)  # its anchor's offset among indexed layers
        assert seen == [(page * s + s * k // 4, s * k // 4 + 1) for page in range(3)], layer


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recall_holds_over_a_long_decode_whose_keys_outgrow_the_scale(seed):
    """256 decode steps whose keys grow 1 % a step, to 13 times their
    length by the end, so the folds insert keys past the prefill scale
    into the trees. Queries scaled by 4 sharpen the logits. The
    last quarter's mean recall must be within 0.05 of the same run's
    without the growth: the tree ranks keys past its scale by their true
    product, so drift alone does not cost recall."""
    spec = WorkloadSpec(kind="clustered", n_tokens=512, d=16, d_prime=8, clusters=16,
                        layers=3, kv_heads=1, seed=seed)
    cfg = EngineConfig(layers=3, kv_heads=1, d=16, d_prime=8, skip_layers=1, page_size=8,
                       token_budget=8, seed=seed)
    recall = {}
    for drift in (0.0, 0.01):
        wl = generate_workload(spec)
        wl.queries *= 4.0
        wl.keys[256:] *= ((1.0 + drift) ** np.arange(1, 257))[:, None, None, None]
        eng = Engine(cfg).prefill(wl, 256)
        rows = [score_step(eng, wl, *eng.decode_step(wl.decode_step(256, t)))
                for t in range(256)]
        recall[drift] = np.mean([row["recall_at_k"] for row in rows[192:]])
        if drift:
            assert sum(state.tree.scale_clamps for state in eng.heads.values()) > 0
    assert recall[0.01] >= recall[0.0] - 0.05


def test_recall_is_scored_against_each_heads_own_tree():
    # Layers 2 and 3 fold at fills 1 and 9, so for half of each page a
    # token is in layer 2's tree but still in layer 3's window, where no
    # selection returns it. The recall oracle of a head ranks its own
    # tree's points only.
    wl, cfg = _small(n_tokens=600, layers=4, token_budget=8, query_heads_per_group=2)
    n_prefill = 512
    eng = Engine(cfg).prefill(wl, n_prefill)
    apart = 0
    for t in range(2 * cfg.page_size):
        outputs, metrics = eng.decode_step(wl.decode_step(n_prefill, t))
        row = score_step(eng, wl, outputs, metrics)
        apart += len(eng.heads[(2, 0)].tree) != len(eng.heads[(3, 0)].tree)
        recalls = []
        for layer in (2, 3):
            for qh in range(cfg.n_query_heads):
                h = qh // cfg.query_heads_per_group
                state = eng.heads[(layer, h)]
                points = np.asarray(state.tree.point_ids)
                window = np.arange(eng.window_start[layer], n_prefill + t + 1)
                assert not np.isin(points, window).any()
                assert np.isin(window, outputs[layer][qh].token_ids).all()
                k = min(cfg.token_budget, points.size)
                q = wl.queries[n_prefill + t, layer, qh]
                oracle = points[exact_topk(q, wl.keys[points, layer, h], k)]
                recalls.append(np.isin(oracle, metrics.selections[(layer, qh)]).sum() / k)
        assert row["recall_at_k"] == pytest.approx(np.mean(recalls), abs=1e-12)
    assert apart == cfg.page_size  # fills 1 to 8 of both pages


def test_fold_charges_each_heads_page_write_and_moves_the_window_up_a_page():
    # 512 tokens: the first decode token opens window page 3 of 2, so the
    # one indexed layer (fill 1) folds the window's oldest page into every head.
    wl, cfg = _small(n_tokens=600, token_budget=8)
    eng = Engine(cfg).prefill(wl, 512)
    s, start = cfg.page_size, eng.window_start[2]
    assert start == 512 - cfg.window_pages * s
    _, metrics = eng.decode_step(wl.decode_step(512, 0))
    assert eng.window_start == {2: start + s}
    stats = [state.store.stats for state in eng.heads.values()]
    assert [st.pages_offloaded for st in stats] == [1] * cfg.kv_heads
    # Beyond the step's backloads, each head pays one transaction of one full page.
    page_bytes = s * (cfg.d + cfg.d_prime) * 4
    assert sum(st.transactions for st in stats) == metrics.transactions + cfg.kv_heads
    assert sum(st.bytes_moved for st in stats) == metrics.bytes_moved + cfg.kv_heads * page_bytes
    for state in eng.heads.values():
        assert state.tree.point_ids[-s:] == list(range(start, start + s))


def test_attended_ids_are_the_sink_the_window_then_the_selected_pages():
    # Layer 2 is the one indexed layer; the prompt ends mid-page and step 7 folds.
    wl, cfg = _small(n_tokens=600, kv_heads=2, query_heads_per_group=2, token_budget=8)
    eng = Engine(cfg).prefill(wl, 505)
    for t in range(8):
        step = wl.decode_step(505, t)
        outputs, metrics = eng.decode_step(step)
        for qh, out in enumerate(outputs[2]):
            h = qh // 2
            store = eng.heads[(2, h)].store
            # The group's pages, looked up from its union of the step's selections.
            union = gqa_union([metrics.selections[(2, p)] for p in (2 * h, 2 * h + 1)])
            expected = np.concatenate((np.arange(eng.sink_end),
                                       np.arange(eng.window_start[2], 505 + t + 1),
                                       store.tokens_in(find_page_index(union, store))))
            assert out.token_ids.tolist() == expected.tolist()
    assert eng.window_start[2] == 496


def test_decode_never_regrows_a_tree():
    # Prefill reserves every tree's rows for the whole stream, as it does
    # the K/V buffers, so no rotation reallocates a tree's arrays.
    wl, cfg = _small(n_tokens=512 + 80, token_budget=8)
    eng = Engine(cfg).prefill(wl, 512)
    trees = [state.tree for state in eng.heads.values()]
    buffers = [(tree._buf, tree._point, tree._top, tree._parent) for tree in trees]
    for t in range(80):
        eng.decode_step(wl.decode_step(512, t))
    assert all(state.store.stats.pages_offloaded >= 5 for state in eng.heads.values())
    for tree, (buf, point, top, parent) in zip(trees, buffers):
        assert tree._buf is buf and tree._point is point and tree._top is top
        assert tree._parent is parent


def test_rotated_tokens_become_selectable():
    wl, cfg = _small(n_tokens=700, token_budget=10**6)
    n_prefill = 512
    eng = Engine(cfg).prefill(wl, n_prefill)
    outs, _ = eng.decode_step(wl.decode_step(n_prefill, 0))  # rotation step
    # unlimited budget: the attended set covers every token ever seen
    assert set(outs[2][0].weights) == set(range(n_prefill + 1))


def test_token_accounting_across_steps():
    wl, cfg = _small(n_tokens=700)
    eng = Engine(cfg).prefill(wl, 512)
    for t in range(40):
        eng.decode_step(wl.decode_step(512, t))
    # The sink range, the window range and the store's pages partition the 552 tokens.
    for (layer, _), state in eng.heads.items():
        store = state.store
        held = np.concatenate((np.arange(eng.sink_end), np.arange(eng.window_start[layer], 552),
                               store.tokens_in(range(store.n_pages))))
        assert np.array_equal(np.sort(held), np.arange(552))


def test_full_budget_reproduces_full_attention():
    wl, cfg = _small(n_tokens=400, token_budget=10**6)
    eng = Engine(cfg).prefill(wl, 350)
    for t in range(20):
        m = score_step(eng, wl, *eng.decode_step(wl.decode_step(350, t)))
        assert m["approx_rel_error"] < 1e-6
        assert m["covered_attention_mass"] == pytest.approx(1.0, abs=1e-9)


def test_output_error_is_relative_to_the_rms_value_norm():
    """approx_rel_error divides the output error by the head's RMS value
    norm over the tokens so far, not by the exact output's norm: on a
    stream whose values average to zero under flat logits, the exact output
    nearly cancels, yet the error stays below 1."""
    wl, cfg = _small(seed=4, kv_heads=1, token_budget=8)
    wl.keys *= 1e-3  # flat logits: nearly uniform weights
    wl.values -= wl.values[:520].mean(axis=0)
    eng = Engine(cfg).prefill(wl, 520)
    for t in range(8):
        outs, metrics = eng.decode_step(wl.decode_step(520, t))
        err_scored = score_step(eng, wl, outs, metrics)["approx_rel_error"]
        values = wl.values[:521 + t, 2, 0]
        ref = full_attention(wl.queries[520 + t, 2, 0], wl.keys[:521 + t, 2, 0], values)
        rms = np.sqrt((values ** 2).sum() / len(values))
        err = np.linalg.norm(outs[2][0].value_out - ref.value_out) / rms
        assert err_scored == pytest.approx(err, rel=1e-12)
        assert np.linalg.norm(ref.value_out) < 0.1 * rms and err_scored < 1.0


def test_decode_past_the_prefilled_workload_grows_the_buffers():
    """An engine prefilled from a 520-token slice of the stream grows its
    key and value arrays on the first decode step, and decodes exactly as
    one prefilled from the whole stream."""
    wl, cfg = _small(seed=8, token_budget=16)
    head = Workload(wl.spec, wl.keys[:520], wl.values[:520], wl.queries[:520])
    grown, whole = Engine(cfg).prefill(head, 520), Engine(cfg).prefill(wl, 520)
    assert grown._keys.shape[2] == 520 and whole._keys.shape[2] == 600
    for t in range(60):
        step = wl.decode_step(520, t)
        (outs_a, a), (outs_b, b) = grown.decode_step(step), whole.decode_step(step)
        assert score_step(grown, wl, outs_a, a) == score_step(whole, wl, outs_b, b)
        for out_a, out_b in zip(sum(outs_a, []), sum(outs_b, [])):
            assert np.array_equal(out_a.token_ids, out_b.token_ids)
            assert np.array_equal(out_a.dense_weights, out_b.dense_weights)
            assert np.array_equal(out_a.value_out, out_b.value_out)
    assert grown._keys.shape[2] == grown._values.shape[2] == 1040


def test_identical_consecutive_queries_reload_nothing():
    wl, cfg = _small(n_tokens=700, token_budget=16)
    n_prefill = 520  # newest window page at fill 8: no rotation for a while
    wl.queries[n_prefill + 1] = wl.queries[n_prefill]
    eng = Engine(cfg).prefill(wl, n_prefill)
    _, first = eng.decode_step(wl.decode_step(n_prefill, 0))
    _, second = eng.decode_step(wl.decode_step(n_prefill, 1))
    assert first.pages_loaded > 0
    assert second.pages_loaded == 0 and second.transactions == 0


def test_decode_requires_prefill_and_stream_alignment():
    wl, cfg = _small()
    eng = Engine(cfg)
    with pytest.raises(ConfigError):
        eng.decode_step(wl.decode_step(500, 0))
    eng.prefill(wl, 500)
    with pytest.raises(InputError):
        eng.decode_step(wl.decode_step(500, 3))  # skips ahead


def _with(step, name, at, value):
    """A copy of the step with one entry of one array set to value."""
    array = getattr(step, name).copy()
    array[at] = value
    return replace(step, **{name: array})


def test_decode_rejects_a_misshaped_step_before_any_write():
    """A step whose queries, keys or values do not have one row per layer
    and head, are not real numbers (strings, complex) or hold a non-finite
    entry, is an InputError; a zero query on an anchor layer is a
    DegenerateQueryError. Either leaves the token count, the K/V rows, every
    tree and every store's counters as they were (one head's row is not
    broadcast into every layer, an imaginary part is not dropped), so the
    corrected step then decodes. Nested lists decode as the arrays do."""
    wl, cfg = _small(kv_heads=2, query_heads_per_group=2)
    eng = Engine(cfg).prefill(wl, 500)
    step = wl.decode_step(500, 0)
    keys, values = eng._keys.copy(), eng._values.copy()
    sizes = {head: len(state.tree) for head, state in eng.heads.items()}
    stats = {head: replace(state.store.stats) for head, state in eng.heads.items()}
    anchor = eng.anchors[0]
    for bad, error in ((replace(step, keys=step.keys[0, 0]), InputError),  # one head's (d,) row
                       (replace(step, values=step.values[:, :1]), InputError),  # one kv head
                       (replace(step, queries=step.queries[:, ::2]), InputError),  # one per group
                       (replace(step, keys=step.queries), InputError),  # query heads, not kv heads
                       (replace(step, values=step.keys), InputError),   # d, not d_prime
                       (_with(step, "keys", (anchor, 1, 3), np.nan), InputError),
                       (_with(step, "values", (0, 0, 2), np.inf), InputError),
                       (_with(step, "queries", (anchor, 1), 0.0), DegenerateQueryError),
                       (_with(step, "queries", (anchor, 0, 5), np.nan), InputError),
                       (replace(step, queries=step.queries.astype(str)), InputError),
                       (replace(step, keys=step.keys.astype(complex)), InputError)):
        with pytest.raises(error):
            eng.decode_step(bad)
        assert eng._n == 500
        assert np.array_equal(eng._keys, keys) and np.array_equal(eng._values, values)
        assert {head: len(state.tree) for head, state in eng.heads.items()} == sizes
        assert {head: state.store.stats for head, state in eng.heads.items()} == stats
    listed = replace(step, queries=step.queries.tolist(), keys=step.keys.tolist(),
                     values=step.values.tolist())
    (outs, metrics), (listed_outs, listed_metrics) = \
        eng.decode_step(step), Engine(cfg).prefill(wl, 500).decode_step(listed)
    assert eng._n == 501 and np.array_equal(eng._keys[:, :, 500], step.keys)
    assert metrics == listed_metrics
    for out, listed_out in zip(sum(outs, []), sum(listed_outs, [])):
        assert np.array_equal(out.token_ids, listed_out.token_ids)
        assert np.array_equal(out.dense_weights, listed_out.dense_weights)
        assert np.array_equal(out.value_out, listed_out.value_out)


def test_gqa_groups_share_the_union():
    wl, cfg = _small(kv_heads=2, query_heads_per_group=2, token_budget=8)
    eng = Engine(cfg).prefill(wl, 500)
    step = wl.decode_step(500, 0)
    pages_a = set(_pages(eng, step.queries[2, 0], 2, 0))
    pages_b = set(_pages(eng, step.queries[2, 1], 2, 0))
    outs, _ = eng.decode_step(step)
    attended_tokens = set(outs[2][0].weights)
    state = eng.heads[(2, 0)]
    union_tokens = set(state.store.tokens_in(sorted(pages_a | pages_b)))
    assert union_tokens <= attended_tokens
    assert set(outs[2][1].weights) == attended_tokens  # both heads share it


def test_page_select_respects_budget_bound():
    wl, cfg = _small(token_budget=12)
    eng = Engine(cfg).prefill(wl, 500)
    pages = _pages(eng, wl.queries[500, 2, 0], 2, 0)
    assert 0 < len(pages) <= 12


def test_run_determinism_bitwise():
    results = []
    for _ in range(2):
        wl, cfg = _small(seed=33, token_budget=24)
        eng = Engine(cfg).prefill(wl, 500)
        rows = [score_step(eng, wl, *eng.decode_step(wl.decode_step(500, t)))
                for t in range(12)]
        results.append(rows)
    assert results[0] == results[1]


def test_engine_owns_its_cache():
    # Rotation fires on the first step, so tree inserts read the prompt too.
    wl, cfg = _small(seed=7, token_budget=16)
    untouched = Engine(cfg).prefill(wl, 512)
    wl2, _ = _small(seed=7, token_budget=16)
    touched = Engine(cfg).prefill(wl2, 512)
    rng = np.random.default_rng(0)
    wl2.keys[:512] = rng.normal(size=wl2.keys[:512].shape)
    wl2.values[:512] = rng.normal(size=wl2.values[:512].shape)
    for t in range(3):
        outs_a, a = untouched.decode_step(wl.decode_step(512, t))
        outs_b, b = touched.decode_step(wl2.decode_step(512, t))
        # both scored against the stream the engines were prefilled from
        assert score_step(untouched, wl, outs_a, a) == score_step(touched, wl, outs_b, b)
        for layer in range(cfg.layers):
            for out_a, out_b in zip(outs_a[layer], outs_b[layer]):
                assert list(out_a.weights.items()) == list(out_b.weights.items())
                assert np.array_equal(out_a.value_out, out_b.value_out)


# -- selection reuse -----------------------------------------------------------------


def test_anchor_layer_arithmetic():
    wl, cfg = _small(layers=8, kv_heads=1, reuse_stride=2, token_budget=8)
    eng = Engine(cfg).prefill(wl, 500)
    assert eng.anchors == [2, 4, 6]
    assert eng.anchor_of == {2: 2, 3: 2, 4: 4, 5: 4, 6: 6, 7: 6}


def test_reuse_off_makes_every_indexed_layer_an_anchor():
    wl, cfg = _small(layers=5, token_budget=8, reuse_stride=1)
    eng = Engine(cfg).prefill(wl, 500)
    assert eng.anchors == [2, 3, 4]
    fresh = {(layer, h): _pages(eng, wl.queries[500, layer, h], layer, h)
             for layer in eng.anchors for h in range(cfg.kv_heads)}
    _, metrics = eng.decode_step(wl.decode_step(500, 0))
    for layer in eng.anchors:
        for h in range(cfg.kv_heads):
            store = eng.heads[(layer, h)].store
            assert find_page_index(metrics.selections[(layer, h)], store).tolist() == \
                fresh[(layer, h)]


def test_anchor_selections_match_vanilla():
    wl, vanilla_cfg = _small(seed=12, layers=5, kv_heads=1, token_budget=16)
    wl2, reuse_cfg = _small(seed=12, layers=5, kv_heads=1, token_budget=16,
                            reuse_stride=3)
    vanilla = Engine(vanilla_cfg).prefill(wl, 500)
    reused = Engine(reuse_cfg).prefill(wl2, 500)
    step = wl.decode_step(500, 0)
    for layer in (2,):  # anchor offset 0
        want = _pages(vanilla, step.queries[layer, 0], layer, 0)
        _, metrics = reused.decode_step(step)
        store = reused.heads[(layer, 0)].store
        assert find_page_index(metrics.selections[(layer, 0)], store).tolist() == want


def test_reuse_layers_are_charged_their_anchors_backload():
    """Every indexed (layer, kv head) is charged as if it kept its own hot
    set over the pages its selection lists in its anchor head's store: a
    step moves the selected pages that were not hot, in one transaction if
    any page moves, at fill x (d + d') x 4 bytes, and leaves the selected
    pages hot. Replayed over two folds of each anchor, the model's sums
    are the step's counters at every step."""
    wl, cfg = _small(n_tokens=600, layers=7, skip_layers=1, reuse_stride=3, token_budget=8,
                     query_heads_per_group=2)
    n_prefill, s, g = 512, cfg.page_size, cfg.query_heads_per_group
    eng = Engine(cfg).prefill(wl, n_prefill)
    assert eng.anchors == [1, 4] and len(eng.heads) == len(eng.anchors) * cfg.kv_heads
    hot = {(layer, h): set() for layer in eng.window_start for h in range(cfg.kv_heads)}
    folds = Counter()
    for t in range(2 * s):
        starts = dict(eng.window_start)
        _, metrics = eng.decode_step(wl.decode_step(n_prefill, t))
        folds.update(a for a in eng.anchors if eng.window_start[a] > starts[a])
        want = dict.fromkeys(("pages_selected", "pages_loaded", "bytes_moved", "transactions"), 0)
        for layer, h in hot:
            store = eng.heads[(layer - (layer - 1) % 3, h)].store
            union = gqa_union([metrics.selections[(layer, qh)] for qh in range(h * g, h * g + g)])
            pages = set(find_page_index(union, store).tolist())
            moved = sorted(pages - hot[(layer, h)])
            hot[(layer, h)] = pages
            want["pages_selected"] += len(pages)
            want["pages_loaded"] += len(moved)
            want["bytes_moved"] += int(store.fill[moved].sum()) * (cfg.d + cfg.d_prime) * 4
            want["transactions"] += bool(moved)
        assert {name: getattr(metrics, name) for name in want} == want, t
    assert folds == {1: 2, 4: 2}


def test_reuse_skips_tree_queries_on_intermediate_layers():
    wl, cfg = _small(layers=8, kv_heads=1, reuse_stride=3, token_budget=8)
    eng = Engine(cfg).prefill(wl, 500)
    _, m = eng.decode_step(wl.decode_step(500, 0))
    assert m.dci_queries == 2  # anchors at layers 2 and 5 only


# -- pipeline estimator -----------------------------------------------------------------


def test_pipeline_degenerate_and_arithmetic():
    assert pipeline_estimate(3.0, 0.0, 0.0, 7) == (21.0, 21.0)
    assert pipeline_estimate(1.0, 1.0, 1.0, 10) == (30.0, 12.0)


def test_pipeline_bound_property():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        tp, to, ti = rng.uniform(0, 10, size=3)
        layers = int(rng.integers(1, 64))
        serial, pipelined = pipeline_estimate(tp, to, ti, layers)
        assert pipelined <= serial + 1e-9


def test_pipeline_rejects_bad_inputs():
    with pytest.raises(InputError):
        pipeline_estimate(-1.0, 0.0, 0.0, 4)
    with pytest.raises(InputError):
        pipeline_estimate(1.0, 1.0, 1.0, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(reuse_stride=0)
    assert EngineConfig().reuse_stride == 1  # every indexed layer its own anchor
    with pytest.raises(ConfigError):
        EngineConfig(page_size=1)
    with pytest.raises(ConfigError):
        EngineConfig(promotion_ratio=1.0)
    with pytest.raises(ConfigError):
        EngineConfig(token_budget=0)
    # A fallback engine never queries a tree, but its budget is checked too.
    with pytest.raises(ConfigError):
        EngineConfig(layers=2, skip_layers=2, token_budget=0)
    # The beam is twice the token budget.
    assert EngineConfig(token_budget=32).budget() == SearchBudget(32, 64)


# -- decode as a state machine ------------------------------------------------------------


class DecodeMachine(RuleBasedStateMachine):
    """Decode steps on small engines whose 4-token window pages fold every
    few steps, with and without key norms that outgrow the prefill scale.
    Each anchor group folds at its anchor's window fill; in the six-layer
    shape, anchors 1, 3 and 5 fold at fills 1, 2 and 4 of five indexed
    layers. A prompt of 118 tokens ends mid-page, past the first layer's
    fill."""

    MAX_STEPS = 100

    @initialize(drift=st.sampled_from([0.0, 0.03]), shape=st.sampled_from(
        [{}, {"skip_layers": 1, "reuse_stride": 2}, {"query_heads_per_group": 2},
         {"layers": 4, "skip_layers": 1, "reuse_stride": 2},
         {"layers": 6, "skip_layers": 1, "reuse_stride": 2},
         {"layers": 4, "skip_layers": 1, "reuse_stride": 2, "query_heads_per_group": 2}]),
        seed=st.integers(0, 2**16), prefill=st.sampled_from([120, 118]))
    def start(self, drift, shape, seed, prefill):
        self.prefill = prefill
        self.wl, cfg = _small(seed=seed, n_tokens=prefill + self.MAX_STEPS, d=8,
                              page_size=4, token_budget=8, promotion_ratio=0.3, **shape)
        if drift:
            growth = (1.0 + drift) ** np.arange(1, self.MAX_STEPS + 1)
            self.wl.keys[prefill:] *= growth[:, None, None, None]
        self.eng = Engine(cfg).prefill(self.wl, prefill)
        self.steps = 0
        self.folding: list[list[int]] = []  # indexed layers that folded, per step

    @rule(n=st.integers(1, 6))
    def decode(self, n):
        for _ in range(min(n, self.MAX_STEPS - self.steps)):
            before = dict(self.eng.window_start)
            self.outputs, metrics = self.eng.decode_step(
                self.wl.decode_step(self.prefill, self.steps))
            self.selected = metrics.selections  # (layer, query head) -> tokens
            self.steps += 1
            self.folding.append([layer for layer, start in before.items()
                                 if self.eng.window_start[layer] > start])

    def _anchor(self, layer):
        return max(a for a in self.eng.anchors if a <= layer)

    @invariant()
    def layers_fold_together_only_at_a_shared_fill(self):
        # An anchor group folds whole, at its anchor's fill. Fold fills
        # page_size * k // n_indexed + 1 are distinct while n_indexed <=
        # page_size, so then the layers folding on a step are one group.
        eng, s = self.eng, self.eng.cfg.page_size
        n_indexed = eng.cfg.layers - eng.cfg.skip_layers
        fold_at = {layer: s * (self._anchor(layer) - eng.cfg.skip_layers) // n_indexed + 1
                   for layer in eng.window_start}
        for folded in self.folding:
            assert len({fold_at[layer] for layer in folded}) <= 1
            groups = {self._anchor(layer) for layer in folded}
            assert sorted(folded) == [layer for layer in fold_at if self._anchor(layer) in groups]
            if n_indexed <= s:
                assert len(groups) <= 1

    @invariant()
    def state_holds(self):
        eng, n = self.eng, self.prefill + self.steps
        cfg, s = eng.cfg, eng.cfg.page_size
        for (layer, _), state in eng.heads.items():
            state.tree.check_invariants()
            store = state.store
            start = eng.window_start[layer]
            # The sink range, the window range and the tree's points partition [0, n).
            covered = np.concatenate((np.arange(eng.sink_end), np.arange(start, n),
                                      state.tree.point_ids))
            assert np.array_equal(np.sort(covered), np.arange(n))
            # The window starts on a page and spans window_pages to window_pages + 1 pages.
            assert start % s == 0
            assert (cfg.window_pages - 1) * s < n - start <= (cfg.window_pages + 1) * s
            # Every store page is a leaf's page, listing each tree point once.
            leaf_pages = sorted(p for node in state.tree.nodes.values() if node.is_leaf
                                for p in node.page_ids)
            assert leaf_pages == list(range(store.n_pages))
            listed = Counter(store.tokens_in(leaf_pages).tolist())
            for t in state.tree.point_ids:
                assert listed[t] == 1
                assert t in store.tokens_in([store.page_of[t]])
        # Only anchors own a tree and a store.
        assert sorted(eng.heads) == [(a, h) for a in eng.anchors for h in range(cfg.kv_heads)]

    @invariant()
    def reuse_layers_share_their_anchors_window_and_attended_ids(self):
        # A reuse layer's selection is its anchor's union, and it attends
        # the anchor's ids: the same sink, window and loaded pages.
        eng, g = self.eng, self.eng.cfg.query_heads_per_group
        for layer in eng.window_start:
            anchor = self._anchor(layer)
            assert eng.window_start[layer] == eng.window_start[anchor]
            if not self.steps or layer == anchor:
                continue
            for qh, (out, anchor_out) in enumerate(zip(self.outputs[layer],
                                                       self.outputs[anchor])):
                assert np.array_equal(out.token_ids, anchor_out.token_ids), (layer, qh)
                union = gqa_union([self.selected[(anchor, p)]
                                   for p in range(qh // g * g, (qh // g + 1) * g)])
                assert np.array_equal(self.selected[(layer, qh)], union), (layer, qh)

    @invariant()
    def reuse_layers_attend_every_token_their_anchor_selected(self):
        if not self.steps:
            return
        eng, g = self.eng, self.eng.cfg.query_heads_per_group
        for layer in eng.window_start:
            anchor = self._anchor(layer)
            for qh, out in enumerate(self.outputs[layer]):
                group = range(qh // g * g, (qh // g + 1) * g)
                picked = np.concatenate([self.selected[(anchor, p)] for p in group])
                # In the layer's window or in one of the pages it loaded.
                assert np.isin(picked, out.token_ids).all(), (layer, qh)

    @invariant()
    def attended_ids_start_with_the_sink_and_window(self):
        if not self.steps:
            return
        eng, n = self.eng, self.prefill + self.steps
        for layer in eng.window_start:
            resident = np.concatenate((np.arange(eng.sink_end),
                                       np.arange(eng.window_start[layer], n)))
            for qh, out in enumerate(self.outputs[layer]):
                assert np.array_equal(out.token_ids[: resident.size], resident), (layer, qh)


TestDecodeMachine = DecodeMachine.TestCase
TestDecodeMachine.settings = settings(max_examples=12, stateful_step_count=25,
                                      deadline=None, derandomize=True, database=None)
