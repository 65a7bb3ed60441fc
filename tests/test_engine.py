"""Engine orchestration: prefill layout, decode flow, reuse, and the
pipeline estimator."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from icecache import (ConfigError, Engine, EngineConfig, InputError, InvariantViolation,
                      SearchBudget, WorkloadSpec, full_attention, generate_workload,
                      pipeline_estimate, prefill)
from icecache.geometry import exact_topk
from icecache.pagestore import INDEXED, SINK, WINDOW


def _small(seed=0, n_tokens=600, layers=3, kv_heads=2, d=16, d_prime=8, **cfg_kwargs):
    spec = WorkloadSpec(kind="clustered", n_tokens=n_tokens, d=d, d_prime=d_prime,
                        clusters=8, layers=layers, kv_heads=kv_heads, seed=seed,
                        query_heads_per_group=cfg_kwargs.pop("query_heads_per_group", 1))
    wl = generate_workload(spec)
    cfg = EngineConfig(layers=layers, kv_heads=kv_heads, d=d, d_prime=d_prime,
                       query_heads_per_group=spec.query_heads_per_group,
                       seed=seed, **cfg_kwargs)
    return wl, cfg


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
    assert [store.roles[p] for p in state.sink] == [SINK] * cfg.sink_pages
    assert all(store.roles[p] == WINDOW for p in state.window)
    # every middle token sits in exactly one indexed page slot
    seen = []
    for page in np.flatnonzero(store.live).tolist():
        if store.roles[page] == INDEXED:
            seen.extend(store.tokens_in([page]).tolist())
    indexed = list(range(cfg.sink_pages * s, (32 - cfg.window_pages) * s))  # 500 tokens: 32 pages
    assert sorted(seen) == indexed
    assert state.tree.point_ids == indexed
    assert eng.sink_tokens == list(range(cfg.sink_pages * s))
    assert eng.token_census(2, 0) == 500


def test_short_prompt_falls_back_to_full_attention():
    wl, cfg = _small(token_budget=16, evaluate=True)
    eng = Engine(cfg).prefill(wl, 40)  # under sink+window+1 pages
    assert eng.fallback and not eng.heads
    outs, metrics = eng.decode_step(wl.decode_step(40, 0))
    ref = full_attention(wl.queries[40, 2, 0],
                         wl.keys[:41, 2, 0], wl.values[:41, 2, 0])
    assert np.allclose(outs[2][0].value_out, ref.value_out, atol=1e-12)
    assert metrics.approx_rel_error == 0.0


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


# -- decode flow ------------------------------------------------------------------


def test_each_anchor_group_folds_once_per_page_at_its_fill():
    # Group g of G folds its oldest window page when the newest window
    # page's fill reaches page_size * g // G + 1: anchors 1 and 3 lead the
    # groups {1, 2} and {3, 4}, which fold at fills 1 and 9.
    wl, cfg = _small(n_tokens=600, layers=5, skip_layers=1, reuse_stride=2, token_budget=8)
    n_prefill = 512  # multiple of page size: the first token opens a fresh window page
    eng = Engine(cfg).prefill(wl, n_prefill)
    s = cfg.page_size
    assert eng.anchor_layers() == [1, 3]
    group = {1: 0, 2: 0, 3: 1, 4: 1}
    folds = {key: [] for key in eng.heads}  # (step, newest window fill) of each fold
    for t in range(3 * s):
        before = {key: (state.store.stats.pages_offloaded, len(state.tree))
                  for key, state in eng.heads.items()}
        eng.decode_step(wl.decode_step(n_prefill, t))
        for key, state in eng.heads.items():
            offloaded, size = before[key]
            assert state.store.stats.pages_offloaded - offloaded in (0, 1)
            if state.store.stats.pages_offloaded > offloaded:
                assert len(state.tree) == size + s  # the folded page was full
                folds[key].append((t, int(state.store.fill[state.window[-1]])))
            assert cfg.window_pages <= len(state.window) <= cfg.window_pages + 1
    for (layer, h), seen in folds.items():
        g = group[layer]
        assert seen == [(page * s + g * s // 2, g * s // 2 + 1) for page in range(3)], (layer, h)


def test_recall_is_scored_against_each_heads_own_tree():
    # Layers 2 and 3 are two groups folding at fills 1 and 9, so for half
    # of each page a token is in layer 2's tree but still in layer 3's
    # window, where no selection returns it. The recall oracle of a head
    # ranks its own tree's points only.
    wl, cfg = _small(n_tokens=600, layers=4, token_budget=8, evaluate=True,
                     query_heads_per_group=2)
    n_prefill = 512
    eng = Engine(cfg).prefill(wl, n_prefill)
    apart = 0
    for t in range(2 * cfg.page_size):
        outputs, metrics = eng.decode_step(wl.decode_step(n_prefill, t))
        apart += len(eng.heads[(2, 0)].tree) != len(eng.heads[(3, 0)].tree)
        recalls = []
        for layer in (2, 3):
            # The step's selection again: folds precede it, so the trees are as it saw them.
            _, selected = eng.select_with_reuse(layer, wl.queries[n_prefill + t, layer])
            for qh in range(cfg.n_query_heads):
                h = qh // cfg.query_heads_per_group
                state = eng.heads[(layer, h)]
                points = np.asarray(state.tree.point_ids)
                window = state.store.tokens_in(state.window)
                assert not np.isin(points, window).any()
                assert np.isin(window, outputs[layer][qh].token_ids).all()
                k = min(cfg.token_budget, points.size)
                q = wl.queries[n_prefill + t, layer, qh]
                oracle = points[exact_topk(q, wl.keys[points, layer, h], k)]
                recalls.append(np.isin(oracle, selected[qh]).sum() / k)
        assert metrics.recall_at_k == pytest.approx(np.mean(recalls), abs=1e-12)
    assert apart == cfg.page_size  # fills 1 to 8 of both pages


def test_rotation_requires_every_head_to_agree():
    wl, cfg = _small(n_tokens=700, token_budget=8)
    eng = Engine(cfg).prefill(wl, 520)
    eng.decode_step(wl.decode_step(520, 0))
    fills = {int(state.store.fill[state.window[-1]]) for state in eng.heads.values()}
    assert fills == {9}
    store, newest = eng.heads[(2, 1)].store, eng.heads[(2, 1)].window[-1]
    dropped = store.tokens_in([newest])[-1]
    store.fill[newest] -= 1  # one head a token behind
    assert dropped not in store.tokens_in([newest])  # fill alone says what a page holds
    with pytest.raises(InvariantViolation, match="differ in fill"):
        eng.decode_step(wl.decode_step(520, 1))


def test_decode_never_regrows_a_tree():
    # Prefill reserves every tree's rows for the whole stream, as it does
    # the K/V buffers, so no rotation reallocates a tree's arrays.
    wl, cfg = _small(n_tokens=512 + 80, token_budget=8)
    eng = Engine(cfg).prefill(wl, 512)
    trees = [state.tree for state in eng.heads.values()]
    buffers = [(tree._buf, tree._point, tree._top, tree._parent,
                [*tree._start, *tree._count, *tree._node_id]) for tree in trees]
    for t in range(80):
        eng.decode_step(wl.decode_step(512, t))
    assert all(state.store.stats.pages_offloaded >= 5 for state in eng.heads.values())
    for tree, (buf, point, top, parent, per_level) in zip(trees, buffers):
        assert tree._buf is buf and tree._point is point and tree._top is top
        assert tree._parent is parent
        assert all(a is b for a, b in zip([*tree._start, *tree._count, *tree._node_id],
                                          per_level))


def test_rotated_tokens_become_selectable():
    wl, cfg = _small(n_tokens=700, token_budget=10**6, beam=2**61)
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
    for (layer, h) in eng.heads:
        assert eng.token_census(layer, h) == 512 + 40


def test_full_budget_reproduces_full_attention():
    wl, cfg = _small(n_tokens=400, token_budget=10**6, beam=2**61, evaluate=True)
    eng = Engine(cfg).prefill(wl, 350)
    for t in range(20):
        _, m = eng.decode_step(wl.decode_step(350, t))
        assert m.approx_rel_error < 1e-6
        assert m.covered_attention_mass == pytest.approx(1.0, abs=1e-9)


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


def test_gqa_groups_share_the_union():
    wl, cfg = _small(kv_heads=2, query_heads_per_group=2, token_budget=8)
    eng = Engine(cfg).prefill(wl, 500)
    step = wl.decode_step(500, 0)
    pages_a = set(eng.page_select(step.queries[2, 0], 2, 0))
    pages_b = set(eng.page_select(step.queries[2, 1], 2, 0))
    outs, _ = eng.decode_step(step)
    attended_tokens = set(outs[2][0].weights)
    state = eng.heads[(2, 0)]
    union_tokens = set(state.store.tokens_in(sorted(pages_a | pages_b)))
    assert union_tokens <= attended_tokens
    assert set(outs[2][1].weights) == attended_tokens  # both heads share it


def test_page_select_respects_budget_bound():
    wl, cfg = _small(token_budget=12)
    eng = Engine(cfg).prefill(wl, 500)
    pages = eng.page_select(wl.queries[500, 2, 0], 2, 0)
    assert 0 < len(pages) <= 12
    with pytest.raises(ConfigError):
        eng.page_select(wl.queries[500, 2, 0], 0, 0)  # skipped layer


def test_run_determinism_bitwise():
    results = []
    for _ in range(2):
        wl, cfg = _small(seed=33, evaluate=True, token_budget=24)
        eng = Engine(cfg).prefill(wl, 500)
        rows = [eng.decode_step(wl.decode_step(500, t))[1] for t in range(12)]
        results.append([r.__dict__ for r in rows])
    assert results[0] == results[1]


def test_engine_owns_its_cache():
    # Rotation fires on the first step, so tree inserts read the prompt too.
    wl, cfg = _small(seed=7, evaluate=True, token_budget=16)
    untouched = Engine(cfg).prefill(wl, 512)
    wl2, _ = _small(seed=7, evaluate=True, token_budget=16)
    touched = Engine(cfg).prefill(wl2, 512)
    rng = np.random.default_rng(0)
    wl2.keys[:512] = rng.normal(size=wl2.keys[:512].shape)
    wl2.values[:512] = rng.normal(size=wl2.values[:512].shape)
    for t in range(3):
        outs_a, a = untouched.decode_step(wl.decode_step(512, t))
        outs_b, b = touched.decode_step(wl2.decode_step(512, t))
        assert a.__dict__ == b.__dict__
        for layer in range(cfg.layers):
            for out_a, out_b in zip(outs_a[layer], outs_b[layer]):
                assert list(out_a.weights.items()) == list(out_b.weights.items())
                assert np.array_equal(out_a.value_out, out_b.value_out)


# -- selection reuse -----------------------------------------------------------------


def test_anchor_layer_arithmetic():
    wl, cfg = _small(layers=8, kv_heads=1, reuse_stride=2, token_budget=8)
    eng = Engine(cfg).prefill(wl, 500)
    assert eng.anchor_layers() == [2, 4, 6]


def test_reuse_off_makes_every_indexed_layer_an_anchor():
    wl, cfg = _small(layers=5, token_budget=8)
    eng = Engine(cfg).prefill(wl, 500)
    assert eng.anchor_layers() == [2, 3, 4]
    for layer in eng.anchor_layers():
        pages_by_head, _ = eng.select_with_reuse(layer, wl.queries[500, layer])
        for h in range(cfg.kv_heads):
            assert pages_by_head[h].tolist() == \
                eng.page_select(wl.queries[500, layer, h], layer, h)


def test_anchor_selections_match_vanilla():
    wl, vanilla_cfg = _small(seed=12, layers=5, kv_heads=1, token_budget=16)
    wl2, reuse_cfg = _small(seed=12, layers=5, kv_heads=1, token_budget=16,
                            reuse_stride=3)
    vanilla = Engine(vanilla_cfg).prefill(wl, 500)
    reused = Engine(reuse_cfg).prefill(wl2, 500)
    step = wl.decode_step(500, 0)
    for layer in (2,):  # anchor offset 0
        want = vanilla.page_select(step.queries[layer, 0], layer, 0)
        pages_by_head, _ = reused.select_with_reuse(layer, step.queries[layer])
        assert pages_by_head[0].tolist() == want


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


def test_module_level_prefill_helper():
    wl, cfg = _small()
    eng = prefill(wl, cfg, 500)
    assert eng.prefilled and eng.n_prefill == 500


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(reuse_stride=1)
    with pytest.raises(ConfigError):
        EngineConfig(page_size=1)
    with pytest.raises(ConfigError):
        EngineConfig(promotion_ratio=1.0)
    with pytest.raises(ConfigError):
        EngineConfig(token_budget=0)
    # The search budget is checked when the config is built, not at decode.
    for bad in ({"beam": 63}, {"token_budget": 300, "beam": 256}):
        with pytest.raises(ConfigError):
            EngineConfig(**bad)
    # A fallback engine never queries a tree, but its budget is checked too.
    with pytest.raises(ConfigError):
        EngineConfig(layers=2, skip_layers=2, beam=0)
    assert EngineConfig(beam=64).budget() == SearchBudget(64, 64)


# -- decode as a state machine ------------------------------------------------------------


class DecodeMachine(RuleBasedStateMachine):
    """Decode steps on small engines whose 4-token window pages fold every
    few steps, with and without key norms that outgrow the prefill scale;
    one shape has two anchor groups, folding at window fills 1 and 3. A
    prompt of 118 tokens ends mid-page, past the first group's fill."""

    MAX_STEPS = 100

    @initialize(drift=st.sampled_from([0.0, 0.03]), shape=st.sampled_from(
        [{}, {"skip_layers": 1, "reuse_stride": 2}, {"query_heads_per_group": 2},
         {"layers": 4, "skip_layers": 1, "reuse_stride": 2}]),
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
        self.folding: list[list[int]] = []  # anchors whose group folded, per step

    @rule(n=st.integers(1, 6))
    def decode(self, n):
        anchors = self.eng.anchor_layers()
        for _ in range(min(n, self.MAX_STEPS - self.steps)):
            before = [self.eng.heads[(a, 0)].store.stats.pages_offloaded for a in anchors]
            self.eng.decode_step(self.wl.decode_step(self.prefill, self.steps))
            self.steps += 1
            self.folding.append([a for a, b in zip(anchors, before)
                                 if self.eng.heads[(a, 0)].store.stats.pages_offloaded > b])

    @invariant()
    def one_group_folds_per_step(self):
        # Fold fills page_size * g // G + 1 are distinct while G <= page_size.
        assert all(len(folded) <= 1 for folded in self.folding)

    @invariant()
    def state_holds(self):
        for (layer, h), state in self.eng.heads.items():
            state.tree.check_invariants()
            store = state.store
            assert not (store.pinned & ~store.hot).any()
            assert np.flatnonzero(store.pinned).tolist() == sorted(state.sink + state.window)
            leaf_pages = {p for node in state.tree.nodes.values() if node.is_leaf
                          for p in node.page_ids}
            # every unpinned live page is a leaf's: no offloaded window page stays live
            assert set(np.flatnonzero(store.live & ~store.pinned).tolist()) <= leaf_pages
            listed = Counter(store.tokens_in(np.flatnonzero(store.live)).tolist())
            for t in state.tree.point_ids:
                assert listed[t] == 1
                assert t in store.tokens_in([store.page_of[t]])
            assert self.eng.token_census(layer, h) == self.prefill + self.steps
            cfg = self.eng.cfg
            assert cfg.window_pages <= len(state.window) <= cfg.window_pages + 1
            anchor = max(a for a in self.eng.anchor_layers() if a <= layer)
            # A group folds together, so a reuse layer indexes its anchor's points.
            assert state.tree.point_ids == self.eng.heads[(anchor, h)].tree.point_ids


TestDecodeMachine = DecodeMachine.TestCase
TestDecodeMachine.settings = settings(max_examples=12, stateful_step_count=25,
                                      deadline=None, derandomize=True, database=None)
