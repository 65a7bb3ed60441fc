"""Scoring a decode run from outside the engine: `icecache.bench.score_step`
reads the step's outputs, its selections and the workload arrays, and
changes nothing the engine serves or counts."""

import numpy as np

from icecache import Engine, EngineConfig, WorkloadSpec, generate_workload
from icecache.bench import score_step


def _stream(seed=3, n_tokens=600, layers=7, kv_heads=2, group=2, **cfg_kwargs):
    spec = WorkloadSpec(kind="clustered", n_tokens=n_tokens, d=16, d_prime=8, clusters=8,
                        layers=layers, kv_heads=kv_heads, query_heads_per_group=group,
                        seed=seed)
    cfg = EngineConfig(layers=layers, kv_heads=kv_heads, query_heads_per_group=group,
                       d=16, d_prime=8, token_budget=16, seed=seed, **cfg_kwargs)
    return generate_workload(spec), cfg


def test_the_scored_indexed_range_is_each_trees_points_at_every_step():
    # Anchor groups {1, 2, 3} and {4, 5, 6} fold at different fills, so
    # their indexed ranges differ for part of each page; each layer's range
    # must still be its anchor's trees' points.
    wl, cfg = _stream(skip_layers=1, reuse_stride=3)
    eng = Engine(cfg).prefill(wl, 505)
    keys = [(layer, qh) for layer in range(1, 7) for qh in range(cfg.n_query_heads)]
    apart = 0
    for t in range(3 * cfg.page_size):
        _, metrics = eng.decode_step(wl.decode_step(505, t))
        assert list(metrics.selections) == keys
        apart += len({eng.window_start[layer] for layer in range(1, 7)}) > 1
        for layer in range(1, 7):
            indexed = np.arange(eng.sink_end, eng.window_start[layer])  # score_step's range
            for h in range(cfg.kv_heads):
                tree = eng.heads[(layer - (layer - 1) % 3, h)].tree
                assert indexed.size == len(tree)
                assert set(indexed.tolist()) == set(tree.point_ids)
    assert apart > 0


def test_scoring_changes_no_output_counter_or_store_state():
    wl, cfg = _stream(skip_layers=1, reuse_stride=3)
    scored, plain = Engine(cfg).prefill(wl, 505), Engine(cfg).prefill(wl, 505)
    for t in range(40):
        step = wl.decode_step(505, t)
        outs_a, a = scored.decode_step(step)
        score_step(scored, wl, outs_a, a, baseline=True)
        outs_b, b = plain.decode_step(step)
        assert a == b  # the counters: selections take no part in equality
        assert a.selections.keys() == b.selections.keys()
        for key, tokens in a.selections.items():
            assert np.array_equal(tokens, b.selections[key])
        for out_a, out_b in zip(sum(outs_a, []), sum(outs_b, [])):
            assert np.array_equal(out_a.token_ids, out_b.token_ids)
            assert np.array_equal(out_a.dense_weights, out_b.dense_weights)
            assert np.array_equal(out_a.value_out, out_b.value_out)
        assert sorted(scored.heads) == sorted(plain.heads) == [(1, 0), (1, 1), (4, 0), (4, 1)]
        for key, state in scored.heads.items():  # every store: the anchors'
            other = plain.heads[key].store
            assert state.store.stats == other.stats
            assert np.array_equal(state.store.hot, other.hot)
            assert np.array_equal(state.store.page_of, other.page_of)
    assert sum(state.tree.query_count for state in scored.heads.values()) == \
        sum(state.tree.query_count for state in plain.heads.values())


def test_a_fallback_step_scores_the_defaults():
    wl, cfg = _stream(layers=3, group=1)
    eng = Engine(cfg).prefill(wl, 40)  # under sink + window + 1 pages
    assert eng.fallback
    outputs, metrics = eng.decode_step(wl.decode_step(40, 0))
    assert metrics.selections == {}
    row = score_step(eng, wl, outputs, metrics, baseline=True)
    assert (row["recall_at_k"], row["page_hit_rate"], row["covered_attention_mass"],
            row["approx_rel_error"], row["baseline_hit_rate"]) == (1.0, 1.0, 1.0, 0.0, None)
