"""Tests of the benchmark itself: reproducibility, the output check, the
tail-percentile guard, recall on the searched set, and agreement with
BENCHMARK.json.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icecache import EngineConfig, WorkloadSpec
from perfbench.bench import (END_TO_END, PER_LAYER, Runner, _recall_and_dense_bar,
                             _recall_samples, decode_timings, measure, tail_percentile,
                             trace, verify)
from perfbench.check import StreamChecker
from perfbench.spans import SpanRecorder
from perfbench.workloads import TAIL_SAMPLES, WORKLOADS, BenchWorkload

STEPS = 48

TINY = BenchWorkload(
    name="tiny", why="small enough for a unit test",
    spec=WorkloadSpec(kind="clustered", clusters=8, d=16, d_prime=8, layers=4),
    cfg=EngineConfig(layers=4, d=16, d_prime=8, token_budget=16, skip_layers=1,
                     reuse_stride=2),
    n_prefill=600, window=STEPS, window_s=1.0, setup_reps=1, query_scale=4.0, key_growth=5e-3)

COUNTS = ("dci.select_queries_per_step", "dci.distance_evals_per_query",
          "dci.recall_at_k", "dci.nodes_over_visit_cap", "dci.max_node_size",
          "dci.levels", "dci.scale_clamps", "pagestore.pages_loaded_per_step",
          "pagestore.transactions_per_step", "pagestore.resident_skip_share",
          "pagestore.page_packing", "attention.sparse_tokens", "engine.rotation_steps")


def _decode(seed):
    runner = Runner(TINY, seed)
    engine, _ = runner.setup()
    run = runner.decode(engine)
    verify(run)
    assert run.failed == 0, run.problems[:3]
    return run.checker.fidelity(), run.bytes_moved / STEPS


def _counts(seed):
    result = trace(TINY, seed)
    assert result["failed"] == 0, result["problems"][:3]
    return {name: result["metrics"][name] for name in COUNTS}


def test_same_seed_reproduces_fidelity_and_counts():
    first, second, other = _decode(3), _decode(3), _decode(4)
    assert first == second
    assert first[0] != other[0] and first[1] != other[1]
    counts = _counts(3)
    assert counts == _counts(3)
    assert counts != _counts(4)
    assert counts["dci.scale_clamps"] > 0 and counts["engine.rotation_steps"] > 0


def _one_step():
    runner = Runner(TINY, 0)
    engine, _ = runner.setup()
    checker = StreamChecker(runner.workload, TINY.cfg, TINY.n_prefill, 1)
    outputs, _ = engine.decode_step(runner.workload.decode_step(TINY.n_prefill, 0))
    return checker, outputs


def test_output_check_passes_the_engine_and_flags_a_perturbed_value_out():
    checker, outputs = _one_step()
    assert checker.record(0, outputs, False)
    assert checker.verify() == {}
    for layer in (0, 2):  # a skip layer and an indexed layer
        checker, outputs = _one_step()
        outputs[layer][1].value_out[0] += 1e-6
        assert checker.record(0, outputs, False)
        problems = checker.verify()[0]
        assert len(problems) == 1 and f"layer {layer} head 1" in problems[0]


def test_output_check_flags_a_missing_sink_token():
    checker, outputs = _one_step()
    del outputs[3][0].weights[0]
    assert not checker.record(0, outputs, False)
    assert "sink" in checker.problems[0][0]


def test_tail_percentile_refuses_a_thin_tail():
    rng = np.random.default_rng(0)
    assert tail_percentile(rng.random(1100)) > 0.9
    with pytest.raises(ValueError, match="beyond"):
        tail_percentile(rng.random(500))


def test_decode_timings_keep_each_steps_fastest_repeat():
    rng = np.random.default_rng(0)
    quiet = 1e-3 * (1.0 + rng.random(1024))
    first, second = quiet * 1.5, quiet * 1.5
    first[::3], second[1::3] = quiet[::3], quiet[1::3]  # host phases differ by repeat
    mixed = decode_timings(np.array([first, second]), 16)
    fastest = np.minimum(first, second)
    assert mixed["decode_ms_p50"] == pytest.approx(1e3 * np.median(fastest))
    assert mixed["decode_tok_s"] == pytest.approx(1024 / fastest.sum())


def test_a_short_run_still_decodes_enough_steps_for_the_tail():
    result = measure(TINY, 3, 0.0)
    assert result["failed"] == 0, result["problems"][:3]
    assert result["attempted"] == TAIL_SAMPLES == TINY.repeats(0.0) * STEPS
    assert result["metrics"]["decode_ms_p99"] > result["metrics"]["decode_ms_p50"]


def test_fidelity_is_the_mean_over_the_scored_streams():
    result = measure(replace(TINY, fidelity_streams=2), 3, 0.0)
    assert result["failed"] == 0, result["problems"][:3]
    assert result["attempted"] == TAIL_SAMPLES + STEPS
    streams = []
    for stream in (0, 1):
        runner = Runner(TINY, 3, stream)
        engine, _ = runner.setup()
        run = runner.decode(engine)
        verify(run)
        streams.append(run.checker.fidelity())
    assert streams[0] != streams[1]
    for name in streams[0]:
        assert result["metrics"][name] == pytest.approx((streams[0][name] + streams[1][name]) / 2)


def test_recall_counts_only_the_points_a_query_searched():
    """A query's exact top-k excludes points the tree takes in after it."""
    runner = Runner(TINY, 0)
    rec = SpanRecorder()
    samples, searched = [], []
    with rec.install():
        engine, _ = runner.setup()
        for i in range(STEPS):
            first = len(rec.names)
            engine.decode_step(runner.workload.decode_step(TINY.n_prefill, i))
            step_samples = _recall_samples(rec, first)
            samples.extend(step_samples)
            searched.extend(list(tree.point_ids) for tree, *_ in step_samples)
    assert len(samples[0][0]) > len(searched[0])  # the tree grew after the first query
    heads = {id(state.tree): key for key, state in engine.heads.items()}
    keys = runner.workload.keys
    expected = []
    for (tree, q_vec, k, result, _), ids in zip(samples, searched):
        layer, h = heads[id(tree)]
        ids = np.asarray(ids)
        k = min(k, ids.size)
        top = ids[np.argsort(-(keys[ids, layer, h] @ q_vec[:-1]), kind="stable")[:k]]
        expected.append(np.isin(top, result).sum() / k)
    recall = _recall_and_dense_bar(runner, heads, samples)["dci.recall_at_k"]
    assert recall == pytest.approx(np.mean(expected))


def test_distance_counts_survive_reinstalling_the_recorder():
    """A traced run installs the recorder once per block; no query is counted twice."""
    runner = Runner(TINY, 0)
    rec = SpanRecorder()
    with rec.install():
        engine, _ = runner.setup()
    for i in range(STEPS):
        with rec.install():
            engine.decode_step(runner.workload.decode_step(TINY.n_prefill, i))
    counted = sum(note[4] for idx, note in rec.notes.items() if rec.names[idx] == "dci.query")
    assert counted == sum(state.tree.distance_evals for state in engine.heads.values())


def test_benchmark_json_matches_the_tables():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: row[:2] for name, row in PER_LAYER.items()}
