"""Workload generators and the binary trace round trip."""

import numpy as np
import pytest

from icecache import (ConfigError, TraceFormatError, WorkloadSpec, exact_topk,
                      generate_workload, load_trace, save_trace)


def test_same_seed_reproduces_streams():
    spec = WorkloadSpec(kind="clustered", n_tokens=200, d=16, d_prime=8,
                        clusters=4, layers=2, kv_heads=2, seed=9)
    a, b = generate_workload(spec), generate_workload(spec)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.queries, b.queries)


def test_needle_degenerate_case_collapses_to_one_key():
    spec = WorkloadSpec(kind="planted_needle", n_tokens=50, d=8, d_prime=4,
                        cluster_spread=0.0, needle_gain=1.0, layers=1,
                        kv_heads=1, seed=1)
    wl = generate_workload(spec)
    first = wl.keys[0, 0, 0]
    assert np.allclose(wl.keys[:, 0, 0], first, atol=1e-12)


def test_needle_key_dominates_inner_products():
    spec = WorkloadSpec(kind="planted_needle", n_tokens=500, d=16, d_prime=4,
                        cluster_spread=4.0, needle_gain=2.0, layers=1,
                        kv_heads=1, seed=2)
    wl = generate_workload(spec)
    q = wl.queries[499, 0, 0]
    assert exact_topk(q, wl.keys[:, 0, 0], 1) == [wl.needle_token]


def test_clustered_oracle_concentrates_in_target_cluster():
    spec = WorkloadSpec(kind="clustered", n_tokens=10_000, d=64, d_prime=8,
                        clusters=32, cluster_spread=0.1, layers=1, kv_heads=1,
                        seed=3)
    wl = generate_workload(spec)
    token = 9_999
    target = wl.query_cluster[token]
    top = exact_topk(wl.queries[token, 0, 0], wl.keys[:, 0, 0], 64)
    in_cluster = sum(wl.cluster_of[t] == target for t in top)
    assert in_cluster / 64 >= 0.90


def test_uniform_kind_shapes():
    spec = WorkloadSpec(kind="uniform", n_tokens=30, d=8, d_prime=4, layers=2,
                        kv_heads=2, query_heads_per_group=3, seed=4)
    wl = generate_workload(spec)
    assert wl.keys.shape == (30, 2, 2, 8)
    assert wl.values.shape == (30, 2, 2, 4)
    assert wl.queries.shape == (30, 2, 6, 8)


def test_decode_step_slicing_and_bounds():
    spec = WorkloadSpec(kind="uniform", n_tokens=20, d=4, d_prime=4, layers=1,
                        kv_heads=1, seed=5)
    wl = generate_workload(spec)
    step = wl.decode_step(15, 2)
    assert step.token_id == 17
    assert np.array_equal(step.keys, wl.keys[17])
    with pytest.raises(ConfigError):
        wl.decode_step(15, 5)
    with pytest.raises(ConfigError, match="step -20"):  # token -5 would wrap to row 15
        wl.decode_step(15, -20)
    with pytest.raises(ConfigError, match="n_prefill -10"):  # token -8 would wrap to row 12
        wl.decode_step(-10, 2)
    with pytest.raises(ConfigError, match="n_prefill 0"):
        wl.decode_step(0, 3)
    with pytest.raises(ConfigError):
        wl.prefill_view(0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="nope")
    with pytest.raises(ConfigError):
        WorkloadSpec(n_tokens=0)
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="clustered", clusters=0)


@pytest.mark.parametrize("name", ["cluster_spread", "needle_gain", "layer_jitter"])
@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_spec_rejects_a_negative_or_non_finite_scale(name, value):
    with pytest.raises(ConfigError, match=name):
        WorkloadSpec(**{name: value})


def test_a_planted_needle_stream_needs_two_tokens():
    """The needle is drawn from [n // 4, 3 * n // 4), empty at one token, so
    the spec rejects it before anything is drawn; two tokens work."""
    with pytest.raises(ConfigError, match="n_tokens"):
        WorkloadSpec(kind="planted_needle", n_tokens=1)
    wl = generate_workload(WorkloadSpec(kind="planted_needle", n_tokens=2, d=4, d_prime=4,
                                        layers=1, kv_heads=1))
    assert wl.n_tokens == 2 and wl.needle_token == 0


def test_trace_round_trip(tmp_path):
    spec = WorkloadSpec(kind="clustered", n_tokens=64, d=12, d_prime=6,
                        clusters=4, layers=2, kv_heads=2,
                        query_heads_per_group=2, seed=6)
    wl = generate_workload(spec)
    path = tmp_path / "stream.icet"
    save_trace(wl, str(path))
    back = load_trace(str(path))
    assert back.spec.kind == "trace_file"
    assert (back.spec.layers, back.spec.kv_heads, back.spec.query_heads_per_group) == (2, 2, 2)
    assert (back.spec.d, back.spec.d_prime, back.spec.n_tokens) == (12, 6, 64)
    # payload survives modulo the f32 cast
    assert np.allclose(back.keys, wl.keys, atol=1e-6)
    assert np.allclose(back.values, wl.values, atol=1e-6)
    # group queries are shared across the group's heads on load
    assert np.array_equal(back.queries[:, :, 0], back.queries[:, :, 1])
    assert np.allclose(back.queries[:, :, 0], wl.queries[:, :, 0], atol=1e-5)


def test_trace_header_layout(tmp_path):
    spec = WorkloadSpec(kind="uniform", n_tokens=3, d=2, d_prime=2, layers=1,
                        kv_heads=1, seed=7)
    path = tmp_path / "t.icet"
    save_trace(generate_workload(spec), str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"ICET"
    assert int.from_bytes(raw[4:8], "little") == 1
    fields = [int.from_bytes(raw[8 + 4 * i: 12 + 4 * i], "little") for i in range(6)]
    assert fields == [1, 1, 1, 2, 2, 3]
    assert len(raw) == 32 + 3 * 1 * 1 * (2 + 2 + 2) * 4


def test_malformed_traces_name_byte_offsets(tmp_path):
    path = tmp_path / "bad.icet"
    path.write_bytes(b"NOPE" + b"\x00" * 28)
    with pytest.raises(TraceFormatError, match="byte offset 0"):
        load_trace(str(path))
    path.write_bytes(b"ICET")
    with pytest.raises(TraceFormatError, match="byte offset"):
        load_trace(str(path))
    spec = WorkloadSpec(kind="uniform", n_tokens=4, d=2, d_prime=2, layers=1,
                        kv_heads=1, seed=8)
    good = tmp_path / "good.icet"
    save_trace(generate_workload(spec), str(good))
    truncated = good.read_bytes()[:-7]
    path.write_bytes(truncated)
    with pytest.raises(TraceFormatError, match="byte offset"):
        load_trace(str(path))
    # 6 floats per token after a 32-byte header: float 13 is token 2's key[1]
    payload = np.frombuffer(good.read_bytes(), dtype="<f4", offset=32).copy()
    payload[13], payload[20] = np.nan, -np.inf
    path.write_bytes(good.read_bytes()[:32] + payload.tobytes())
    with pytest.raises(TraceFormatError, match="non-finite value at byte offset 84$"):
        load_trace(str(path))
