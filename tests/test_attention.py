"""Attention weights against hand-computable cases and a restricted-softmax
oracle, and the kernels the helper thread runs against the interpreter lock."""

import hashlib
from time import perf_counter

import numpy as np
import pytest

from icecache import InputError, full_attention, gqa_union, sparse_attention
from icecache.arrays import helper
from icecache.attention import _attend
from icecache.dci import PARENT_BLOCK, _parent_rows
from icecache.engine import _fill


def _restricted_softmax_oracle(q, keys, values, selected):
    """Brute-force masked attention, written independently of the package path."""
    d = len(q)
    logits = np.array([q @ k / np.sqrt(d) if j in selected else -np.inf
                       for j, k in enumerate(keys)])
    logits -= logits[np.isfinite(logits)].max()
    w = np.where(np.isfinite(logits), np.exp(logits), 0.0)
    w /= w.sum()
    return w, w @ np.asarray(values)


def test_single_key_gets_full_weight():
    out = full_attention(np.ones(4), [np.ones(4)], [np.array([2.0, 3.0])])
    assert out.weights == {0: 1.0}
    assert np.array_equal(out.value_out, [2.0, 3.0])


def test_identical_keys_split_weight():
    k = np.array([1.0, 2.0])
    out = full_attention(np.ones(2), [k, k], [np.zeros(1), np.ones(1)])
    assert out.weights[0] == pytest.approx(0.5)
    assert out.weights[1] == pytest.approx(0.5)


def test_orthogonal_query_gives_uniform_weights():
    keys = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0, 1.0, 0])]
    out = full_attention(np.array([0, 0, 5.0]), keys, np.eye(3))
    for w in out.weights.values():
        assert w == pytest.approx(1 / 3)


def test_weights_normalize_and_shift_invariance():
    rng = np.random.default_rng(0)
    q = rng.normal(size=8)
    keys = rng.normal(size=(30, 8))
    values = rng.normal(size=(30, 4))
    out = full_attention(q, keys, values)
    assert sum(out.weights.values()) == pytest.approx(1.0, abs=1e-6)
    # shifting every logit by a constant (keys + alpha * q / |q|^2 direction)
    shifted = keys + 0.7 * q / (q @ q) * np.sqrt(q.size)
    out2 = full_attention(q, shifted, values)
    for j in out.weights:
        assert out.weights[j] == pytest.approx(out2.weights[j], abs=1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        full_attention(np.ones(3), [np.ones(4)], [np.ones(2)])
    with pytest.raises(InputError):
        full_attention(np.ones(3), [np.ones(3)], [np.ones(2), np.ones(2)])


def test_full_attention_takes_2d_keys_only():
    """A lone key vector is not read as one token."""
    with pytest.raises(InputError, match="keys must be a non-empty sequence of vectors"):
        full_attention(np.ones(3), np.ones(3), np.ones((1, 2)))


def test_sparse_with_everything_selected_equals_full():
    rng = np.random.default_rng(1)
    q = rng.normal(size=16)
    entries = [(t, rng.normal(size=16), rng.normal(size=8)) for t in range(40)]
    keys = np.array([k for _, k, _ in entries])
    values = np.array([v for _, _, v in entries])
    sparse = sparse_attention(q, range(40), keys, values)
    full = full_attention(q, [k for _, k, _ in entries], [v for _, _, v in entries])
    assert np.allclose(sparse.value_out, full.value_out, rtol=1e-6)
    for t in range(40):
        assert sparse.weights[t] == pytest.approx(full.weights[t], abs=1e-12)


def test_sparse_single_token():
    keys = np.ones((7, 2))
    values = np.zeros((7, 1))
    values[5], values[6] = 1.0, 9.0
    out = sparse_attention(np.ones(2), {6}, keys, values)
    assert out.weights == {6: 1.0}
    assert out.value_out[0] == 9.0


def test_sparse_rejects_empty_or_unknown_selection():
    keys, values = np.ones((1, 2)), np.ones((1, 2))
    with pytest.raises(InputError):
        sparse_attention(np.ones(2), set(), keys, values)
    with pytest.raises(InputError):
        sparse_attention(np.ones(2), {3}, keys, values)


def test_sparse_rejects_negative_or_repeated_ids_and_keeps_selection_order():
    keys, values = np.eye(3), np.arange(6.0).reshape(3, 2)
    with pytest.raises(InputError):
        sparse_attention(np.ones(3), [-1], keys, values)
    with pytest.raises(InputError):
        sparse_attention(np.ones(3), [2, 0, 2], keys, values)
    out = sparse_attention(np.ones(3), [2, 0], keys, values)
    assert list(out.weights) == [2, 0]


def test_sparse_matches_restricted_softmax_oracle():
    # m=512, d=32; selection = exact top 64 plus sink and window ranges
    rng = np.random.default_rng(2)
    m, d = 512, 32
    keys = rng.normal(size=(m, d))
    values = rng.normal(size=(m, 16))
    q = rng.normal(size=d) * 2.0
    scores = keys @ q
    top64 = set(np.argsort(-scores)[:64].tolist())
    selected = top64 | set(range(16)) | set(range(m - 32, m))
    out = sparse_attention(q, selected, keys, values)
    oracle_w, oracle_v = _restricted_softmax_oracle(q, keys, values, selected)
    assert np.allclose(out.value_out, oracle_v, atol=1e-12)
    for t in selected:
        assert out.weights[t] == pytest.approx(oracle_w[t], abs=1e-12)
    # the approximation gap against unmasked attention is a tracked metric
    full = full_attention(q, keys, values)
    rel = np.linalg.norm(out.value_out - full.value_out) / np.linalg.norm(full.value_out)
    assert np.isfinite(rel)


def test_weights_view_reads_the_dense_arrays_in_attended_order():
    rng = np.random.default_rng(4)
    keys, values = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
    out = sparse_attention(rng.normal(size=4), [4, 1, 3], keys, values)
    assert out.token_ids.tolist() == list(out.weights) == [4, 1, 3]
    assert list(out.weights.values()) == out.dense_weights.tolist()
    del out.weights[1]
    assert list(out.weights) == [4, 3] and len(out.weights) == 2
    assert out.token_ids.tolist() == [4, 1, 3]  # edits change the view only
    ids = np.array([4, 1, 3])  # query heads of a group share one attended array
    with pytest.raises(ValueError):
        sparse_attention(rng.normal(size=4), ids, keys, values).token_ids[0] = 0
    assert ids.flags.writeable and ids.tolist() == [4, 1, 3]


def test_float_and_bool_ids_are_input_errors():
    # A cast would truncate 0.9 and 2.7 to tokens 0 and 2, and read a mask
    # as ids 0 and 1; integer sequences, ranges and int arrays still work.
    keys, values = np.eye(3), np.arange(6.0).reshape(3, 2)
    for ids in (np.array([0.9, 2.7]), [0.0, 2.0], np.array([True, True, False]), [True]):
        with pytest.raises(InputError):
            sparse_attention(np.ones(3), ids, keys, values)
    with pytest.raises(InputError):
        gqa_union([np.array([1.9, 3.2]), [2]])
    assert gqa_union([range(2), np.array([3], dtype=np.int32), (5,)]).tolist() == [0, 1, 3, 5]
    ids = np.array([2, 0])
    assert sparse_attention(np.ones(3), ids, keys, values).token_ids.base is ids


def test_gqa_union_cases():
    assert gqa_union([{1, 2}, {1, 2}]).tolist() == [1, 2]
    assert gqa_union([{1, 2}, {3, 4}]).tolist() == [1, 2, 3, 4]
    with pytest.raises(InputError):
        gqa_union([])


def test_gqa_union_cardinality_bounds():
    rng = np.random.default_rng(4)
    for _ in range(50):
        sets = [set(rng.integers(0, 30, size=rng.integers(1, 10)).tolist())
                for _ in range(rng.integers(1, 5))]
        union = set(gqa_union(sets).tolist())
        assert max(len(s) for s in sets) <= len(union) <= sum(len(s) for s in sets)
        for s in sets:
            assert s <= union


def _longest_stall(work) -> float:
    """The longest this thread went without running while the helper thread
    ran `work`: the widest gap between its perf_counter stamps within the
    call, the call's own start and end included."""
    def timed():
        start = perf_counter()
        work()
        return start, perf_counter()
    task = helper().submit(timed)
    stamps = []
    while not task.done():
        stamps.append(perf_counter())
    start, end = task.result()
    return float(np.diff([start, *(t for t in stamps if start < t < end), end]).max())


def _attend_work():
    rng = np.random.default_rng(5)
    keys, values = rng.normal(size=(50_000, 64)), rng.normal(size=(50_000, 64))
    q, ids = rng.normal(size=64), np.arange(50_000)
    return lambda: _attend(q, keys, values, ids)


def _fill_work():
    source, slab = np.random.default_rng(6).normal(size=(50_000, 64)), np.empty((50_000, 64))
    return lambda: _fill(iter([(slab, source)]))


def _parent_rows_work():
    """One level of three blocks, each scored against 8,000 candidates; on
    the helper thread the scan keeps every block, as a call made there does."""
    buf = np.random.default_rng(7).normal(size=(8000 + 3 * PARENT_BLOCK, 64)).astype(np.float32)
    buf /= np.linalg.norm(buf, axis=1, keepdims=True)
    top = np.zeros(buf.shape[0], dtype=np.int64)
    top[:8000] = 1
    rows = np.arange(8000, buf.shape[0])
    return lambda: _parent_rows(buf, top, rows)


def _host_gap() -> float:
    """The longest stall beside a call sure to release the interpreter lock
    (hashlib releases it while it hashes more than 2 KiB), worst of five:
    the gaps the host's own scheduling puts in a probe."""
    data = bytes(8 << 20)
    return max(_longest_stall(lambda: hashlib.sha256(data).digest()) for _ in range(5))


@pytest.mark.parametrize("make_work", [_attend_work, _fill_work, _parent_rows_work])
def test_helper_kernels_release_the_interpreter_lock(make_work):
    """The work the helper thread runs (exact attention in decode, the slab
    copy and check in prefill, a build's parent scan) lets the calling
    thread run beside it: the longest the calling thread stalls, in the
    best of five trials, is under a quarter of the call's fastest time
    alone, plus the host's own gaps. A BLAS call that held the lock, such
    as NumPy 2.4's 1-D @ 2-D matmul, stalls it for about half of an exact
    attention call's time alone."""
    work = make_work()
    solo = []
    for _ in range(5):
        start = perf_counter()
        work()
        solo.append(perf_counter() - start)
    assert min(_longest_stall(work) for _ in range(5)) < min(solo) / 4 + _host_gap()
