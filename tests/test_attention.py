"""Attention weights against hand-computable cases and a restricted-softmax oracle."""

import numpy as np
import pytest

from icecache import InputError, full_attention, gqa_union, sparse_attention


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


def test_selection_mass_is_subset_monotone():
    rng = np.random.default_rng(3)
    keys = rng.normal(size=(100, 8))
    values = rng.normal(size=(100, 4))
    q = rng.normal(size=8)
    full = full_attention(q, keys, values)
    order = np.argsort(-(keys @ q))
    prev = -1.0
    for size in (5, 20, 50, 100):
        mass = full.covered_mass(order[:size].tolist())
        assert mass >= prev - 1e-12
        prev = mass
    assert prev == pytest.approx(1.0, abs=1e-9)


def test_weights_view_reads_the_dense_arrays_in_attended_order():
    rng = np.random.default_rng(4)
    keys, values = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
    out = sparse_attention(rng.normal(size=4), [4, 1, 3], keys, values)
    assert out.token_ids.tolist() == list(out.weights) == [4, 1, 3]
    assert list(out.weights.values()) == out.dense_weights.tolist()
    assert out.covered_mass([3, 4, 9]) == pytest.approx(out.weights[3] + out.weights[4])
    del out.weights[1]
    assert list(out.weights) == [4, 3] and len(out.weights) == 2
    assert out.token_ids.tolist() == [4, 1, 3]  # edits change the view only
    ids = np.array([4, 1, 3])  # query heads of a group share one attended array
    with pytest.raises(ValueError):
        sparse_attention(rng.normal(size=4), ids, keys, values).token_ids[0] = 0
    assert ids.flags.writeable and ids.tolist() == [4, 1, 3]


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
