"""Lifting transforms against their algebraic identities and brute force."""

import numpy as np
import pytest

from icecache import (DegenerateQueryError, InputError, KeyScale, exact_topk, lift_keys,
                      transform_query)


def _lift(keys, c):
    """Key rows lifted into float64, and their lengths s / c."""
    keys = np.atleast_2d(np.asarray(keys, dtype=float))
    out = np.empty((len(keys), keys.shape[1] + 1))
    return out, lift_keys(keys, KeyScale(c), out)


def test_zero_key_forces_unit_last_coordinate():
    out, length = _lift(np.zeros(4), 1.0)
    assert np.array_equal(out, [[0, 0, 0, 0, 1]]) and length.tolist() == [1.0]


def test_key_at_scale_norm_has_zero_last_coordinate():
    k = np.array([3.0, 4.0])
    (out,), length = _lift(k, 5.0)
    assert out[-1] == 0.0 and length.tolist() == [1.0]
    assert np.allclose(out[:-1], k / 5.0)


def test_lifted_distance_identity_on_random_pairs():
    # |T_Q(q) - T_K(k)|^2 == 2 - 2 (q.k) / (c |q|), checked by expansion
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = rng.normal(size=16)
        q = rng.normal(size=16)
        c = float(np.linalg.norm(k)) * 1.5
        (lifted,), _ = _lift(k, c)
        assert np.allclose(lifted, np.append(k / c, np.sqrt(1.0 - (k @ k) / c**2)),
                           rtol=0, atol=1e-15)
        lhs = float(((transform_query(q) - lifted) ** 2).sum())
        rhs = 2.0 - 2.0 * float(q @ k) / (c * float(np.linalg.norm(q)))
        assert abs(lhs - rhs) < 1e-6


def test_lifted_keys_have_unit_norm():
    rng = np.random.default_rng(1)
    keys = rng.normal(size=(200, 12))
    scale = KeyScale.from_keys(keys)
    # a key exactly at the scale boundary stays unit
    edge = keys[0] / np.linalg.norm(keys[0]) * scale.c
    out, length = _lift(np.vstack([keys, edge]), scale.c)
    norms = np.sqrt(1.0 - (keys * keys).sum(axis=1) / scale.c**2)
    assert np.allclose(out[:-1], np.column_stack([keys / scale.c, norms]), rtol=0, atol=1e-15)
    assert (np.abs(np.linalg.norm(out, axis=1) - 1.0) < 1e-6).all()
    assert (length[:-1] == 1.0).all() and length[-1] == pytest.approx(1.0, abs=1e-15)


def test_lift_keys_clamps_a_key_past_the_scale():
    """A key past the scale is normalized onto [k / |k|, 0], and its length
    s / c times that row is [k / c, 0]: a query scoring the row times the
    length gets the key's true product over c."""
    keys = np.array([[2.0, 0.0], [0.5, 0.5], [0.0, -3.0]])
    out, length = _lift(keys, 1.0)
    assert np.array_equal(out[[0, 2]], [[1, 0, 0], [0, -1, 0]])
    assert length.tolist() == [2.0, 1.0, 3.0]
    assert np.allclose(out[:, :-1] * length[:, None], keys, rtol=0, atol=1e-15)


def test_lift_keys_clamps_rounding_level_excess():
    (out,), (length,) = _lift([1.0 + 1e-12, 0.0], 1.0)
    assert out[-1] == 0.0 and length > 1.0


def test_transform_query_basis_vectors():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(transform_query(e1), [1, 0, 0, 0])
    assert np.array_equal(transform_query(3.0 * e1), [1, 0, 0, 0])


def test_transform_query_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.normal(size=8)
        base = transform_query(q)
        for alpha in (0.5, 2.0, 4.0):  # power-of-two scalings are exact
            assert np.array_equal(transform_query(alpha * q), base)
        for alpha in (3.0, 0.7):
            assert np.allclose(transform_query(alpha * q), base, rtol=0, atol=1e-15)


def test_transform_query_rejects_zero():
    with pytest.raises(DegenerateQueryError):
        transform_query(np.zeros(4))


def test_exact_topk_orthogonal_basis():
    keys = np.eye(3)
    assert exact_topk(keys[1], keys, 1) == [1]


def test_exact_topk_small_instance():
    keys = [(1.0, 0.0), (0.9, 0.1), (0.0, 1.0)]  # scores 1.0, 0.9, 0.0
    assert exact_topk(np.array([1.0, 0.0]), keys, 2) == [0, 1]


def test_exact_topk_full_permutation():
    rng = np.random.default_rng(3)
    keys = rng.normal(size=(20, 6))
    q = rng.normal(size=6)
    order = exact_topk(q, keys, 20)
    assert sorted(order) == list(range(20))
    scores = keys @ q
    assert all(scores[a] >= scores[b] for a, b in zip(order, order[1:]))


def test_exact_topk_overask_returns_all():
    keys = np.eye(3)
    assert len(exact_topk(keys[0], keys, 10)) == 3


def test_exact_topk_tie_breaks_toward_smaller_index():
    keys = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    assert exact_topk(np.array([1.0, 0.0]), keys, 2) == [0, 1]


def test_exact_topk_input_errors():
    with pytest.raises(InputError):
        exact_topk(np.ones(2), np.ones((3, 2)), 0)
    with pytest.raises(InputError):
        exact_topk(np.ones(3), np.ones((3, 2)), 1)


def test_mips_nn_orderings_agree():
    # Sorting keys by lifted distance must equal sorting by inner product.
    rng = np.random.default_rng(4)
    for _ in range(10):
        keys = rng.normal(size=(100, 24))
        q = rng.normal(size=24)
        scale = KeyScale.from_keys(keys)
        tq = transform_query(q)
        lifted = np.empty((len(keys), 25))
        lift_keys(keys, scale, lifted)
        d2 = ((lifted - tq) ** 2).sum(axis=1)
        by_distance = np.lexsort((np.arange(len(keys)), d2))
        assert list(by_distance) == exact_topk(q, keys, len(keys))


def test_keyscale_from_keys_headroom_and_zero_keys():
    keys = np.array([[3.0, 4.0], [0.0, 1.0]])
    assert KeyScale.from_keys(keys).c == pytest.approx(5.25)
    assert KeyScale.from_keys(np.zeros((4, 2))).c == pytest.approx(1.05)
    with pytest.raises(InputError):
        KeyScale(-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_keyscale_from_keys_names_non_finite_keys(bad):
    keys = np.ones((5, 3))
    keys[2, 1] = bad
    with pytest.raises(InputError, match="non-finite keys"):
        KeyScale.from_keys(keys)
