"""Page mapping, residency transitions, and bulk-transfer accounting."""

import pytest

import numpy as np

from icecache import ConsistencyError, InputError, PolicyError, TierStore, find_page_index
from icecache.pagestore import INDEXED, NO_PAGE, SINK, WINDOW


def _store_with_pages(n_pages, fill, capacity=16, d=8, d_prime=8, hot=False):
    """Indexed pages, cold unless `hot`, when a first backload brings them in."""
    store = TierStore(d, d_prime, page_size=capacity)
    pages = []
    for i in range(n_pages):
        page = store.allocate_page(INDEXED)
        for j in range(fill):
            store.append(page, i * capacity + j)
        pages.append(page)
    if hot:
        store.backload(pages)
    return store, pages


def _hot(store):
    return set(np.flatnonzero(store.hot).tolist())


# -- pages and the table -------------------------------------------------------


def test_page_rejects_overflow_and_duplicates():
    store = TierStore(4, 4, page_size=2)
    page = store.allocate_page()
    store.append(page, 1)
    with pytest.raises(InputError):
        store.append(page, 1)
    store.append(page, 2)
    with pytest.raises(InputError):
        store.append(page, 3)
    for tokens, counts in (([4, 4], [2]),     # a token in two slots
                           ([7, 10**5, 10**5], [1, 2]),  # the same, far past the table
                           ([2], [1]),        # already in the first page
                           ([4, 5, 6], [3]),  # overflow
                           ([4, 5], [1]),     # counts short of the tokens
                           ([4, 5], [])):     # tokens but no page
        with pytest.raises(InputError):
            store.open_pages(tokens, counts)
    assert store.n_pages == 1 and store.tokens_in([page]).tolist() == [1, 2]
    assert (store.page_of[4:] == NO_PAGE).all()
    assert store.open_pages([4, 5, 6], [2, 0, 1]).tolist() == [1, 2, 3]
    assert store.tokens_in([3, 1, 2]).tolist() == [6, 4, 5]


def test_join_equals_appends_in_order():
    # The tree's one array write for ids joining existing pages: each page
    # takes its ids in the given order, as one append per id would.
    joined, appended = (_store_with_pages(4, 1, capacity=4)[0] for _ in range(2))
    pages, tokens = np.array([2, 0, 2, 3, 2]), np.array([40, 41, 42, 43, 44])
    joined.check_unlisted(tokens)
    joined._join(pages, tokens)
    for page, token in zip(pages.tolist(), tokens.tolist()):
        appended.append(page, token)
    for name in ("slots", "fill", "page_of"):
        assert np.array_equal(getattr(joined, name), getattr(appended, name)), name
    joined._join(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert np.array_equal(joined.fill, appended.fill)


def test_find_page_index_single_page():
    store = TierStore(4, 4)
    assert store.open_pages(range(8), [0] * 5 + [8]).tolist() == list(range(6))
    assert find_page_index(range(8), store).tolist() == [5]


def test_find_page_index_distinct_pages_sorted():
    store = TierStore(4, 4)
    store.open_pages([5, 4, 3, 2, 1, 0], [0] * 5 + [1] * 6)  # token t in page 10 - t
    assert find_page_index([3, 0, 5], store).tolist() == [5, 7, 10]


def test_find_page_index_unmapped_token():
    with pytest.raises(ConsistencyError):
        find_page_index([42], TierStore(4, 4))


def test_loaded_token_bound():
    # tokens inside any selected page set never exceed pages x capacity
    store, pages = _store_with_pages(6, fill=13, capacity=16)
    selected = find_page_index([store.tokens_in([p])[0] for p in pages[:4]], store)
    loaded = len(store.tokens_in(selected))
    assert loaded <= len(selected) * 16


# -- backload -------------------------------------------------------------------


def test_pages_open_hot_and_pinned_by_role():
    store = TierStore(4, 4, page_size=8)
    sink, window, indexed = (store.allocate_page(role) for role in (SINK, WINDOW, INDEXED))
    assert store.hot[[sink, window, indexed]].tolist() == [True, True, False]
    assert store.pinned[[sink, window, indexed]].tolist() == [True, True, False]


def test_backload_all_resident_is_free():
    store, pages = _store_with_pages(3, fill=4, hot=True)
    delta = store.backload(pages)
    assert (delta.transactions, delta.bytes_moved, delta.pages_backloaded) == (0, 0, 0)
    assert delta.pages_filtered_resident == 3


def test_backload_byte_arithmetic():
    # 5 cold pages, each full at s=16, d = d' = 8, 4-byte scalars
    store, pages = _store_with_pages(5, fill=16, capacity=16, d=8, d_prime=8)
    delta = store.backload(pages)
    assert delta.transactions == 1
    assert delta.bytes_moved == 5 * 16 * (8 + 8) * 4 == 5120


def test_backload_mixed_residency_single_transaction():
    store, pages = _store_with_pages(5, fill=2)
    store.backload(pages[:3])
    delta = store.backload(pages)
    assert delta.transactions == 1
    assert delta.pages_backloaded == 2
    assert delta.pages_filtered_resident == 3


def test_backload_unknown_page():
    store, _ = _store_with_pages(1, fill=1)
    with pytest.raises(ConsistencyError):
        store.backload([404])


def test_backload_nothing_leaves_only_pinned_pages_hot():
    store, pages = _store_with_pages(3, fill=1, hot=True)
    sink = store.allocate_page(SINK)
    delta = store.backload([])
    assert _hot(store) == {sink}
    assert store.live[pages].all()  # dropped from the hot set, not dissolved
    assert (delta.transactions, delta.bytes_moved, delta.pages_backloaded) == (0, 0, 0)


def test_backload_keeps_exactly_pinned_and_selected_hot():
    store, pages = _store_with_pages(4, fill=1, hot=True)
    window = store.allocate_page(WINDOW)
    store.backload(pages[1:3])
    assert _hot(store) == {*pages[1:3], window}


def test_repeated_selection_backloads_nothing():
    store, pages = _store_with_pages(4, fill=2)
    first = store.backload(pages)
    hot = _hot(store)
    second = store.backload(pages)
    assert first.pages_backloaded == 4
    assert (second.pages_backloaded, second.bytes_moved, second.transactions) == (0, 0, 0)
    assert second.pages_filtered_resident == 4 and _hot(store) == hot


# -- offload ----------------------------------------------------------------------


def test_offload_dissolves_a_window_page():
    # a 3-token window page, d = d' = 8: 3 x 16 x 4 = 192 bytes
    store = TierStore(8, 8)
    page = store.open_pages([5, 6, 7], [3], WINDOW)[0]
    delta = store.offload(page)
    assert (delta.transactions, delta.bytes_moved, delta.pages_offloaded) == (1, 192, 1)
    assert store.stats.transactions == 1
    assert not (store.live[page] or store.hot[page] or store.pinned[page])
    assert (store.page_of[5:8] == NO_PAGE).all()
    with pytest.raises(ConsistencyError):
        find_page_index([5], store)
    with pytest.raises(ConsistencyError):
        store.tokens_in([page])
    with pytest.raises(ConsistencyError):
        store.backload([page])
    with pytest.raises(ConsistencyError):
        store.offload(page)
    # the freed tokens can be filed in another page
    assert store.open_pages([5, 6, 7], [3]).tolist() == [1]


def test_offload_empty_page_counts_one_transaction():
    store = TierStore(8, 8)
    page = store.allocate_page(WINDOW)
    delta = store.offload(page)
    assert (delta.transactions, delta.bytes_moved, delta.pages_offloaded) == (1, 0, 1)


def test_offload_sink_page_is_policy_error():
    store = TierStore(8, 8)
    page = store.allocate_page(SINK)
    with pytest.raises(PolicyError):
        store.offload(page)
    assert store.live[page] and store.stats.pages_offloaded == 0


def test_offload_hot_indexed_page_is_policy_error():
    store, (page,) = _store_with_pages(1, fill=1, hot=True)
    with pytest.raises(PolicyError):
        store.offload(page)
    assert store.live[page] and store.stats.pages_offloaded == 0


def test_offload_cold_page_is_inconsistent():
    store, (page,) = _store_with_pages(1, fill=1)
    with pytest.raises(ConsistencyError):
        store.offload(page)


def test_offload_unpins_window_pages():
    store = TierStore(4, 4, page_size=8)
    page = store.allocate_page(WINDOW)
    store.offload(page)
    assert not store.pinned[page]


def test_stats_counters_are_monotone():
    store, pages = _store_with_pages(3, fill=2)
    window = store.open_pages([100, 101], [2], WINDOW)[0]
    snapshots = []
    store.backload([pages[0]])
    snapshots.append(store.stats.__dict__.copy())
    store.offload(window)
    snapshots.append(store.stats.__dict__.copy())
    store.backload(pages)
    snapshots.append(store.stats.__dict__.copy())
    for a, b in zip(snapshots, snapshots[1:]):
        assert all(b[k] >= a[k] for k in a)


def test_repeated_page_ids_are_input_errors():
    # one cold 4-token page, d = d' = 8: a page is 4 x 16 x 4 = 256 bytes
    store, (page,) = _store_with_pages(1, fill=4)
    with pytest.raises(InputError):
        store.backload([page, page])
    assert store.stats.bytes_moved == 0 and not store.hot[page]
    delta = store.backload([page])
    assert (delta.bytes_moved, delta.pages_backloaded) == (256, 1)
