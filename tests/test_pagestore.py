"""Page mapping, residency transitions, and bulk-transfer accounting."""

import pytest

import numpy as np

from icecache import ConsistencyError, InputError, PolicyError, TierStore, find_page_index
from icecache.pagestore import INDEXED, NO_PAGE, SINK, WINDOW


def _store_with_pages(n_pages, fill, capacity=16, d=8, d_prime=8, resident=False):
    store = TierStore(d, d_prime, page_size=capacity)
    pages = []
    for i in range(n_pages):
        page = store.allocate_page(INDEXED, resident=resident)
        for j in range(fill):
            store.append(page, i * capacity + j)
        pages.append(page)
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


def test_backload_all_resident_is_free():
    store, pages = _store_with_pages(3, fill=4, resident=True)
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


# -- offload ----------------------------------------------------------------------


def test_offload_backload_round_trip():
    store, (page,) = _store_with_pages(1, fill=3, resident=True)
    before = store.tokens_in([page]).tolist()
    store.offload(page)
    assert page not in _hot(store)
    store.backload([page])
    assert page in _hot(store)
    assert store.stats.transactions == 2
    # conservation: the page lists the same token ids after the round trip
    assert before == store.tokens_in([page]).tolist()


def test_offload_empty_page_counts_one_transaction():
    store = TierStore(8, 8)
    page = store.allocate_page(WINDOW, resident=True)
    delta = store.offload(page)
    assert (delta.transactions, delta.bytes_moved, delta.pages_offloaded) == (1, 0, 1)


def test_offload_sink_page_is_policy_error():
    store = TierStore(8, 8)
    page = store.allocate_page(SINK, resident=True, pinned=True)
    with pytest.raises(PolicyError):
        store.offload(page)


def test_offload_cold_page_is_inconsistent():
    store, (page,) = _store_with_pages(1, fill=1)
    with pytest.raises(ConsistencyError):
        store.offload(page)


def test_offload_unpins_window_pages():
    store = TierStore(4, 4, page_size=8)
    page = store.allocate_page(WINDOW, resident=True, pinned=True)
    store.offload(page)
    assert not store.pinned[page]


# -- eviction -----------------------------------------------------------------------


def test_evict_keep_current_hot_is_noop():
    store, pages = _store_with_pages(4, fill=1, resident=True)
    hot = _hot(store)
    store.evict_unselected(hot)
    assert _hot(store) == hot


def test_evict_everything_leaves_pinned():
    store = TierStore(4, 4, page_size=8)
    pinned = store.allocate_page(SINK, resident=True, pinned=True)
    loose = store.allocate_page(INDEXED, resident=True)
    store.evict_unselected([])
    assert _hot(store) == {pinned}
    assert store.live[loose]  # evicted, not released


def test_repeated_selection_backloads_nothing_after_eviction():
    store, pages = _store_with_pages(4, fill=2)
    ids = pages
    first = store.backload(ids)
    store.evict_unselected(ids)
    second = store.backload(ids)
    assert first.pages_backloaded == 4
    assert (second.pages_backloaded, second.bytes_moved, second.transactions) == (0, 0, 0)


def test_stats_counters_are_monotone():
    store, pages = _store_with_pages(3, fill=2)
    snapshots = []
    store.backload([pages[0]])
    snapshots.append(store.stats.__dict__.copy())
    store.offload(pages[0])
    snapshots.append(store.stats.__dict__.copy())
    store.backload(pages)
    snapshots.append(store.stats.__dict__.copy())
    for a, b in zip(snapshots, snapshots[1:]):
        assert all(b[k] >= a[k] for k in a)


def test_release_forgets_page():
    store, (page,) = _store_with_pages(1, fill=1, resident=True)
    store.release(page)
    with pytest.raises(ConsistencyError):
        store.tokens_in([page])
    with pytest.raises(ConsistencyError):
        find_page_index([0], store)  # its token is unmapped too


def test_repeated_page_ids_are_input_errors():
    # one cold 4-token page, d = d' = 8: a page is 4 x 16 x 4 = 256 bytes
    store, (page,) = _store_with_pages(1, fill=4)
    with pytest.raises(InputError):
        store.backload([page, page])
    with pytest.raises(InputError):
        store.evict_unselected([page, page])
    assert store.stats.bytes_moved == 0 and not store.hot[page]
    delta = store.backload([page])
    assert (delta.bytes_moved, delta.pages_backloaded) == (256, 1)
