"""Page mapping, residency transitions, and bulk-transfer accounting."""

import pytest

from icecache import (ConsistencyError, InputError, Page, PageTable, PolicyError,
                      TierStore, find_page_index)
from icecache.pagestore import INDEXED, SINK, WINDOW


def _store_with_pages(n_pages, fill, capacity=16, d=8, d_prime=8, resident=False):
    store = TierStore(d, d_prime)
    pages = []
    for i in range(n_pages):
        page = store.allocate_page(capacity, INDEXED, resident=resident)
        for j in range(fill):
            page.append(i * capacity + j)
        pages.append(page)
    return store, pages


# -- pages and the table -------------------------------------------------------


def test_page_rejects_overflow_and_duplicates():
    page = Page(0, 2)
    page.append(1)
    with pytest.raises(InputError):
        page.append(1)
    page.append(2)
    with pytest.raises(InputError):
        page.append(3)


def test_find_page_index_single_page():
    table = PageTable()
    for t in range(8):
        table.map_token(t, 5)
    assert find_page_index(range(8), table) == [5]


def test_find_page_index_distinct_pages_sorted():
    table = PageTable()
    for t in range(6):
        table.map_token(t, 10 - t)
    assert find_page_index([3, 0, 5], table) == [5, 7, 10]


def test_find_page_index_unmapped_token():
    with pytest.raises(ConsistencyError):
        find_page_index([42], PageTable())


def test_loaded_token_bound():
    # tokens inside any selected page set never exceed pages x capacity
    store, pages = _store_with_pages(6, fill=13, capacity=16)
    table = PageTable()
    for page in pages:
        for t in page.token_ids:
            table.map_token(t, page.page_id)
    selected = find_page_index([p.token_ids[0] for p in pages[:4]], table)
    loaded = len(store.tokens_in(selected))
    assert loaded <= len(selected) * 16


# -- backload -------------------------------------------------------------------


def test_backload_all_resident_is_free():
    store, pages = _store_with_pages(3, fill=4, resident=True)
    delta = store.backload([p.page_id for p in pages])
    assert (delta.transactions, delta.bytes_moved, delta.pages_backloaded) == (0, 0, 0)
    assert delta.pages_filtered_resident == 3


def test_backload_byte_arithmetic():
    # 5 cold pages, each full at s=16, d = d' = 8, 4-byte scalars
    store, pages = _store_with_pages(5, fill=16, capacity=16, d=8, d_prime=8)
    delta = store.backload([p.page_id for p in pages])
    assert delta.transactions == 1
    assert delta.bytes_moved == 5 * 16 * (8 + 8) * 4 == 5120


def test_backload_mixed_residency_single_transaction():
    store, pages = _store_with_pages(5, fill=2)
    store.backload([p.page_id for p in pages[:3]])
    delta = store.backload([p.page_id for p in pages])
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
    before = list(page.token_ids)
    store.offload(page.page_id)
    assert page.page_id not in store.hot
    store.backload([page.page_id])
    assert page.page_id in store.hot
    assert store.stats.transactions == 2
    # conservation: the page lists the same token ids after the round trip
    assert before == page.token_ids


def test_offload_empty_page_counts_one_transaction():
    store = TierStore(8, 8)
    page = store.allocate_page(16, WINDOW, resident=True)
    delta = store.offload(page.page_id)
    assert (delta.transactions, delta.bytes_moved, delta.pages_offloaded) == (1, 0, 1)


def test_offload_sink_page_is_policy_error():
    store = TierStore(8, 8)
    page = store.allocate_page(16, SINK, resident=True, pinned=True)
    with pytest.raises(PolicyError):
        store.offload(page.page_id)


def test_offload_cold_page_is_inconsistent():
    store, (page,) = _store_with_pages(1, fill=1)
    with pytest.raises(ConsistencyError):
        store.offload(page.page_id)


def test_offload_unpins_window_pages():
    store = TierStore(4, 4)
    page = store.allocate_page(8, WINDOW, resident=True, pinned=True)
    store.offload(page.page_id)
    assert page.page_id not in store.pinned


# -- eviction -----------------------------------------------------------------------


def test_evict_keep_current_hot_is_noop():
    store, pages = _store_with_pages(4, fill=1, resident=True)
    hot = set(store.hot)
    store.evict_unselected(hot)
    assert store.hot == hot


def test_evict_everything_leaves_pinned():
    store = TierStore(4, 4)
    pinned = store.allocate_page(8, SINK, resident=True, pinned=True)
    loose = store.allocate_page(8, INDEXED, resident=True)
    store.evict_unselected([])
    assert store.hot == {pinned.page_id}
    assert loose.page_id in store.pages  # evicted, not released


def test_repeated_selection_backloads_nothing_after_eviction():
    store, pages = _store_with_pages(4, fill=2)
    ids = [p.page_id for p in pages]
    first = store.backload(ids)
    store.evict_unselected(ids)
    second = store.backload(ids)
    assert first.pages_backloaded == 4
    assert (second.pages_backloaded, second.bytes_moved, second.transactions) == (0, 0, 0)


def test_stats_counters_are_monotone():
    store, pages = _store_with_pages(3, fill=2)
    snapshots = []
    store.backload([pages[0].page_id])
    snapshots.append(store.stats.__dict__.copy())
    store.offload(pages[0].page_id)
    snapshots.append(store.stats.__dict__.copy())
    store.backload([p.page_id for p in pages])
    snapshots.append(store.stats.__dict__.copy())
    for a, b in zip(snapshots, snapshots[1:]):
        assert all(b[k] >= a[k] for k in a)


def test_release_forgets_page():
    store, (page,) = _store_with_pages(1, fill=1, resident=True)
    store.release(page.page_id)
    with pytest.raises(ConsistencyError):
        store.page(page.page_id)
