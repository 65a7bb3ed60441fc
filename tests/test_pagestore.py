"""Page mapping, residency transitions, and bulk-transfer accounting."""

import pytest

import numpy as np

from icecache import ConsistencyError, InputError, TierStore, TransferStats, find_page_index
from icecache.pagestore import NO_PAGE


def _store_with_pages(n_pages, fill, capacity=16, d=8, d_prime=8, hot=False):
    """Pages of `fill` tokens each, page i holding tokens i * capacity on;
    cold unless `hot`, when a first backload brings them in."""
    store = TierStore(d, d_prime, page_size=capacity)
    tokens = (np.arange(n_pages)[:, None] * capacity + np.arange(fill)).ravel()
    pages = store.open_pages(tokens, [fill] * n_pages).tolist()
    if hot:
        store.backload(pages)
    return store, pages


def _hot(store):
    return set(np.flatnonzero(store.hot).tolist())


# -- pages and the table -------------------------------------------------------


def test_page_rejects_overflow_and_duplicates():
    store = TierStore(4, 4, page_size=2)
    (page,) = store.open_pages([1, 2], [2])
    for tokens, counts in (([4, 4], [2]),     # a token in two slots
                           ([-1], [1]),       # a negative id
                           ([7, 10**5, 10**5], [1, 2]),  # the same, far past the table
                           ([2], [1]),        # already in the first page
                           ([4, 5, 6], [3]),  # overflow
                           ([4, 5], [2, 0]),  # an empty page
                           ([4, 5], [1]),     # counts short of the tokens
                           ([4, 5], [])):     # tokens but no page
        with pytest.raises(InputError):
            store.open_pages(tokens, counts)
    assert store.n_pages == 1 and store.tokens_in([page]).tolist() == [1, 2]
    for tokens, counts in (([4.0, 5.0], [2]), ([4, 5], [2.0]), ([True], [1])):  # not integers
        with pytest.raises(InputError):
            store.open_pages(tokens, counts)
    assert (store.page_of[4:] == NO_PAGE).all()
    assert store.open_pages([4, 5, 6], [2, 1]).tolist() == [1, 2]
    assert store.tokens_in([2, 1]).tolist() == [6, 4, 5]


def test_put_equals_appends_in_order():
    # The one page writer: each page takes its ids in the given order, as
    # appending one id at a time to each page's token list would, and page
    # ids from n_pages up open new pages in the same call.
    store, _ = _store_with_pages(4, 1, capacity=4)
    appended = [store.tokens_in([p]).tolist() for p in range(4)] + [[], []]
    pages = np.array([2, 5, 0, 2, 4, 3, 5, 2])
    tokens = np.array([40, 41, 42, 43, 44, 45, 46, 10**4])
    store.check_unlisted(tokens)
    store._put(pages, tokens)
    for page, token in zip(pages.tolist(), tokens.tolist()):
        appended[page].append(token)
    assert store.n_pages == 6 and not store.hot[:6].any()
    assert [store.tokens_in([p]).tolist() for p in range(6)] == appended
    assert store.fill[:6].tolist() == [len(page) for page in appended]
    assert store.page_of[tokens].tolist() == pages.tolist()
    store._put(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert store.n_pages == 6 and store.fill[:6].tolist() == [len(page) for page in appended]


def test_a_passing_check_leaves_the_page_table_size_as_it_was():
    # Only the writer grows `page_of`: a check of a far id allocates nothing.
    store, _ = _store_with_pages(2, 1)
    size = store.page_of.size
    store.check_unlisted([10**6])
    assert store.page_of.size == size


def test_find_page_index_single_page():
    store = TierStore(4, 4)
    store.open_pages(range(100, 105), [1] * 5)
    assert store.open_pages(range(8), [8]).tolist() == [5]
    assert find_page_index(range(8), store).tolist() == [5]


def test_find_page_index_distinct_pages_sorted():
    store = TierStore(4, 4)
    store.open_pages([*range(100, 105), 5, 4, 3, 2, 1, 0], [1] * 11)  # token t in page 10 - t
    assert find_page_index([3, 0, 5], store).tolist() == [5, 7, 10]


def test_find_page_index_unmapped_token():
    with pytest.raises(ConsistencyError):
        find_page_index([42], TierStore(4, 4))
    store = TierStore(4, 4)
    store.open_pages([0, 1, 5], [2, 1])
    for ids in ([3], [0, 6], [-1], [0, 100]):  # unlisted inside the page table, then past it
        with pytest.raises(ConsistencyError):
            find_page_index(ids, store)
    assert find_page_index([5, 0], store).tolist() == [0, 1]


def test_loaded_token_bound():
    # tokens inside any selected page set never exceed pages x capacity
    store, pages = _store_with_pages(6, fill=13, capacity=16)
    selected = find_page_index([store.tokens_in([p])[0] for p in pages[:4]], store)
    loaded = len(store.tokens_in(selected))
    assert loaded <= len(selected) * 16


# -- backload -------------------------------------------------------------------


def test_pages_open_cold():
    store = TierStore(4, 4, page_size=8)
    pages = store.open_pages(range(10), [8, 2])
    assert not store.hot[pages].any() and store.stats == TransferStats()


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


# The sink and window stay resident outside the store, so no page is pinned.


def test_backload_nothing_leaves_only_pinned_pages_hot():
    store, pages = _store_with_pages(3, fill=1, hot=True)
    delta = store.backload([])
    assert _hot(store) == set()
    assert store.tokens_in(pages).tolist() == [0, 16, 32]  # dropped from the hot set, still listed
    assert (delta.transactions, delta.bytes_moved, delta.pages_backloaded) == (0, 0, 0)


def test_backload_keeps_exactly_pinned_and_selected_hot():
    store, pages = _store_with_pages(4, fill=1, hot=True)
    store.backload(pages[1:3])
    assert _hot(store) == {*pages[1:3]}


def test_repeated_selection_backloads_nothing():
    store, pages = _store_with_pages(4, fill=2)
    first = store.backload(pages)
    hot = _hot(store)
    second = store.backload(pages)
    assert first.pages_backloaded == 4
    assert (second.pages_backloaded, second.bytes_moved, second.transactions) == (0, 0, 0)
    assert second.pages_filtered_resident == 4 and _hot(store) == hot


# -- offload ----------------------------------------------------------------------


def test_offload_charges_one_page_write():
    # a 3-token window page, d = d' = 8: 3 x 16 x 4 = 192 bytes
    store, pages = _store_with_pages(2, fill=1, hot=True)
    before = (store.slots.copy(), store.fill.copy(), store.page_of.copy(), _hot(store))
    delta = store.offload(3)
    assert (delta.transactions, delta.bytes_moved, delta.pages_offloaded) == (1, 192, 1)
    assert store.stats.transactions == 2 and store.stats.pages_offloaded == 1
    after = (store.slots, store.fill, store.page_of, _hot(store))
    assert all(np.array_equal(a, b) for a, b in zip(before[:3], after[:3]))
    assert before[3] == after[3]  # a write to the cold tier leaves the pages as they were


def test_offload_empty_page_counts_one_transaction():
    store = TierStore(8, 8)
    delta = store.offload(0)
    assert (delta.transactions, delta.bytes_moved, delta.pages_offloaded) == (1, 0, 1)


def test_stats_counters_are_monotone():
    store, pages = _store_with_pages(3, fill=2)
    snapshots = []
    store.backload([pages[0]])
    snapshots.append(store.stats.__dict__.copy())
    store.offload(2)
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
