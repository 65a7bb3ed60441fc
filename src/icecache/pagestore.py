"""Pages of token ids, the token-to-page table, and the two-tier residency store.

A page is a fixed-capacity row of token-id slots; it is the unit of
residency, selection, and transfer. Pages hold no vectors: each token's key
and value live once, in the engine's per-(layer, kv head) buffers at the row
given by the token id, as in a page table over one KV pool.

One TierStore per (layer, kv head) keeps the index's pages as flat arrays,
as PagedAttention's block table does:

  slots[p, :fill[p]]   the token ids of page p, in slot order (later slots unused)
  page_of[t]           the page listing token t, or NO_PAGE
  hot                  a boolean mask over page ids

A token sits in at most one page. Page ids count up, pages are never
closed, and one writer (`TierStore._put`) fills and grows the arrays. Every
page keeps its authoritative copy cold and is resident ("hot") only while
selected: each `backload` leaves exactly the selected pages hot, so
dropping a copy is free and only cold->hot moves are charged. The sink and
window tokens stay resident outside the store, as token ranges the engine
owns; `offload` charges the write of a window page folded into the index.

Transfer accounting models bulk moves: a backload gathers every cold page
it needs into one transaction regardless of page count, and bytes are
counted as tokens x (d + d') x SCALAR_BYTES (float32).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arrays import as_ids, grown
from .errors import ConsistencyError, InputError

DEFAULT_PAGE_SIZE = 16
SCALAR_BYTES = 4

NO_PAGE = -1


@dataclass
class TransferStats:
    """Monotone counters for page traffic between the two tiers."""

    transactions: int = 0
    bytes_moved: int = 0
    pages_backloaded: int = 0
    pages_filtered_resident: int = 0
    pages_offloaded: int = 0

    def add(self, other: "TransferStats") -> None:
        self.transactions += other.transactions
        self.bytes_moved += other.bytes_moved
        self.pages_backloaded += other.pages_backloaded
        self.pages_filtered_resident += other.pages_filtered_resident
        self.pages_offloaded += other.pages_offloaded


def _top(ids: np.ndarray) -> int:
    """The largest id, where a negative id counts as larger than any other."""
    return int(ids.view(np.uint64).max())


def find_page_index(key_ids: Iterable[int], store: "TierStore") -> np.ndarray:
    """Deduplicated, ascending page ids containing the given tokens."""
    ids = as_ids(key_ids)
    pages = store.page_of[ids] if not ids.size or _top(ids) < store.page_of.size else None
    if pages is None or (pages < 0).any():
        raise ConsistencyError("a token is not mapped to any page")
    listed = np.zeros(store.n_pages, dtype=bool)
    listed[pages] = True
    return np.flatnonzero(listed)


class TierStore:
    """The index's pages, their token table, and hot/cold residency with
    bulk-transfer accounting.

    Single-writer per (layer, head). Pages open cold and are only ever
    copied hot.
    """

    def __init__(self, d: int, d_prime: int, page_size: int = DEFAULT_PAGE_SIZE):
        if min(d, d_prime, page_size) < 1:
            raise InputError("d, d_prime and page_size must all be >= 1")
        self.d = d
        self.d_prime = d_prime
        self.page_size = page_size
        self.n_pages = 0                 # pages opened so far: the next page id
        self.slots = np.zeros((0, page_size), dtype=np.int64)
        self.fill = np.zeros(0, dtype=np.int64)
        self.hot = np.zeros(0, dtype=bool)
        self.page_of = np.zeros(0, dtype=np.int64)
        self.stats = TransferStats()

    # -- placement --------------------------------------------------------

    def open_pages(self, token_ids: Iterable[int], counts: Iterable[int]) -> np.ndarray:
        """Open one cold page per count, each count in [1, page_size] and
        each page holding the next `count` tokens in order: the checks, then
        one `_put`. Returns the new page ids, ascending."""
        tokens, counts = as_ids(token_ids), as_ids(counts)
        if counts.sum() != tokens.size or ((counts < 1) | (counts > self.page_size)).any():
            raise InputError(f"need one count in [1, {self.page_size}] per page, "
                             "summing to the number of tokens")
        self.check_unlisted(tokens)
        ids = np.arange(self.n_pages, self.n_pages + counts.size)
        self._put(np.repeat(ids, counts), tokens)
        return ids

    def check_unlisted(self, token_ids: Iterable[int]) -> None:
        """InputError unless the tokens are distinct, >= 0 and in no page. A
        pure check: only `_put` grows `page_of`, to hold the tokens it lists."""
        ordered = np.sort(as_ids(token_ids))
        if ordered.size and ordered[0] < 0:
            raise InputError("token ids must be >= 0")
        listed = self.page_of[ordered[ordered < self.page_of.size]] != NO_PAGE
        if (ordered[1:] == ordered[:-1]).any() or listed.any():
            raise InputError("a token repeats or is already in a page")

    def _put(self, page_ids: np.ndarray, tokens: np.ndarray) -> None:
        """Put token i in the next free slot of page page_ids[i], each page
        taking its tokens in the given order; page ids from `n_pages` up open
        new pages. The one writer of `slots`, `fill` and `page_of`, growing
        them and `hot` to fit. Unchecked: the tokens passed `check_unlisted`
        and the pages have room for them."""
        self.n_pages = max(self.n_pages, int(page_ids.max(initial=-1)) + 1)
        top = int(tokens.max(initial=-1)) + 1
        if top > self.page_of.size:
            self.page_of = grown(self.page_of, max(64, 2 * self.page_of.size, top), NO_PAGE)
        if self.n_pages > self.fill.size:
            cap = max(64, 2 * self.fill.size, self.n_pages)
            self.slots = grown(self.slots, cap)
            self.fill, self.hot = grown(self.fill, cap, 0), grown(self.hot, cap, False)
        order = np.argsort(page_ids, kind="stable")
        pages = page_ids[order]
        rank = np.arange(pages.size) - np.searchsorted(pages, pages)
        self.slots[pages, self.fill[pages] + rank] = tokens[order]
        self.fill[: self.n_pages] += np.bincount(page_ids, minlength=self.n_pages)
        self.page_of[tokens] = page_ids

    # -- lookup -----------------------------------------------------------

    def _pages(self, page_ids: Iterable[int]) -> np.ndarray:
        """The given page ids as an int array; ConsistencyError when one is
        not an open page."""
        pages = as_ids(page_ids)
        if pages.size and _top(pages) >= self.n_pages:
            raise ConsistencyError(f"unknown page id among {pages.tolist()}")
        return pages

    def tokens_in(self, page_ids: Iterable[int]) -> np.ndarray:
        """The token ids of the given pages, in page then slot order."""
        pages = self._pages(page_ids)
        in_use = np.arange(self.page_size) < self.fill.take(pages)[:, None]
        return self.slots.take(pages, axis=0)[in_use]

    # -- transfers ----------------------------------------------------

    def _bytes(self, tokens: int) -> int:
        return int(tokens) * (self.d + self.d_prime) * SCALAR_BYTES

    def backload(self, selected: Iterable[int]) -> TransferStats:
        """Make the hot set exactly the selected pages; returns the delta for
        this call.

        Selected pages already resident are filtered out; whatever remains
        moves in exactly one transaction (zero if nothing remains). Other
        pages drop out of the hot set for free: their authoritative copy is
        cold. A page listed twice is an InputError.
        """
        pages = self._pages(selected)
        keep = np.zeros_like(self.hot)
        keep[pages] = True
        if np.count_nonzero(keep) != pages.size:
            raise InputError("page ids repeat")
        to_move = pages[~self.hot[pages]]
        delta = TransferStats(
            transactions=1 if to_move.size else 0,
            bytes_moved=self._bytes(self.fill[to_move].sum()),
            pages_backloaded=int(to_move.size),
            pages_filtered_resident=int(pages.size - to_move.size),
        )
        self.hot = keep
        self.stats.add(delta)
        return delta

    def offload(self, n_tokens: int) -> TransferStats:
        """Charge writing one window page of n_tokens tokens to the cold tier:
        one transaction. The tokens then join the index's pages."""
        delta = TransferStats(transactions=1, bytes_moved=self._bytes(n_tokens),
                              pages_offloaded=1)
        self.stats.add(delta)
        return delta
