"""Pages of token ids, the token-to-page table, and the two-tier residency store.

A page is a fixed-capacity list of token ids; it is the unit of residency,
selection, and transfer. Pages hold no vectors: each token's key and value
live once, in the engine's per-(layer, kv head) buffers at the row given by
the token id, as in a page table over one KV pool. The TierStore tracks
which pages are resident ("hot") versus offloaded ("cold"), with sink and
window pages pinned hot. Indexed pages keep their authoritative copy cold:
the hot side only ever holds copies, so eviction is free and only cold->hot
and hot->cold moves are charged.

Transfer accounting models bulk moves: a backload gathers every cold page
it needs into one transaction regardless of page count, and bytes are
counted as tokens x (d + d') x bytes-per-scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConsistencyError, InputError, PolicyError

SINK = "sink"
WINDOW = "window"
INDEXED = "indexed"

DEFAULT_PAGE_SIZE = 16
DEFAULT_SCALAR_BYTES = 4


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


class Page:
    """Fixed-capacity block of token ids."""

    __slots__ = ("page_id", "capacity", "role", "token_ids")

    def __init__(self, page_id: int, capacity: int, role: str = INDEXED):
        if capacity < 1:
            raise InputError(f"page capacity must be >= 1, got {capacity}")
        if role not in (SINK, WINDOW, INDEXED):
            raise InputError(f"unknown page role {role!r}")
        self.page_id = page_id
        self.capacity = capacity
        self.role = role
        self.token_ids: list[int] = []

    @property
    def fill(self) -> int:
        return len(self.token_ids)

    @property
    def full(self) -> bool:
        return self.fill >= self.capacity

    def append(self, token_id: int) -> None:
        if self.full:
            raise InputError(f"page {self.page_id} is full")
        if token_id in self.token_ids:
            raise InputError(f"token {token_id} already in page {self.page_id}")
        self.token_ids.append(int(token_id))

    def __repr__(self) -> str:
        return f"Page(id={self.page_id}, role={self.role}, fill={self.fill}/{self.capacity})"


class PageTable:
    """Mapping from tokens to the pages holding them."""

    def __init__(self) -> None:
        self.token_to_page: dict[int, int] = {}

    def map_token(self, token_id: int, page_id: int) -> None:
        self.token_to_page[int(token_id)] = page_id

    def page_of(self, token_id: int) -> int:
        try:
            return self.token_to_page[int(token_id)]
        except KeyError:
            raise ConsistencyError(f"token {token_id} is not mapped to any page") from None


def find_page_index(key_ids: Iterable[int], table: PageTable) -> list[int]:
    """Deduplicated, ascending page ids containing the given tokens."""
    return sorted({table.page_of(t) for t in key_ids})


class TierStore:
    """Hot/cold page residency with bulk-transfer accounting.

    Single-writer per (layer, head). Pages allocated with resident=True
    (sink/window) are authoritative on the hot side and may be pinned;
    indexed pages start cold and are only ever copied hot.
    """

    def __init__(self, d: int, d_prime: int, scalar_bytes: int = DEFAULT_SCALAR_BYTES):
        if d < 1 or d_prime < 1 or scalar_bytes < 1:
            raise InputError("d, d_prime and scalar_bytes must all be >= 1")
        self.d = d
        self.d_prime = d_prime
        self.scalar_bytes = scalar_bytes
        self.pages: dict[int, Page] = {}
        self.hot: set[int] = set()
        self.pinned: set[int] = set()
        self.stats = TransferStats()
        self._next_page_id = 0

    # -- allocation ---------------------------------------------------

    def allocate_page(self, capacity: int, role: str = INDEXED, *,
                      resident: bool = False, pinned: bool = False) -> Page:
        page = Page(self._next_page_id, capacity, role)
        self._next_page_id += 1
        self.pages[page.page_id] = page
        if resident:
            self.hot.add(page.page_id)
        if pinned:
            if not resident:
                raise InputError("a pinned page must be resident")
            self.pinned.add(page.page_id)
        return page

    def page(self, page_id: int) -> Page:
        try:
            return self.pages[page_id]
        except KeyError:
            raise ConsistencyError(f"unknown page id {page_id}") from None

    def release(self, page_id: int) -> None:
        """Drop a dissolved page from the registry (no transfer implied)."""
        self.page(page_id)
        self.hot.discard(page_id)
        self.pinned.discard(page_id)
        del self.pages[page_id]

    # -- transfers ----------------------------------------------------

    def page_bytes(self, page: Page) -> int:
        return page.fill * (self.d + self.d_prime) * self.scalar_bytes

    def backload(self, selected: Iterable[int]) -> TransferStats:
        """Bring the selected pages hot; returns the delta for this call.

        Pages already resident are filtered out; whatever remains moves in
        exactly one transaction (zero if nothing remains).
        """
        selected = list(selected)
        for pid in selected:
            self.page(pid)
        to_move = [pid for pid in selected if pid not in self.hot]
        delta = TransferStats(
            transactions=1 if to_move else 0,
            bytes_moved=sum(self.page_bytes(self.pages[pid]) for pid in to_move),
            pages_backloaded=len(to_move),
            pages_filtered_resident=len(selected) - len(to_move),
        )
        self.hot.update(to_move)
        self.stats.add(delta)
        return delta

    def offload(self, page_id: int) -> TransferStats:
        """Move a hot page to the cold tier (one transaction)."""
        page = self.page(page_id)
        if page.role == SINK:
            raise PolicyError(f"sink page {page_id} cannot be offloaded")
        if page_id not in self.hot:
            raise ConsistencyError(f"page {page_id} is not resident")
        self.hot.discard(page_id)
        self.pinned.discard(page_id)
        delta = TransferStats(
            transactions=1,
            bytes_moved=self.page_bytes(page),
            pages_offloaded=1,
        )
        self.stats.add(delta)
        return delta

    def evict_unselected(self, keep: Iterable[int]) -> None:
        """Shrink the hot set to keep | pinned; evictions cost nothing.

        Evicted pages are indexed pages whose authoritative copy already
        lives cold, so no write-back is modeled.
        """
        keep = set(keep)
        for pid in keep:
            self.page(pid)
        self.hot = keep | self.pinned

    # -- helpers ------------------------------------------------------

    def tokens_in(self, page_ids: Iterable[int]) -> list[int]:
        out: list[int] = []
        for pid in page_ids:
            out.extend(self.page(pid).token_ids)
        return out
