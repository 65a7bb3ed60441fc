"""End-to-end orchestration over a pre-generated q/k/v stream.

Keys and values live in one array each, (layer, kv head, token, dim): each
head's slab, indexed by token id, is the only copy of its cache. Everything
else refers to rows by id: pages list token ids, the tree indexes ids, and
attention gathers the selected rows. Prefill copies the prompt in, so later
writes to the workload's arrays do not reach the engine, and sizes the
arrays and every tree for the whole stream, so decode never regrows them.

Prefill splits the prompt into the sink, the window and a middle region
whose keys are clustered into a per-(layer, head) tree whose leaves own
the store's pages. The sink and each indexed layer's window are token
ranges that stay resident, as in StreamingLLM: the sink is [0, sink_end)
and a layer's window is [window_start[layer], n), where window_start is
page-aligned. The store's pages are hot only in a step that selects them.
Decode then runs, per layer: the window fold (charge the offload of the
window's oldest page, insert its tokens into every head's tree, and move
window_start up by page_size) at the layer's fold step, page selection
(fresh per-query-head tree queries on anchor layers, the anchor's tokens
on reuse layers), one page lookup of the group's token union, one backload
per head, and sparse attention over the sink and window tokens plus the
selected pages.

Folds are spread over the page, one indexed layer at a time, so that no
step pays every tree's insert. Indexed layer l folds when the newest window
page's fill, token % page_size + 1 for every layer, reaches
page_size * (l - skip_layers) // n_indexed + 1, and only while its window
holds more than window_pages pages. So a window holds window_pages to
window_pages + 1 pages, and with n_indexed <= page_size at most one layer
folds on a step; otherwise layers sharing a fill fold in layer order. The
fill rises with the layer, so an anchor folds a page no later than the
reuse layers that read its selection, and a reuse layer's window can start
a page below its anchor's. A reuse layer looks up only the anchor tokens
below its own window start in its page table: the others are its window
tokens, attended once as such.

Selections stay int64 id arrays from the tree's result to the gather: the
attended set is the sink range, the window range and one gather over the
selected pages, in that order.

The first skip_layers layers are not indexed and attend exactly, as does
the whole engine when the prompt is too short to split. The engine is not
a transformer: embeddings come from the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionOutput, full_attention, gqa_union, sparse_attention
from .dci import SENTINEL_LEVEL, DciTree, SearchBudget, dci_indexing
from .errors import ConfigError, DegenerateQueryError, InputError
from .geometry import transform_query
from .pagestore import TierStore, TransferStats, find_page_index
from .workload import DecodeStep, Workload


@dataclass
class EngineConfig:
    """Shape, paging, and search-budget knobs for one run."""

    layers: int = 4
    kv_heads: int = 2
    query_heads_per_group: int = 1
    d: int = 64
    d_prime: int = 64
    page_size: int = 16
    token_budget: int = 64
    promotion_ratio: float = 0.1
    sink_pages: int = 1
    window_pages: int = 2
    skip_layers: int = 2
    reuse_stride: int = 0        # 0: every indexed layer is an anchor; >= 2 enables reuse
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.layers, self.kv_heads, self.query_heads_per_group,
               self.d, self.d_prime) < 1:
            raise ConfigError("layers, head counts and dims must be >= 1")
        if self.page_size < 2:
            raise ConfigError("page_size must be >= 2")
        if self.token_budget < 1:
            raise ConfigError("token_budget must be >= 1")
        if not 0.0 < self.promotion_ratio < 1.0:
            raise ConfigError("promotion_ratio must lie in (0, 1)")
        if self.sink_pages < 1 or self.window_pages < 1:
            raise ConfigError("sink_pages and window_pages must be >= 1")
        if self.skip_layers < 0:
            raise ConfigError("skip_layers must be >= 0")
        if self.reuse_stride == 1 or self.reuse_stride < 0:
            raise ConfigError("reuse_stride must be 0 (off) or >= 2")

    @property
    def n_query_heads(self) -> int:
        return self.kv_heads * self.query_heads_per_group

    def budget(self) -> SearchBudget:
        return SearchBudget.for_k(self.token_budget)


@dataclass
class StepMetrics:
    """One decode step's counters, summed over indexed layers and heads,
    and its selections: each (indexed layer, query head)'s token ids, in
    that order, the arrays `select_with_reuse` built (not copies). They
    are empty on a fallback engine, take no part in ==, and are what
    `icecache.bench.score_step` scores."""

    step: int
    token_id: int
    pages_selected: int
    pages_loaded: int
    tokens_loaded: int
    bytes_moved: int
    transactions: int
    dci_queries: int
    selections: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)


@dataclass
class _HeadState:
    """Private per-(layer, kv head) machinery."""

    tree: DciTree
    store: TierStore


class Engine:
    """Engine state: one prefilled stream being decoded step by step."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        self.prefilled = False
        self.fallback = False
        self.n_prefill = 0
        self.heads: dict[tuple[int, int], _HeadState] = {}
        self._keys = np.empty((0, 0, 0, cfg.d))          # (layer, kv head, token, d)
        self._values = np.empty((0, 0, 0, cfg.d_prime))
        self._n = 0                                       # tokens held by every buffer
        self.sink_end = 0                                 # the sink is tokens [0, sink_end)
        self.window_start: dict[int, int] = {}            # indexed layer -> its first window token
        self.selection_queries = 0
        self._fold_at: dict[int, int] = {}  # indexed layer -> newest window fill it folds at
        self._budget = cfg.budget()
        self._anchor_tokens: dict[int, np.ndarray] = {}

    # -- prefill -----------------------------------------------------------

    def _check_workload(self, workload: Workload) -> None:
        spec = workload.spec
        cfg = self.cfg
        if (spec.layers, spec.kv_heads, spec.query_heads_per_group) != \
                (cfg.layers, cfg.kv_heads, cfg.query_heads_per_group):
            raise ConfigError("workload head/layer shape does not match the engine config")
        if (spec.d, spec.d_prime) != (cfg.d, cfg.d_prime):
            raise ConfigError("workload dims do not match the engine config")

    def prefill(self, workload: Workload, n_prefill: int) -> "Engine":
        """Index the first n_prefill tokens of the stream."""
        if self.prefilled:
            raise ConfigError("engine already prefilled")
        self._check_workload(workload)
        cfg = self.cfg
        keys, values = workload.prefill_view(n_prefill)
        self.n_prefill = n_prefill

        rows = max(64, workload.n_tokens)  # the whole stream: decode never regrows
        self._keys = np.empty((cfg.layers, cfg.kv_heads, rows, cfg.d))
        self._values = np.empty((cfg.layers, cfg.kv_heads, rows, cfg.d_prime))
        self._keys[:, :, :n_prefill] = keys.transpose(1, 2, 0, 3)
        self._values[:, :, :n_prefill] = values.transpose(1, 2, 0, 3)
        self._n = n_prefill

        s = cfg.page_size
        page_count = math.ceil(n_prefill / s)
        if page_count < cfg.sink_pages + cfg.window_pages + 1 or cfg.skip_layers >= cfg.layers:
            self.fallback = True
            self.prefilled = True
            return self

        self.sink_end = cfg.sink_pages * s
        window_start = (page_count - cfg.window_pages) * s

        n_indexed = cfg.layers - cfg.skip_layers
        for layer in range(cfg.skip_layers, cfg.layers):
            self._fold_at[layer] = s * (layer - cfg.skip_layers) // n_indexed + 1
            self.window_start[layer] = window_start
            for h in range(cfg.kv_heads):
                self.heads[(layer, h)] = self._build_head(layer, h, window_start, rows)

        self.prefilled = True
        return self

    def _build_head(self, layer: int, h: int, window_start: int, rows: int) -> _HeadState:
        cfg = self.cfg
        store = TierStore(cfg.d, cfg.d_prime, cfg.page_size)
        tree = dci_indexing(
            np.arange(self.sink_end, window_start),
            self._keys[layer, h, self.sink_end:window_start],
            cfg.promotion_ratio, seed=(cfg.seed, layer, h), store=store, rows=rows)
        return _HeadState(tree=tree, store=store)

    # -- selection ----------------------------------------------------------

    def _select_tokens(self, q, layer: int, kv_head: int,
                       budget: SearchBudget | None = None) -> np.ndarray:
        if (layer, kv_head) not in self.heads:
            raise ConfigError(f"no tree for layer {layer}, head {kv_head}")
        state = self.heads[(layer, kv_head)]
        budget = budget if budget is not None else self._budget
        self.selection_queries += 1
        return state.tree.query(transform_query(q), SENTINEL_LEVEL, budget.k, budget)

    def is_anchor_layer(self, layer: int) -> bool:
        """Indexed layers that query their trees; with reuse off, all of them."""
        stride = self.cfg.reuse_stride
        offset = layer - self.cfg.skip_layers
        return offset >= 0 and (stride == 0 or offset % stride == 0)

    def anchor_layers(self) -> list[int]:
        return [l for l in range(self.cfg.skip_layers, self.cfg.layers)
                if self.is_anchor_layer(l)]

    def select_with_reuse(self, layer: int, layer_queries: np.ndarray
                          ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """Pages per kv head and selected tokens per query head, as id arrays.

        Anchor layers run a fresh tree query per query head, ranked by inner
        product; each head's tokens are its own result, and the group's token
        union is recorded. Reuse layers take the part of the most recent
        anchor's token union below their own window start for every head of
        the group, without touching the tree: the anchor folds first, so its
        other tokens are in the reuse layer's window. Either way the pages
        are the tokens', looked up once in the layer's own page table.
        """
        pages_by_head: dict[int, np.ndarray] = {}
        tokens_by_qh: dict[int, np.ndarray] = {}
        anchor = self.is_anchor_layer(layer)
        g = self.cfg.query_heads_per_group
        for h in range(self.cfg.kv_heads):
            group = range(h * g, (h + 1) * g)
            if anchor:
                for qh in group:
                    tokens_by_qh[qh] = self._select_tokens(layer_queries[qh], layer, h)
                tokens = self._anchor_tokens[h] = gqa_union([tokens_by_qh[qh] for qh in group])
            elif h not in self._anchor_tokens:
                raise ConfigError(f"no anchor selection recorded yet for head {h}")
            else:
                union = self._anchor_tokens[h]
                tokens = union[: np.searchsorted(union, self.window_start[layer])]
                for qh in group:
                    tokens_by_qh[qh] = tokens
            pages_by_head[h] = find_page_index(tokens, self.heads[(layer, h)].store)
        return pages_by_head, tokens_by_qh

    # -- decode ---------------------------------------------------------------

    def _kv(self, layer: int, kv_head: int) -> tuple[np.ndarray, np.ndarray]:
        """The head's key and value rows, row t holding token t."""
        return self._keys[layer, kv_head, : self._n], self._values[layer, kv_head, : self._n]

    def _resident(self, layer: int) -> np.ndarray:
        """The sink and window token ids of an indexed layer, in order."""
        return np.concatenate((np.arange(self.sink_end),
                               np.arange(self.window_start[layer], self._n)))

    def decode_step(self, step: DecodeStep
                    ) -> tuple[list[list[AttentionOutput | None]], StepMetrics]:
        """Process one decode token through every layer.

        The step is checked whole before anything is written: InputError
        unless the token is the next one and the queries, keys and values
        have the config's shapes and are finite, DegenerateQueryError for a
        zero query on an anchor layer. A rejected step leaves the engine as
        it was. Returns per-layer, per-query-head attention outputs plus the
        step's counters and selections. It serves and counts only: fidelity is
        scored from these outside the engine (`icecache.bench.score_step`).
        """
        if not self.prefilled:
            raise ConfigError("decode_step before prefill")
        cfg = self.cfg
        token = self._n
        if step.token_id != token:
            raise InputError(f"stream misaligned: expected token {token}, got {step.token_id}")
        want = [(cfg.layers, cfg.n_query_heads, cfg.d), (cfg.layers, cfg.kv_heads, cfg.d),
                (cfg.layers, cfg.kv_heads, cfg.d_prime)]
        shapes = [np.shape(step.queries), np.shape(step.keys), np.shape(step.values)]
        if shapes != want:
            raise InputError(f"step queries, keys and values need shapes {want}, got {shapes}")
        if not all(np.isfinite(a).all() for a in (step.queries, step.keys, step.values)):
            raise InputError("step queries, keys and values must be finite")
        anchored = step.queries[[] if self.fallback else self.anchor_layers()]
        if (np.einsum("lqj,lqj->lq", anchored, anchored) == 0).any():
            raise DegenerateQueryError("a zero query on an anchor layer cannot be normalized")

        outputs: list[list[AttentionOutput | None]] = \
            [[None] * cfg.n_query_heads for _ in range(cfg.layers)]
        selections: dict[tuple[int, int], np.ndarray] = {}
        moved = TransferStats()
        pages_selected = tokens_loaded = 0
        queries_before = self.selection_queries

        if self._n == self._keys.shape[2]:  # a stream longer than the prefilled workload
            pad = ((0, 0), (0, 0), (0, self._n), (0, 0))
            self._keys, self._values = np.pad(self._keys, pad), np.pad(self._values, pad)
        self._keys[:, :, self._n] = step.keys
        self._values[:, :, self._n] = step.values
        self._n += 1
        fill = token % cfg.page_size + 1  # the newest window page's, as windows start on a page

        for layer in range(cfg.layers):
            if self.fallback or layer < cfg.skip_layers:
                for qh in range(cfg.n_query_heads):
                    keys, values = self._kv(layer, qh // cfg.query_heads_per_group)
                    outputs[layer][qh] = full_attention(step.queries[layer, qh], keys, values)
                continue

            if (fill == self._fold_at[layer]
                    and self._n - self.window_start[layer] > cfg.window_pages * cfg.page_size):
                self._rotate_layer(layer)
            resident = self._resident(layer)

            pages_by_head, qh_tokens = self.select_with_reuse(layer, step.queries[layer])
            selections.update(((layer, qh), tokens) for qh, tokens in qh_tokens.items())
            for h in range(cfg.kv_heads):
                state = self.heads[(layer, h)]
                selected = pages_by_head[h]
                moved.add(state.store.backload(selected))
                pages_selected += selected.size
                loaded = state.store.tokens_in(selected)
                tokens_loaded += loaded.size
                attended = np.concatenate((resident, loaded))
                keys, values = self._kv(layer, h)
                for qh in range(h * cfg.query_heads_per_group,
                                (h + 1) * cfg.query_heads_per_group):
                    outputs[layer][qh] = sparse_attention(
                        step.queries[layer, qh], attended, keys, values)

        metrics = StepMetrics(
            step=token - self.n_prefill,
            token_id=token,
            pages_selected=pages_selected,
            pages_loaded=moved.pages_backloaded,
            tokens_loaded=tokens_loaded,
            bytes_moved=moved.bytes_moved,
            transactions=moved.transactions,
            dci_queries=self.selection_queries - queries_before,
            selections=selections,
        )
        return outputs, metrics

    def _rotate_layer(self, layer: int) -> None:
        """Fold the layer's oldest window page: charge each head's offload
        and insert the page's tokens into the head's tree."""
        s = self.cfg.page_size
        start = self.window_start[layer]
        rotated = np.arange(start, start + s)
        self.window_start[layer] = start + s
        for h in range(self.cfg.kv_heads):
            state = self.heads[(layer, h)]
            state.store.offload(s)
            state.tree.insert(rotated, self._keys[layer, h, rotated])


def pipeline_estimate(t_prefill: float, t_offload: float, t_index: float,
                      layers: int) -> tuple[float, float]:
    """Serial versus pipelined total time for the three per-layer stages.

    Serial runs prefill, offload, and index back to back for every layer;
    the pipelined bound overlaps them, paying the dominant stage per layer
    plus one fill/drain tail of the two smaller stages. The pipelined total
    never exceeds the serial one.
    """
    times = [t_prefill, t_offload, t_index]
    if any(t < 0 or not np.isfinite(t) for t in times):
        raise InputError("stage times must be finite and non-negative")
    if layers < 1:
        raise InputError("layers must be >= 1")
    serial = layers * sum(times)
    lo, mid, hi = sorted(times)
    pipelined = layers * hi + lo + mid
    return serial, pipelined
