"""End-to-end orchestration over a pre-generated q/k/v stream.

Keys and values live in one array each, (layer, kv head, token, dim): each
head's slab, indexed by token id, is the only copy of its cache. Everything
else refers to rows by id: pages list token ids, the tree indexes ids, and
attention gathers the selected rows. Prefill copies the prompt in, so later
writes to the workload's arrays do not reach the engine, and sizes the
arrays and every tree for the whole stream, so decode never regrows them.

Prefill splits the prompt into the sink, the window and a middle region
whose keys are clustered into a per-(anchor layer, kv head) tree whose
leaves own the store's pages. The sink and each indexed layer's window are
token ranges that stay resident, as in StreamingLLM: the sink is
[0, sink_end) and a layer's window is [window_start[layer], n), where
window_start is page-aligned. The store's pages are hot only in a step that
selects them. Decode attends exactly on the layers below the indexed ones,
then serves each anchor group (the anchor and the reuse_stride - 1 layers
after it) in one pass. The group decides once whether it folds; a fold
moves every layer's window_start up a page. Per kv head the anchor head
then runs, once: the fold (charge the offload of the window's oldest page,
insert its tokens into the tree), per-query-head tree queries, one page
lookup of the group's token union and one backload. Every layer of the
group attends those ids (the sink range, the window range and the loaded
pages, in that order, as int64 ids) per query head with its own keys and
values, is charged the backload, and records its selection: the anchor its
own picks, a reuse layer the union, as a reuse layer owns no tree or store.

Folds are spread over the page, one anchor group at a time, so that no
step pays every tree's insert. The group of anchor a folds when the newest
window page's fill, token % page_size + 1 for every layer, reaches
page_size * (a - skip_layers) // n_indexed + 1, and only while its window
holds more than window_pages pages. So a window holds window_pages to
window_pages + 1 pages, a reuse layer's window is always its anchor's, and
at most one group folds on a step while n_indexed <= page_size.

Prefill fixes each layer's role, with one plan for every prompt length.
The layers from skip_layers up are indexed (the keys of window_start) and
the rest attend exactly; a prompt too short to split (`fallback`) starts
the indexed layers at `layers`, so none is indexed. Of the
indexed layers, every reuse_stride-th from skip_layers is an anchor
(`anchors`; `anchor_of` maps each indexed layer to its own), so stride 1,
the default, makes each its own anchor. The engine is not a transformer:
embeddings come from the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionOutput, full_attention, gqa_union, sparse_attention
from .dci import SENTINEL_LEVEL, DciTree, SearchBudget, dci_indexing
from .errors import ConfigError, InputError
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
    reuse_stride: int = 1        # every reuse_stride-th indexed layer is an anchor
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
        if self.reuse_stride < 1:
            raise ConfigError("reuse_stride must be >= 1")

    @property
    def n_query_heads(self) -> int:
        return self.kv_heads * self.query_heads_per_group

    def budget(self) -> SearchBudget:
        return SearchBudget.for_k(self.token_budget)


@dataclass
class StepMetrics:
    """One decode step's counters, summed over indexed layers and heads,
    and its selections: each (indexed layer, query head)'s token ids, in
    that order, the arrays the step looked its pages up from (not copies).
    They are empty on an engine with no indexed layer, take no part in ==,
    and are what `icecache.bench.score_step` scores.

    `bytes_moved` and `transactions` count backloads only: a fold's page
    write (`TierStore.offload`) reaches only the anchor store's `stats`."""

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
    """Private per-(anchor layer, kv head) machinery; a reuse layer has none."""

    tree: DciTree
    store: TierStore


class Engine:
    """Engine state: one prefilled stream being decoded step by step."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        self.fallback = False                             # the prompt was too short to split
        self.n_prefill = 0
        self.heads: dict[tuple[int, int], _HeadState] = {}  # (anchor layer, kv head) -> state
        self._keys = np.empty((0, 0, 0, cfg.d))          # (layer, kv head, token, d)
        self._values = np.empty((0, 0, 0, cfg.d_prime))
        self._n = 0                                       # tokens held; 0 until prefill
        self.sink_end = 0                                 # the sink is tokens [0, sink_end)
        self.window_start: dict[int, int] = {}            # indexed layer -> its first window token
        self.anchors: list[int] = []                      # indexed layers that own and query trees
        self.anchor_of: dict[int, int] = {}               # indexed layer -> its anchor
        self._budget = cfg.budget()

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
        if self._n:
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

        s = cfg.page_size
        page_count = math.ceil(n_prefill / s)
        self.fallback = page_count < cfg.sink_pages + cfg.window_pages + 1
        first = cfg.layers if self.fallback else cfg.skip_layers  # the first indexed layer
        self.sink_end = cfg.sink_pages * s
        window_start = (page_count - cfg.window_pages) * s
        self.anchors = list(range(first, cfg.layers, cfg.reuse_stride))
        for layer in range(first, cfg.layers):
            self.anchor_of[layer] = layer - (layer - cfg.skip_layers) % cfg.reuse_stride
            self.window_start[layer] = window_start
        for layer in self.anchors:
            for h in range(cfg.kv_heads):
                store = TierStore(cfg.d, cfg.d_prime, s)
                tree = dci_indexing(np.arange(self.sink_end, window_start),
                                    self._keys[layer, h, self.sink_end:window_start],
                                    cfg.promotion_ratio, seed=(cfg.seed, layer, h),
                                    store=store, rows=rows)
                self.heads[(layer, h)] = _HeadState(tree=tree, store=store)
        self._n = n_prefill  # last: a prefill that raises leaves the engine unprefilled
        return self

    # -- decode ---------------------------------------------------------------

    def decode_step(self, step: DecodeStep
                    ) -> tuple[list[list[AttentionOutput | None]], StepMetrics]:
        """Process one decode token through every layer.

        The step is checked whole before anything is written: InputError
        unless the token is the next one and the queries, keys and values
        are real arrays of the config's shapes with finite entries, and
        `transform_query` lifts every anchor layer's queries, raising
        DegenerateQueryError on a zero one. A rejected step leaves the
        engine as it was.

        A layer that is not indexed attends exactly. Each anchor group then
        decides once whether it folds, and per kv head folds, selects, looks
        up and loads once at its anchor head; every layer of the group
        attends those ids with its own keys and values (see the module
        docstring). Selections keep their (layer, query head) order.

        Returns per-layer, per-query-head attention outputs plus the step's
        counters and selections. It serves and counts only: fidelity is
        scored from these outside the engine (`icecache.bench.score_step`).
        """
        if not self._n:
            raise ConfigError("decode_step before prefill")
        cfg = self.cfg
        token = self._n
        if step.token_id != token:
            raise InputError(f"stream misaligned: expected token {token}, got {step.token_id}")
        want = [(cfg.layers, cfg.n_query_heads, cfg.d), (cfg.layers, cfg.kv_heads, cfg.d),
                (cfg.layers, cfg.kv_heads, cfg.d_prime)]
        arrays = [np.asarray(a) for a in (step.queries, step.keys, step.values)]
        shapes = [a.shape for a in arrays]
        if shapes != want:
            raise InputError(f"step queries, keys and values need shapes {want}, got {shapes}")
        if any(a.dtype.kind not in "iuf" for a in arrays):
            raise InputError("step queries, keys and values must be real numbers")
        if not all(np.isfinite(a).all() for a in arrays):
            raise InputError("step queries, keys and values must be finite")
        queries, new_keys, new_values = arrays
        lifted = {(layer, qh): transform_query(queries[layer, qh])  # a zero query raises here
                  for layer in self.anchors for qh in range(cfg.n_query_heads)}

        outputs: list[list[AttentionOutput | None]] = \
            [[None] * cfg.n_query_heads for _ in range(cfg.layers)]
        selections: dict[tuple[int, int], np.ndarray] = {}
        moved = TransferStats()
        pages_selected = tokens_loaded = 0

        if token == self._keys.shape[2]:  # a stream longer than the prefilled workload
            pad = ((0, 0), (0, 0), (0, token), (0, 0))
            self._keys, self._values = np.pad(self._keys, pad), np.pad(self._values, pad)
        self._keys[:, :, token] = new_keys
        self._values[:, :, token] = new_values
        n = self._n = token + 1
        s, g, budget = cfg.page_size, cfg.query_heads_per_group, self._budget
        keys, values = self._keys[:, :, :n], self._values[:, :, :n]
        fill = token % s + 1  # the newest window page's, as windows start on a page

        for layer in range(cfg.layers - len(self.window_start)):  # exact, below the indexed
            for qh in range(cfg.n_query_heads):
                outputs[layer][qh] = full_attention(queries[layer, qh],
                                                    keys[layer, qh // g], values[layer, qh // g])

        for anchor in self.anchors:
            layers = range(anchor, min(anchor + cfg.reuse_stride, cfg.layers))
            start = self.window_start[anchor]
            folds = (fill == s * (anchor - cfg.skip_layers) // (cfg.layers - cfg.skip_layers) + 1
                     and n - start > cfg.window_pages * s)
            if folds:
                folded = np.arange(start, start + s)
                start += s
                self.window_start.update(dict.fromkeys(layers, start))
            resident = np.concatenate((np.arange(self.sink_end), np.arange(start, n)))
            for h in range(cfg.kv_heads):
                group, state = range(h * g, (h + 1) * g), self.heads[(anchor, h)]
                if folds:
                    state.store.offload(s)
                    state.tree.insert(folded, keys[anchor, h, folded])
                picks = [state.tree.query(lifted[(anchor, qh)], SENTINEL_LEVEL, budget.k, budget)
                         for qh in group]
                union = gqa_union(picks)
                pages = find_page_index(union, state.store)
                loaded = state.store.tokens_in(pages)
                attended = np.concatenate((resident, loaded))
                delta = state.store.backload(pages)
                for layer in layers:
                    moved.add(delta)
                    pages_selected += pages.size
                    tokens_loaded += loaded.size
                    for qh, picked in zip(group, picks):
                        selections[(layer, qh)] = picked if layer == anchor else union
                        outputs[layer][qh] = sparse_attention(queries[layer, qh], attended,
                                                              keys[layer, h], values[layer, h])

        metrics = StepMetrics(
            step=token - self.n_prefill,
            token_id=token,
            pages_selected=pages_selected,
            pages_loaded=moved.pages_backloaded,
            tokens_loaded=tokens_loaded,
            bytes_moved=moved.bytes_moved,
            transactions=moved.transactions,
            dci_queries=len(self.anchors) * cfg.n_query_heads,
            selections={key: selections[key] for key in sorted(selections)},
        )
        return outputs, metrics


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
