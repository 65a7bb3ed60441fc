"""Outside-in output checks and fidelity metrics for one decode stream.

Everything here is rebuilt from the workload arrays with plain NumPy; the
engine's own oracles (`EngineConfig.evaluate`) are never used. For every
(layer, query head) of every step:

  all layers      the attended ids are distinct and lie in [0, token];
  skip layers     they are every token seen, and value_out equals the exact
                  softmax over all of them;
  indexed layers  they include the current token and the sink tokens, and
                  value_out equals a softmax restricted to them.

`record` runs after each timed step and does the id checks, which need the
step's outputs; it keeps value_out and the indexed ids. `verify` runs after
the decode loop and does the numeric checks for all steps at once, a few
matrix products per head instead of two full-context scans per head per
step, so checking does not crowd the timed loop or the run's time budget.

Fidelity is scored on the indexed layers, after RetrievalAttention (Liu et
al., 2024): top-k hit rate against the exact top-`budget` tokens by q.k,
the exact softmax mass on the attended set, and the output error divided
by the RMS value norm (bounded even when the exact output is near zero).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from icecache import AttentionOutput, EngineConfig, Workload

# Relative tolerance of value_out against the benchmark's reference.
RTOL = 1e-9
# Steps per reference block in verify(); bounds its scratch memory.
BLOCK = 64


def attended_ids(out: AttentionOutput) -> np.ndarray:
    """Token ids one attention output attended to.

    The only place that knows how the engine exposes the attended set.
    """
    return np.fromiter(out.weights.keys(), dtype=np.int64, count=len(out.weights))


class StreamChecker:
    """Checks the decode outputs of one stream and scores their fidelity."""

    def __init__(self, workload: Workload, cfg: EngineConfig, n_prefill: int,
                 max_steps: int):
        self.workload = workload
        self.cfg = cfg
        self.n_prefill = n_prefill
        self.sink_end = cfg.sink_pages * cfg.page_size
        self.value_out = np.empty((max_steps, cfg.layers, cfg.n_query_heads, cfg.d_prime))
        self.ids: dict[tuple[int, int, int], np.ndarray] = {}  # indexed layers only
        self.exact_layers = cfg.skip_layers
        self.steps = 0
        self.problems: dict[int, list[str]] = defaultdict(list)
        self.fidelity_sums = np.zeros(3)
        self.scored = 0

    def record(self, step: int, outputs, fallback: bool) -> bool:
        """Id checks for one step; keeps what verify() needs. True if clean."""
        cfg = self.cfg
        token = self.n_prefill + step
        self.exact_layers = cfg.layers if fallback else cfg.skip_layers
        self.steps = step + 1
        clean = True
        for layer in range(cfg.layers):
            for qh in range(cfg.n_query_heads):
                problem = self._record_head(step, token, layer, qh, outputs[layer][qh])
                if problem:
                    self.problems[step].append(f"token {token} layer {layer} head {qh}: {problem}")
                    clean = False
        return clean

    def _record_head(self, step: int, token: int, layer: int, qh: int,
                     out: AttentionOutput | None) -> str | None:
        if out is None:
            return "no output"
        value_out = np.asarray(out.value_out)
        if value_out.shape != (self.cfg.d_prime,):
            return f"value_out has shape {value_out.shape}"
        self.value_out[step, layer, qh] = value_out
        ids = attended_ids(out)
        if ids.size == 0 or ids.min() < 0 or ids.max() > token:
            return f"attended ids outside [0, {token}]"
        if np.bincount(ids, minlength=token + 1).max() > 1:
            return "attended ids repeat"
        if layer < self.exact_layers:
            if ids.size != token + 1:
                return f"attended {ids.size} of {token + 1} tokens on an exact layer"
            return None
        required = np.append(np.arange(self.sink_end), token)
        if not np.isin(required, ids).all():
            return "attended set misses the current token or a sink token"
        self.ids[step, layer, qh] = ids.astype(np.int32)
        return None

    def verify(self) -> dict[int, list[str]]:
        """Numeric checks of every recorded step; returns problems by step."""
        cfg = self.cfg
        for layer in range(cfg.layers):
            for qh in range(cfg.n_query_heads):
                self._verify_head(layer, qh, qh // cfg.query_heads_per_group)
        return {step: p for step, p in self.problems.items() if p}

    def _verify_head(self, layer: int, qh: int, h: int) -> None:
        n, steps, wl = self.n_prefill, self.steps, self.workload
        keys = np.ascontiguousarray(wl.keys[:n + steps, layer, h])
        values = np.ascontiguousarray(wl.values[:n + steps, layer, h])
        queries = wl.queries[n:n + steps, layer, qh]
        v_sq_cum = np.cumsum(np.einsum("td,td->t", values, values))
        exact_layer = layer < self.exact_layers
        budget = self.cfg.token_budget
        for start in range(0, steps, BLOCK):
            stop = min(steps, start + BLOCK)
            span = n + stop  # every token any step of this block has seen
            tokens = n + np.arange(start, stop)
            logits = (queries[start:stop] @ keys[:span].T) / np.sqrt(self.cfg.d)
            logits[np.arange(span)[None, :] > tokens[:, None]] = -np.inf
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            exact_out = weights @ values[:span]
            for j, step in enumerate(range(start, stop)):
                token = int(tokens[j])
                out = self.value_out[step, layer, qh]
                v_rms = float(np.sqrt(v_sq_cum[token] / (token + 1)))
                if exact_layer:
                    reference = exact_out[j]
                else:
                    ids = self.ids.get((step, layer, qh))
                    if ids is None:  # its id check already failed
                        continue
                    row = logits[j, ids]
                    w = np.exp(row - row.max())
                    reference = (w / w.sum()) @ values[ids]
                    k = min(budget, token + 1)
                    top = np.argpartition(logits[j, :token + 1], -k)[-k:]
                    self.fidelity_sums += (np.isin(top, ids).sum() / k,
                                           weights[j, ids].sum(),
                                           np.linalg.norm(out - exact_out[j]) / v_rms)
                    self.scored += 1
                gap = float(np.linalg.norm(out - reference))
                if not np.isfinite(gap) or gap > RTOL * max(float(np.linalg.norm(reference)), v_rms):
                    self.problems[step].append(
                        f"token {token} layer {layer} head {qh}: value_out differs from "
                        f"the reference by {gap:.3e}")

    def fidelity(self) -> dict[str, float]:
        """Means over every checked (indexed layer, query head, step)."""
        hit, mass, err = self.fidelity_sums / max(self.scored, 1)
        return {"topk_hit_rate": float(hit), "covered_mass": float(mass),
                "attn_out_err": float(err)}
