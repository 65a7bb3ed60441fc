"""Benchmark runs, their scoring, and machine-readable reports.

The engine serves and counts; `score_step` scores each decoded step from
outside, against exact references rebuilt from the workload arrays.

A report is a JSON-ready dict: schema version, echoed configuration, one
scored row per decode step, aggregates recomputable from the rows, and an
optional baseline comparison block. validate_report() re-derives the
aggregates and checks the row invariants, raising InvariantViolation with
the violated invariant's name.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict

import numpy as np

from .attention import AttentionOutput, full_attention, gqa_union
from .engine import Engine, EngineConfig, StepMetrics, pipeline_estimate
from .errors import ConfigError, InvariantViolation
from .geometry import exact_topk
from .pagestore import find_page_index
from .workload import Workload, WorkloadSpec, generate_workload, load_trace

SCHEMA_VERSION = 1

_RATE_FIELDS = ("recall_at_k", "page_hit_rate", "covered_attention_mass")
_MEAN_FIELDS = (*_RATE_FIELDS, "approx_rel_error")
_TOTAL_FIELDS = ("pages_loaded", "bytes_moved", "transactions", "dci_queries")
_COUNTERS = ("pages_selected", "pages_loaded", "tokens_loaded", "bytes_moved",
             "transactions", "dci_queries")


def token_order_select(q: np.ndarray, tokens: np.ndarray, keys: np.ndarray,
                       page_size: int, n_pages: int) -> np.ndarray:
    """Tokens of the best n_pages pages of a token-order layout.

    Pages hold page_size consecutive arrivals (`tokens`, in arrival order,
    with their `keys`); a page's relevance to a query is the upper bound
    sum_i max(q_i * lo_i, q_i * hi_i) over its keys' coordinate-wise
    envelope, and the top-scoring pages are selected.
    """
    starts = np.arange(0, tokens.size, page_size)
    lo = np.minimum.reduceat(keys, starts)
    hi = np.maximum.reduceat(keys, starts)
    scores = np.maximum(lo * q, hi * q).sum(axis=1)
    best = np.lexsort((np.arange(scores.size), -scores))[:n_pages]
    return tokens[np.isin(np.arange(tokens.size) // page_size, best)]


def score_step(engine: Engine, workload: Workload,
               outputs: list[list[AttentionOutput]], metrics: StepMetrics, *,
               baseline: bool = False) -> dict:
    """A decoded step's report row: its counters and fidelity scores.

    Call it before the engine decodes again. Each (indexed layer, query
    head) selection is scored against exact attention over the workload's
    tokens so far, with k the token budget (at most the tokens there are):
    `recall_at_k`, the share of the exact top-k of the layer's indexed
    tokens [sink_end, window_start[layer]) that it holds; `page_hit_rate`,
    the share of the exact top-k of all tokens attended; the exact softmax
    mass attended; the output error over the RMS value norm (not over the
    exact output's norm, near zero when values cancel); with `baseline`,
    the hit rate of a token-order layout choosing as many pages.
    Each is the mean over the selections; a step with none (an engine
    with no indexed layer) scores 1, 1, 1, 0 and no baseline.
    """
    cfg, n, g = engine.cfg, metrics.token_id + 1, engine.cfg.query_heads_per_group
    scores, base_hits = [], []  # scores: one _MEAN_FIELDS tuple per selection
    for (layer, qh), selected in metrics.selections.items():
        h, out = qh // g, outputs[layer][qh]
        q = workload.queries[n - 1, layer, qh]
        # contiguous, so the references do not round by the workload's layout
        keys = np.ascontiguousarray(workload.keys[:n, layer, h])
        values = np.ascontiguousarray(workload.values[:n, layer, h])
        ref = full_attention(q, keys, values)
        indexed = np.arange(engine.sink_end, engine.window_start[layer])  # its trees' points
        k_indexed, k_all = min(cfg.token_budget, indexed.size), min(cfg.token_budget, n)
        oracle_indexed = indexed[exact_topk(q, keys[indexed], k_indexed)]
        oracle_all = np.asarray(exact_topk(q, keys, k_all))
        rms = float(np.sqrt(np.einsum("td,td->", values, values) / n))
        scores.append((int(np.isin(oracle_indexed, selected).sum()) / k_indexed,
                       int(np.isin(oracle_all, out.token_ids).sum()) / k_all,
                       float(ref.dense_weights[np.sort(out.token_ids)].sum()),
                       float(np.linalg.norm(out.value_out - ref.value_out)) / max(rms, 1e-300)))
        if baseline:
            union = gqa_union([metrics.selections[(layer, i)] for i in range(h * g, (h + 1) * g)])
            n_pages = find_page_index(union, engine.heads[(layer, h)].store).size
            chosen = token_order_select(q, indexed, keys[indexed], cfg.page_size, n_pages)
            # the sink and window tokens, outside the indexed range, are attended too
            hit = np.isin(oracle_all, chosen) | ~np.isin(oracle_all, indexed)
            base_hits.append(int(hit.sum()) / k_all)

    means = [float(np.mean(col)) for col in zip(*scores)] or [1.0, 1.0, 1.0, 0.0]
    return {"step": metrics.step, "token_id": metrics.token_id, **dict(zip(_MEAN_FIELDS, means)),
            **{name: getattr(metrics, name) for name in _COUNTERS},
            "baseline_hit_rate": float(np.mean(base_hits)) if base_hits else None}


def _aggregate(rows: list[dict]) -> dict:
    n = len(rows)
    return {"steps": n,
            **{f"mean_{f}": sum(r[f] for r in rows) / n for f in _MEAN_FIELDS},
            **{f"total_{f}": sum(r[f] for r in rows) for f in _TOTAL_FIELDS}}


def run_bench(cfg: EngineConfig, spec: WorkloadSpec | None, steps: int, *,
              baseline: bool = False, trace_path: str | None = None) -> dict:
    """Prefill plus `steps` decode steps, each scored as it is decoded;
    returns the report. The last `steps` tokens of the stream are decoded,
    the rest prefilled. With `baseline`, the rows score the token-order
    layout too and the report gains its baseline block."""
    if steps < 1:
        raise ConfigError("need at least one decode step")
    if trace_path is not None:
        workload = load_trace(trace_path)
    elif spec is not None:
        workload = generate_workload(spec)
    else:
        raise ConfigError("either a workload spec or a trace path is required")
    n_prefill = workload.n_tokens - steps
    if n_prefill < 1:
        raise ConfigError(f"stream too short: {workload.n_tokens} tokens for {steps} steps")

    engine = Engine(cfg).prefill(workload, n_prefill)
    rows = []
    for t in range(steps):
        outputs, metrics = engine.decode_step(workload.decode_step(n_prefill, t))
        rows.append(score_step(engine, workload, outputs, metrics, baseline=baseline))

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "engine": asdict(cfg),
            "workload": asdict(workload.spec),
            "n_prefill": n_prefill,
            "steps": steps,
            "trace_path": trace_path,
        },
        "rows": rows,
        "aggregates": _aggregate(rows),
    }
    if baseline:
        paired = [(r["page_hit_rate"], r["baseline_hit_rate"]) for r in rows]
        present = [p for p in paired if p[1] is not None]
        report["baseline"] = {
            "mean_semantic_hit_rate":
                sum(p[0] for p in present) / len(present) if present else None,
            "mean_token_order_hit_rate":
                sum(p[1] for p in present) / len(present) if present else None,
        }
    validate_report(report)
    return report


def run_sweep(cfg: EngineConfig, spec: WorkloadSpec, steps: int,
              budgets: list[int], *, baseline: bool = False) -> dict:
    """One bench per token budget over the identical workload; each run
    keeps its aggregates and, with `baseline`, its baseline block."""
    if not budgets:
        raise ConfigError("sweep needs at least one budget")
    runs = []
    for budget in budgets:
        run_cfg = EngineConfig(**{**asdict(cfg), "token_budget": budget})
        report = run_bench(run_cfg, spec, steps, baseline=baseline)
        runs.append({"token_budget": budget, "aggregates": report["aggregates"]})
        if "baseline" in report:
            runs[-1]["baseline"] = report["baseline"]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"engine": asdict(cfg), "workload": asdict(spec), "steps": steps},
        "sweep": runs,
    }


def pipeline_report(t_prefill: float, t_offload: float, t_index: float,
                    layers: int) -> dict:
    serial, pipelined = pipeline_estimate(t_prefill, t_offload, t_index, layers)
    return {
        "schema_version": SCHEMA_VERSION,
        "stages": {"prefill": t_prefill, "offload": t_offload, "index": t_index},
        "layers": layers,
        "serial_total": serial,
        "pipelined_total": pipelined,
        "speedup": serial / pipelined if pipelined > 0 else 1.0,
    }


def validate_report(report: dict) -> None:
    """Re-derive aggregates from rows and check row invariants."""
    rows = report["rows"]
    if len(rows) != report["aggregates"]["steps"]:
        raise InvariantViolation("report invariant: aggregates.steps != len(rows)")
    for key, value in _aggregate(rows).items():
        have = report["aggregates"][key]
        if not (math.isclose(have, value, rel_tol=1e-12, abs_tol=1e-12)
                if isinstance(value, float) else have == value):
            raise InvariantViolation(
                f"report invariant: aggregate {key} not reproducible from rows")
    for row in rows:
        for fld in _RATE_FIELDS:
            if not 0.0 <= row[fld] <= 1.0 + 1e-9:
                raise InvariantViolation(f"metrics invariant: {fld} outside [0, 1]")
        if row["tokens_loaded"] > row["pages_selected"] * report["config"]["engine"]["page_size"]:
            raise InvariantViolation(
                "pagestore invariant: loaded tokens exceed selected pages x page size")


def write_csv(report: dict, path: str) -> None:
    """Flat CSV of the per-step rows."""
    rows = report["rows"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
