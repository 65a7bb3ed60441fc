"""Benchmark runs and machine-readable reports.

A report is a JSON-ready dict: schema version, echoed configuration, one
metrics row per decode step, aggregates recomputable from the rows, and an
optional baseline comparison block. validate_report() re-derives the
aggregates and checks the row invariants, raising InvariantViolation with
the violated invariant's name.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict

from .engine import Engine, EngineConfig, StepMetrics, pipeline_estimate
from .errors import ConfigError, InvariantViolation
from .workload import Workload, WorkloadSpec, generate_workload, load_trace

SCHEMA_VERSION = 1

_RATE_FIELDS = ("recall_at_k", "page_hit_rate", "covered_attention_mass")


def _aggregate(rows: list[dict]) -> dict:
    n = len(rows)
    agg = {
        "steps": n,
        "mean_recall_at_k": sum(r["recall_at_k"] for r in rows) / n,
        "mean_page_hit_rate": sum(r["page_hit_rate"] for r in rows) / n,
        "mean_covered_attention_mass":
            sum(r["covered_attention_mass"] for r in rows) / n,
        "mean_approx_rel_error": sum(r["approx_rel_error"] for r in rows) / n,
        "total_pages_loaded": sum(r["pages_loaded"] for r in rows),
        "total_bytes_moved": sum(r["bytes_moved"] for r in rows),
        "total_transactions": sum(r["transactions"] for r in rows),
        "total_dci_queries": sum(r["dci_queries"] for r in rows),
    }
    return agg


def run_bench(cfg: EngineConfig, spec: WorkloadSpec | None, steps: int, *,
              trace_path: str | None = None) -> dict:
    """Prefill plus `steps` decode steps in evaluation mode; returns the report.
    The last `steps` tokens of the stream are decoded, the rest prefilled."""
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
    rows: list[StepMetrics] = []
    for t in range(steps):
        _, metrics = engine.decode_step(workload.decode_step(n_prefill, t))
        rows.append(metrics)

    row_dicts = [asdict(r) for r in rows]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "engine": asdict(cfg),
            "workload": asdict(workload.spec),
            "n_prefill": n_prefill,
            "steps": steps,
            "trace_path": trace_path,
        },
        "rows": row_dicts,
        "aggregates": _aggregate(row_dicts),
    }
    if cfg.compare_baseline:
        paired = [(r["page_hit_rate"], r["baseline_hit_rate"]) for r in row_dicts]
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
              budgets: list[int]) -> dict:
    """One bench per token budget over the identical workload; each run
    keeps its aggregates and, with compare_baseline, its baseline block."""
    if not budgets:
        raise ConfigError("sweep needs at least one budget")
    runs = []
    for budget in budgets:
        run_cfg = EngineConfig(**{**asdict(cfg), "token_budget": budget})
        report = run_bench(run_cfg, spec, steps)
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
    recomputed = _aggregate(rows)
    for key, value in recomputed.items():
        have = report["aggregates"][key]
        if isinstance(value, float):
            if not math.isclose(have, value, rel_tol=1e-12, abs_tol=1e-12):
                raise InvariantViolation(
                    f"report invariant: aggregate {key} not reproducible from rows")
        elif have != value:
            raise InvariantViolation(
                f"report invariant: aggregate {key} not reproducible from rows")
    for row in rows:
        for fld in _RATE_FIELDS:
            if not 0.0 <= row[fld] <= 1.0 + 1e-9:
                raise InvariantViolation(f"metrics invariant: {fld} outside [0, 1]")
        if row["tokens_loaded"] > row["pages_selected"] * _page_size_of(report):
            raise InvariantViolation(
                "pagestore invariant: loaded tokens exceed selected pages x page size")


def _page_size_of(report: dict) -> int:
    return report["config"]["engine"]["page_size"]


def write_csv(report: dict, path: str) -> None:
    """Flat CSV of the per-step rows."""
    rows = report["rows"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
