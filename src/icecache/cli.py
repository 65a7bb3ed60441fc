"""Command-line entry point.

Subcommands: gen (write a workload trace), bench (one scored run), sweep
(bench across token budgets), compare-baseline (bench with the token-order
layout scored alongside), pipeline-est (prefill pipeline arithmetic).

Exit codes: 0 ok, 2 config error, 3 invariant violation, 4 I/O error.
The seed falls back to the ICECACHE_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import pipeline_report, run_bench, run_sweep, write_csv
from .engine import EngineConfig
from .errors import (ConfigError, IceCacheError, InputError, InvariantViolation,
                     TraceFormatError)
from .workload import WorkloadSpec, generate_workload, load_trace, save_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _seed_default() -> int:
    env = os.environ.get("ICECACHE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ConfigError(f"ICECACHE_SEED must be an integer, got {env!r}") from None


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", default="clustered",
                        choices=["clustered", "planted_needle", "uniform"])
    parser.add_argument("--tokens", type=int, default=4096,
                        help="total stream length, prefill plus decode")
    parser.add_argument("--d", type=int, default=64)
    parser.add_argument("--d-prime", type=int, default=64)
    parser.add_argument("--clusters", type=int, default=32)
    parser.add_argument("--spread", type=float, default=0.1)
    parser.add_argument("--needle-gain", type=float, default=2.0)
    parser.add_argument("--layer-jitter", type=float, default=0.1)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--kv-heads", type=int, default=2)
    parser.add_argument("--group-size", type=int, default=1,
                        help="query heads per kv head")
    parser.add_argument("--page-size", type=int, default=16)
    parser.add_argument("--budget", type=int, default=64, help="token budget per query")
    parser.add_argument("--ratio", type=float, default=0.1, help="promotion ratio")
    parser.add_argument("--sink-pages", type=int, default=1)
    parser.add_argument("--window-pages", type=int, default=2)
    parser.add_argument("--skip-layers", type=int, default=2)
    parser.add_argument("--reuse-stride", type=int, default=1)


def _spec_from(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        kind=args.kind, n_tokens=args.tokens, d=args.d, d_prime=args.d_prime,
        clusters=args.clusters, cluster_spread=args.spread,
        needle_gain=args.needle_gain, layer_jitter=args.layer_jitter,
        seed=args.seed, layers=args.layers, kv_heads=args.kv_heads,
        query_heads_per_group=args.group_size)


def _config_from(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        layers=args.layers, kv_heads=args.kv_heads,
        query_heads_per_group=args.group_size, d=args.d, d_prime=args.d_prime,
        page_size=args.page_size, token_budget=args.budget,
        promotion_ratio=args.ratio, sink_pages=args.sink_pages,
        window_pages=args.window_pages, skip_layers=args.skip_layers,
        reuse_stride=args.reuse_stride, seed=args.seed)


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if getattr(args, "csv", None):
        write_csv(report, args.csv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icecache",
        description="Semantic KV-cache paging bench: clustered index, "
                    "query-aware page selection, two-tier transfer accounting.")
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a workload and write a trace file")
    _add_workload_args(gen)
    gen.add_argument("--layers", type=int, default=4)
    gen.add_argument("--kv-heads", type=int, default=2)
    gen.add_argument("--group-size", type=int, default=1)
    gen.add_argument("--out", required=True, help="output trace path")

    for name, descr in (("bench", "run prefill plus decode and report metrics"),
                        ("compare-baseline",
                         "bench with the token-order layout measured alongside")):
        cmd = sub.add_parser(name, help=descr)
        _add_workload_args(cmd)
        _add_engine_args(cmd)
        cmd.add_argument("--trace", default=None, help="read the workload from a trace file")
        cmd.add_argument("--steps", type=int, default=100)
        cmd.add_argument("--report", default=None, help="write the JSON report here")
        cmd.add_argument("--csv", default=None, help="also write per-step rows as CSV")

    sweep = sub.add_parser("sweep", help="bench across token budgets")
    _add_workload_args(sweep)
    _add_engine_args(sweep)
    sweep.add_argument("--steps", type=int, default=100)
    sweep.add_argument("--budgets", default="64,128,256",
                       help="comma-separated token budgets")
    sweep.add_argument("--baseline", action="store_true",
                       help="also measure the token-order baseline")
    sweep.add_argument("--report", default=None)

    pipe = sub.add_parser("pipeline-est", help="serial vs pipelined prefill estimate")
    pipe.add_argument("--prefill", type=float, required=True)
    pipe.add_argument("--offload", type=float, required=True)
    pipe.add_argument("--index", type=float, required=True)
    pipe.add_argument("--layers", type=int, required=True)
    pipe.add_argument("--report", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.seed = _seed_default() if args.seed is None else args.seed
        if args.command == "gen":
            spec = _spec_from(args)
            save_trace(generate_workload(spec), args.out)
            print(f"wrote {args.tokens}-token trace to {args.out}")
        elif args.command in ("bench", "compare-baseline"):
            cfg = _config_from(args)
            workload = load_trace(args.trace) if args.trace else generate_workload(_spec_from(args))
            report = run_bench(cfg, workload, args.steps,
                               baseline=args.command == "compare-baseline", trace_path=args.trace)
            _emit(report, args)
        elif args.command == "sweep":
            budgets = [int(b) for b in args.budgets.split(",") if b]
            report = run_sweep(_config_from(args), generate_workload(_spec_from(args)),
                               args.steps, budgets, baseline=args.baseline)
            _emit(report, args)
        elif args.command == "pipeline-est":
            report = pipeline_report(args.prefill, args.offload, args.index, args.layers)
            _emit(report, args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (TraceFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, InputError, IceCacheError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
