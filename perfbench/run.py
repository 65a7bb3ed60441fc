"""Benchmark launcher.

    python3 perfbench/run.py --workload clustered-10k --seed 0 --seconds 30 --trace 0

Run from the repository root. It imports icecache from the checkout's own
`src/` and fails (exit 2, no result line) when that is missing. BLAS and
OpenMP threads are pinned before NumPy is imported. The last line of
standard output is one JSON object: correct, attempted, failed, metrics
(the end-to-end metrics, or with --trace 1 the per-layer ones). Earlier
lines print the environment, every metric with its unit, and the
failed-step share. `--workload all` runs every workload, each in a fresh
process. Any failed step makes the exit code 1.
"""

import os
import sys

# Decode is one stream on one thread; one BLAS thread keeps timings steady.
# Set before NumPy is first imported, which is below.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _import_checkout() -> None:
    """Put the checkout's sources first on the path; refuse any other copy."""
    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    try:
        import icecache
    except ImportError as exc:
        _fail(f"cannot import icecache from {src}: {exc}")
    if not Path(icecache.__file__).resolve().is_relative_to(src):
        _fail(f"icecache resolved to {icecache.__file__}, outside {src}")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from perfbench.workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_checkout()
    from perfbench import bench
    from perfbench.workloads import WORKLOADS
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"why: {wl.why}")
    print(f"env: {json.dumps(_environment())}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        result = bench.trace(wl, args.seed, spans_path=str(spans))
        table = bench.PER_LAYER
        print(f"decoded the {result['steps']}-step window on an untraced and a traced "
              f"engine in alternating blocks; "
              f"{result['info']['spans']} spans written to {spans.relative_to(ROOT)}")
    else:
        result = bench.measure(wl, args.seed, args.seconds)
        table = bench.END_TO_END
        info = result["info"]
        print(f"decoded the {result['steps']}-step window {info['repeats']} times "
              f"({info['repeats'] * result['steps']} step samples) after "
              f"{info['setup_reps']} set-ups in all; workload generated in "
              f"{info['generate_s']:.3f} s outside every timer")
        print(f"plain wall clock over all steps: p50 {info['wall_ms_p50']:.3f} ms, "
              f"p99 {info['wall_ms_p99']:.3f} ms, {info['wall_tok_s']:.3f} tok/s")

    metrics = result["metrics"]
    units = {name: spec[0] for name, spec in table.items()}
    for name, (unit, better, *moves) in table.items():
        why = f"  moves {moves[0]} on {moves[1]}" if moves else ""
        print(f"  {name:32s} {metrics[name]:>12.6g} {unit:6s} ({better} is better){why}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_step_share':32s} {share:>12.6g} ratio  (lower is better)")
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
