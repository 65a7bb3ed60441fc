"""In-process A/B of set-up and decode times against another checkout.

    python3 benchmarks/ab.py --other DIR --workload reuse-drift [--passes 20] [--seed 0]

Run from the repository root. It loads this checkout's `src/icecache` as
`icecache` and DIR's as `icecache_other` (the package's imports are
relative, so both load side by side), generates the named perfbench
workload's stream once, with this checkout's workload code, and feeds it
to an engine of each side. Each pass runs, per side, `MIN_REPEATS` rounds
of a set-up (`Engine(cfg).prefill`) and a decode of the workload's window;
the two sides alternate round by round, and which side goes first
alternates pass by pass. A pass's set-up figure is the median of its
set-ups; its decode figure is the median over step positions of each
position's fastest round, as perfbench's `decode_timings` reads
`decode_ms_p50`. For each figure it prints each side's median and
quartiles over the passes, the change of the medians, and how many passes
this checkout won (took less time). BLAS runs on one thread.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

import icecache  # noqa: E402
from perfbench.workloads import MIN_REPEATS, WORKLOADS  # noqa: E402


def load(package: Path, name: str):
    """The package at `package` imported under the module name `name`."""
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def round_times(side, cfg, wl, n_prefill: int, window: int) -> tuple[float, list[float]]:
    """One set-up's seconds and the following window's step seconds."""
    gc.collect()
    t0 = perf_counter()
    engine = side.Engine(cfg).prefill(wl, n_prefill)
    setup = perf_counter() - t0
    steps = []
    for i in range(window):
        step = wl.decode_step(n_prefill, i)
        t0 = perf_counter()
        engine.decode_step(step)
        steps.append(perf_counter() - t0)
    return setup, steps


def compare(other: Path, workload: str, passes: int, seed: int) -> dict[str, np.ndarray]:
    """Per-pass set-up and decode figures (ms), a (passes, 2) array each:
    column 0 this checkout, column 1 the other."""
    bench = WORKLOADS[workload]
    sides = [icecache, load(other / "src" / "icecache", "icecache_other")]
    cfg_fields = dataclasses.asdict(bench.cfg)
    cfgs = [side.EngineConfig(**cfg_fields) for side in sides]
    wl = bench.generate(seed)
    setup, decode = np.zeros((passes, 2)), np.zeros((passes, 2))
    for p in range(passes):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        setups, steps = [[], []], [[], []]
        for _ in range(MIN_REPEATS):
            for s in order:
                dt, step_s = round_times(sides[s], cfgs[s], wl, bench.n_prefill, bench.window)
                setups[s].append(dt)
                steps[s].append(step_s)
        for s in (0, 1):
            setup[p, s] = 1e3 * np.median(setups[s])
            decode[p, s] = 1e3 * np.median(np.min(steps[s], axis=0))
    return {"setup": setup, "decode": decode}


def summary(name: str, figures: np.ndarray) -> str:
    """One line: each side's median (quartiles), the change, the passes won."""
    q1, med, q3 = np.percentile(figures, [25, 50, 75], axis=0)
    won = int((figures[:, 0] < figures[:, 1]).sum())
    change = 100 * (med[0] / med[1] - 1)
    return (f"{name:6s} this {med[0]:.3f} ({q1[0]:.3f}-{q3[0]:.3f}) ms  "
            f"other {med[1]:.3f} ({q1[1]:.3f}-{q3[1]:.3f}) ms  "
            f"{change:+.1f} %  won {won} of {figures.shape[0]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", required=True, type=Path,
                        help="the checkout to compare against (holds src/icecache)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not (args.other / "src" / "icecache" / "__init__.py").is_file():
        parser.error(f"{args.other} holds no src/icecache package")
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    figures = compare(args.other.resolve(), args.workload, args.passes, args.seed)
    print(f"{args.workload} seed {args.seed}: {args.passes} passes of {MIN_REPEATS} rounds "
          f"per side, this checkout against {args.other}")
    for name, values in figures.items():
        print(summary(name, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
