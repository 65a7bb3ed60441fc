"""Per-position decode step times, with the indexed layers that folded on each.

    python3 benchmarks/step_profile.py --workload reuse-drift --repeats 12 [--seed 0]

Run from the repository root. It sets up the named perfbench workload with
perfbench's own `Runner` from the checkout's `src/`, decodes its window
`--repeats` times, each from a freshly prefilled engine, and prints one line
per step position: the fastest of its repeats, in ms, and the indexed layers
that folded a window page on that step (read from the transfer counters of
each indexed layer's first head). A summary line gives the median of
the fold steps and of the other steps. This is the per-position view of the
decode tail, without a profiler. BLAS runs on one thread.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench.bench import Runner  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def profile(workload: str, seed: int, repeats: int) -> tuple[np.ndarray, list[list[int]]]:
    """Step times (repeats x window, seconds) and the layers folding at each step."""
    runner = Runner(WORKLOADS[workload], seed)
    times, folds = [], [[] for _ in range(runner.wl.window)]
    for _ in range(repeats):
        engine, _ = runner.setup()
        indexed = sorted(engine.window_start)
        offloads = [0] * len(indexed)

        def after_step(i, dt):
            for j, layer in enumerate(indexed):
                count = engine.heads[(layer, 0)].store.stats.pages_offloaded
                if count > offloads[j] and layer not in folds[i]:
                    folds[i].append(layer)
                offloads[j] = count
            return []
        run = runner.decode(engine, after_step=after_step)
        if run.stopped:
            raise RuntimeError(f"decode stopped: {run.problems[:3]}")
        times.append(run.step_s)
    return np.array(times), folds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=12)
    args = parser.parse_args()
    times, folds = profile(args.workload, args.seed, args.repeats)
    fastest = 1e3 * times.min(axis=0)
    print(f"{args.workload} seed {args.seed}: fastest of {args.repeats} repeats per step")
    for i, (ms, layers) in enumerate(zip(fastest, folds)):
        print(f"step {i:4d} {ms:8.3f} ms  folded: {' '.join(map(str, layers)) or '-'}")
    folding = np.array([bool(layers) for layers in folds])
    median = {name: f"{np.median(fastest[mask]):.3f} ms ({int(mask.sum())} steps)"
              if mask.any() else "none" for name, mask in (("fold", folding), ("other", ~folding))}
    print(f"median: fold steps {median['fold']}, other steps {median['other']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
