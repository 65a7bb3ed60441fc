"""Tree query against a dense exact scan, by key count.

For each key count and key kind, build one tree (budget 64, promotion
ratio 0.1, d = 64) and time 64 queries through `DciTree.query` and through
`np.argpartition` over every key, reporting medians and the tree's recall
of the dense top-64. Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python benchmarks/crossover.py [--keys 2048 10000 30000 100000]

`--keys` lists the key counts: by default 2048 (a reuse-drift tree's size),
10k, 30k and 100k.
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icecache import (SENTINEL_LEVEL, SearchBudget, WorkloadSpec,  # noqa: E402
                      dci_indexing, generate_workload, transform_query)

K = 64


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, nargs="+", default=[2048, 10_000, 30_000, 100_000],
                        help="key counts to measure")
    args = parser.parse_args()
    for kind in ("clustered", "uniform"):
        for n in args.keys:
            wl = generate_workload(WorkloadSpec(kind=kind, clusters=32, n_tokens=n,
                                                layers=1, kv_heads=1, seed=1))
            keys = wl.keys[:, 0, 0]
            queries = wl.queries[:: max(1, n // K), 0, 0][:K]
            t0 = perf_counter()
            tree = dci_indexing(np.arange(len(keys)), keys, 0.1, seed=0)
            build_s = perf_counter() - t0
            budget = SearchBudget.for_k(K)
            tree_ms, dense_ms, recall = [], [], []
            for q in queries:
                lifted = transform_query(q)
                t0 = perf_counter()
                got = tree.query(lifted, SENTINEL_LEVEL, K, budget)
                t1 = perf_counter()
                top = np.argpartition(keys @ q, -K)[-K:]
                t2 = perf_counter()
                tree_ms.append(1e3 * (t1 - t0))
                dense_ms.append(1e3 * (t2 - t1))
                recall.append(np.isin(top, got).mean())
            print(f"{kind:9s} keys={n:7d} build={build_s:6.2f} s "
                  f"tree={np.median(tree_ms):.3f} ms recall={np.mean(recall):.3f} "
                  f"dense={np.median(dense_ms):.3f} ms", flush=True)


if __name__ == "__main__":
    main()
