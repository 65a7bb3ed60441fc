"""Digests of one decode run, for checking that a change keeps outputs bit-identical.

    python3 benchmarks/digest.py --workload reuse-drift --seed 0 --steps 64 [--evaluate]

Run from the repository root. It builds the named perfbench workload's
stream, prefills a fresh engine from the checkout's own `src/`, decodes
`--steps` steps and prints one sha256 digest per group:

  outputs  every AttentionOutput: attended ids, dense weights, value_out bytes
  metrics  every step's StepMetrics counters; with --evaluate, every step's
           scored report row (`icecache.bench.score_step`) instead. The
           repr of each field is digested, so floats are exact
  trees    each tree's nodes (level, owner, parent's owner, members, page
           ranks), point levels and scale clamps: its structure
  counters each tree's query count and distance evaluations
  pages    each leaf page's rank and token ids, in slot order, leaf by leaf
  stats    each head's transfer counters
  store    each head's hot leaf pages and leaf page fills: the residency
           state after the last step

and a last line digesting all of them. A node is named by its level and
its owner, the point one level up whose children it holds (-1 for the top
node), and nodes are walked in that order. A page is named by its rank
among its head's leaf pages in ascending id order, so two page layouts
that open the same leaf pages in the same order digest equal even if
other pages take ids between them. The sink and window tokens are covered
by the attended ids. Only public state is read, so the same file runs on
two checkouts and equal lines mean equal runs. BLAS runs on one thread.

`--workload all` runs every perfbench workload in turn and prefixes each
line with the workload's name, so one `diff` of two checkouts' output
compares them all.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
from dataclasses import fields, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from icecache import Engine  # noqa: E402
from icecache.bench import score_step  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _ints(values) -> bytes:
    return np.asarray(list(values), dtype=np.int64).tobytes()


def run(workload: str, seed: int, steps: int, evaluate: bool) -> dict[str, str]:
    bw = WORKLOADS[workload]
    bw = replace(bw, window=steps)
    wl = bw.generate(seed)
    engine = Engine(bw.cfg).prefill(wl, bw.n_prefill)
    groups = {name: hashlib.sha256()
              for name in ("outputs", "metrics", "trees", "counters", "pages", "stats", "store")}
    for i in range(steps):
        outputs, metrics = engine.decode_step(wl.decode_step(bw.n_prefill, i))
        for per_layer in outputs:
            for out in per_layer:
                groups["outputs"].update(_ints(out.token_ids))
                groups["outputs"].update(np.asarray(out.dense_weights, dtype=float).tobytes())
                groups["outputs"].update(out.value_out.tobytes())
        if evaluate:
            row = score_step(engine, wl, outputs, metrics)
        else:
            row = {f.name: getattr(metrics, f.name) for f in fields(metrics)
                   if f.name != "selections"}
        groups["metrics"].update(repr(list(row.items())).encode())
    for key in sorted(engine.heads):
        state = engine.heads[key]
        tree, store = state.tree, state.store
        nodes = tree.nodes.values()  # in (level, owner) order
        leaf_pages = np.sort([p for n in nodes for p in n.page_ids])
        rank = dict(zip(leaf_pages.tolist(), range(leaf_pages.size)))
        named = [(n.level, n.owner_id, n.parent_owner, tuple(n.member_ids),
                  tuple(rank[p] for p in n.page_ids)) for n in nodes]
        groups["trees"].update(repr((key, tree.levels, named, sorted(tree.point_level.items()),
                                     tree.scale_clamps)).encode())
        groups["counters"].update(repr((key, tree.query_count, tree.distance_evals)).encode())
        for node in nodes:
            for pid in node.page_ids:
                groups["pages"].update(_ints([rank[pid]]) + _ints(store.tokens_in([pid])))
        stats = store.stats
        groups["stats"].update(repr((key, [(f.name, getattr(stats, f.name))
                                           for f in fields(stats)])).encode())
        groups["store"].update(repr((key, leaf_pages.size)).encode())
        groups["store"].update(_ints(np.flatnonzero(store.hot[leaf_pages])))
        groups["store"].update(_ints(store.fill[leaf_pages]))
    out = {name: h.hexdigest() for name, h in groups.items()}
    out["all"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=64)
    parser.add_argument("--evaluate", action="store_true",
                        help="digest each step's scored report row as the metrics group")
    args = parser.parse_args()
    every = args.workload == "all"
    for workload in WORKLOADS if every else [args.workload]:
        prefix = f"{workload} " if every else ""
        for name, digest in run(workload, args.seed, args.steps, args.evaluate).items():
            print(f"{prefix}{name:8s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
