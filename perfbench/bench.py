"""Run one workload and report its end-to-end or per-layer metrics.

Load model: one process decodes one stream on one thread, a closed loop
with one client (each `decode_step` is issued when the previous returns).

Every run does the same work for a given `--seconds`: it decodes the
workload's fixed window of steps `repeats` times, each time from a freshly
prefilled engine, so every repeat covers the same context range and step i
does the same work in each. Set-up is timed at least `setup_reps` times,
the same number before each repeat, and reported as a median. Peak memory
is read after the first repeat. Fidelity and transfer counts are the mean
over the first repeat and one untimed pass on each of the other
`fidelity_streams` streams drawn from the seed. Every step's outputs are
checked outside the timer (see check.py).

The shared 2-vCPU hosts this was built on switch between a quiet state and
one up to about 1.6x slower, for pure Python and small NumPy calls alike,
for stretches from a fraction of a second to minutes. The window is short,
so repeats are a second or two apart; each step position keeps its
fastest repeat, and the figures are taken over all positions:
`decode_ms_p50` is the median of those fastest times and `decode_tok_s` is
the window's steps over their sum. `decode_ms_p99` scales `decode_ms_p50`
by the 99th percentile of every step's time over the median of its block
of `page_size` steps (one window rotation), pooled over the repeats. The
plain wall-clock figures are printed beside them.

With trace=1 the run decodes the window on two engines in alternating
blocks, one untraced and one with the span recorder installed, and reports
per-layer metrics from the spans; the ratio of the two decode times is the
tracing overhead.
"""

from __future__ import annotations

import gc
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from icecache import Engine, exact_topk

from .check import StreamChecker
from .spans import SpanRecorder
from .workloads import BenchWorkload

# Samples that must lie beyond a reported tail percentile.
TAIL_MIN = 10
# Traced runs score recall on the selection queries of every RECALL_EVERY-th step.
RECALL_EVERY = 4
# Selection queries timed against the dense top-k bar.
DENSE_SAMPLE = 48

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "decode_ms_p50": ("ms", "lower"),
    "decode_ms_p99": ("ms", "lower"),
    "decode_tok_s": ("tok/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "topk_hit_rate": ("ratio", "higher"),
    "covered_mass": ("ratio", "higher"),
    "attn_out_err": ("ratio", "lower"),
    "kv_kib_per_step": ("KiB", "lower"),
}

# name -> (unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = {
    "geometry.exact_topk_ms": ("ms", "lower", "none: dense bar for dci.select_query_ms", "all"),
    "geometry.argpartition_ms": ("ms", "lower", "none: dense bar for dci.select_query_ms", "all"),
    "dci.select_query_ms": ("ms", "lower", "decode_ms_p50, decode_tok_s",
                            "clustered-10k, uniform-32k"),
    "dci.select_queries_per_step": ("count", "lower", "decode_tok_s", "reuse-drift"),
    "dci.distance_evals_per_query": ("count", "lower", "decode_ms_p50", "clustered-10k"),
    "dci.recall_at_k": ("ratio", "higher", "topk_hit_rate", "uniform-32k, reuse-drift"),
    "dci.insert_ms": ("ms", "lower", "decode_ms_p99", "reuse-drift"),
    "dci.build_s": ("s", "lower", "setup_s", "all"),
    "dci.nodes_over_visit_cap": ("count", "lower", "decode_ms_p50",
                                 "uniform-32k (0 on clustered-10k)"),
    "dci.max_node_size": ("count", "lower", "decode_ms_p50", "uniform-32k"),
    "dci.levels": ("count", "lower", "decode_ms_p50", "uniform-32k"),
    "dci.scale_clamps": ("count", "lower", "topk_hit_rate", "reuse-drift"),
    "pagestore.pages_loaded_per_step": ("count", "lower", "kv_kib_per_step", "all"),
    "pagestore.transactions_per_step": ("count", "lower", "kv_kib_per_step", "all"),
    "pagestore.resident_skip_share": ("ratio", "higher", "kv_kib_per_step", "reuse-drift"),
    "pagestore.page_packing": ("ratio", "higher", "kv_kib_per_step, attention.sparse_ms", "all"),
    "pagestore.self_ms_per_step": ("ms", "lower", "decode_ms_p50", "reuse-drift"),
    "attention.full_ms": ("ms", "lower", "decode_ms_p50", "clustered-10k"),
    "attention.sparse_ms": ("ms", "lower", "decode_ms_p50", "reuse-drift"),
    "attention.sparse_tokens": ("count", "lower", "decode_ms_p50", "reuse-drift"),
    "engine.decode_self_ms": ("ms", "lower", "decode_ms_p50", "all"),
    "engine.prefill_self_s": ("s", "lower", "setup_s, peak_rss_mib", "all"),
    "engine.rotation_step_ms": ("ms", "lower", "decode_ms_p99", "reuse-drift, uniform-32k"),
    "engine.rotation_steps": ("count", "lower", "decode_ms_p99", "reuse-drift, uniform-32k"),
    "workload.generate_s": ("s", "lower", "none: input cost stays out of setup_s", "all"),
    "trace.overhead_share": ("ratio", "lower", "none", "all"),
}


def tail_percentile(samples, pct: float = 99.0) -> float:
    """The pct-th percentile, refusing a tail thinner than TAIL_MIN samples."""
    values = np.asarray(samples, dtype=float)
    value = float(np.percentile(values, pct))
    beyond = int((values > value).sum())
    if beyond < TAIL_MIN:
        raise ValueError(f"p{pct:g} of {values.size} samples leaves {beyond} beyond it; "
                         f"need at least {TAIL_MIN}")
    return value


@dataclass
class Pass:
    """Timings and counters of one decode pass."""

    checker: StreamChecker
    step_s: list[float] = field(default_factory=list)
    bytes_moved: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stopped: bool = False  # a step raised; the engine is not decoded further


class Runner:
    """Set-up and decode of one workload instance."""

    def __init__(self, wl: BenchWorkload, seed: int, stream: int = 0):
        self.wl = wl
        t0 = perf_counter()
        self.workload = wl.generate(seed, stream)
        self.generate_s = perf_counter() - t0

    def setup(self) -> tuple[Engine, float]:
        """A fresh prefilled engine and its set-up wall time."""
        gc.collect()
        t0 = perf_counter()
        engine = Engine(self.wl.cfg).prefill(self.workload, self.wl.n_prefill)
        return engine, perf_counter() - t0

    def decode(self, engine: Engine, run: Pass | None = None, stop: int | None = None,
               after_step=None) -> Pass:
        """Decode the window's steps up to `stop` (default: all), one after the other.

        With `run` given, the pass resumes after its last attempted step.
        Outputs are recorded after each step, outside the timer; call
        `verify` on the result once the engine is no longer needed.
        """
        n, steps = self.wl.n_prefill, self.wl.window
        if run is None:
            run = Pass(StreamChecker(self.workload, self.wl.cfg, n, steps))
        for i in range(run.attempted, steps if stop is None else stop):
            if run.stopped:
                break
            step = self.workload.decode_step(n, i)
            run.attempted += 1
            t0 = perf_counter()
            try:
                outputs, metrics = engine.decode_step(step)
            except Exception as exc:  # a raising step is a failed step; stop the stream
                run.failed += 1
                run.problems.append(f"token {n + i}: decode_step raised {exc!r}")
                run.stopped = True
                break
            dt = perf_counter() - t0
            run.step_s.append(dt)
            run.bytes_moved += metrics.bytes_moved
            run.checker.record(i, outputs, engine.fallback)
            if after_step is not None:
                run.checker.problems[i].extend(after_step(i, dt))
        return run


def verify(run: Pass) -> None:
    """Numeric checks of a finished pass; counts each failing step once."""
    for problems in run.checker.verify().values():
        run.failed += 1
        run.problems.extend(problems)


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def decode_timings(step_s, block: int) -> dict[str, float]:
    """p50, p99 and throughput of repeated decode windows.

    `step_s` holds one row of step times per repeat of the same window.
    Each step position keeps its fastest repeat; every position counts.
    The tail is read from every repeat, as each step's time over the median
    of its `block`, so that it does not depend on the host's speed.
    """
    times = 1e3 * np.asarray(step_s)
    fastest = times.min(axis=0)
    p50 = float(np.median(fastest))
    blocks = times.reshape(times.shape[0], -1, block)
    ratios = (blocks / np.median(blocks, axis=2, keepdims=True)).ravel()
    return {"decode_ms_p50": p50,
            "decode_ms_p99": p50 * tail_percentile(ratios),
            "decode_tok_s": 1e3 * fastest.size / float(fastest.sum())}


def measure(wl: BenchWorkload, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one untraced run."""
    runner = Runner(wl, seed)
    repeats = wl.repeats(seconds)
    setups_per_repeat = -(-wl.setup_reps // repeats)  # at least setup_reps in all
    setups, passes = [], []
    peak_rss_mib = 0.0
    engine = None
    for r in range(repeats):
        for _ in range(setups_per_repeat):
            engine = None
            engine, dt = runner.setup()
            setups.append(dt)
        gc.collect()
        run = runner.decode(engine)
        engine = None
        passes.append(run)
        if len(run.step_s) < wl.window:
            raise RuntimeError(f"decode stopped after {len(run.step_s)} steps: {run.problems[:3]}")
        if r == 0:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    step_s = np.array([run.step_s for run in passes])
    # Fidelity and transfers vary with the data, not the host: score more
    # streams once each, untimed, rather than one stream many times.
    scored = passes[:1]
    for stream in range(1, wl.fidelity_streams):
        other = Runner(wl, seed, stream)
        engine, _ = other.setup()
        scored.append(other.decode(engine))
        engine = None
    every = passes + scored[1:]
    for run in every:
        verify(run)
    fidelity = [run.checker.fidelity() for run in scored]
    metrics = {
        "setup_s": _median(setups),
        **decode_timings(step_s, wl.cfg.page_size),
        "peak_rss_mib": peak_rss_mib,
        **{name: float(np.mean([f[name] for f in fidelity])) for name in fidelity[0]},
        "kv_kib_per_step": float(np.mean([run.bytes_moved for run in scored])) / 1024 / wl.window,
    }
    wall_ms = 1e3 * step_s.ravel()
    return {"metrics": metrics, "attempted": sum(run.attempted for run in every),
            "failed": sum(run.failed for run in every),
            "problems": [p for run in every for p in run.problems], "steps": wl.window,
            "info": {"repeats": repeats, "setup_reps": len(setups),
                     "generate_s": runner.generate_s,
                     "wall_ms_p50": float(np.median(wall_ms)),
                     "wall_ms_p99": float(np.percentile(wall_ms, 99)),
                     "wall_tok_s": wall_ms.size / wall_ms.sum() * 1e3}}


def trace(wl: BenchWorkload, seed: int, spans_path: str | None = None) -> dict:
    """Per-layer metrics of one traced run (plus an untraced twin for overhead).

    The untraced and the traced engine decode the window in alternating
    blocks, so a change in host speed reaches both and the ratio of their
    decode times is the tracing overhead.
    """
    runner = Runner(wl, seed)
    rec = SpanRecorder()
    samples: list[tuple] = []
    first = [0]  # index of the current step's first span

    def after_step(i: int, dt: float) -> list[str]:
        problems = []
        idx = first[0]
        if rec.names[idx] != "engine.decode_step" or rec.end[idx] - rec.start[idx] > dt:
            problems.append(f"step {i}: decode_step span missing or longer than its timer")
        if i % RECALL_EVERY == 0:
            samples.extend(_recall_samples(rec, idx))
        first[0] = len(rec.names)
        rec.step_id = i + 1
        return problems

    engine, _ = runner.setup()
    with rec.install():
        traced_engine, _ = runner.setup()
    rec.step_id = 0
    first[0] = len(rec.names)
    plain = traced = None
    block = wl.cfg.page_size
    for stop in range(block, wl.window + block, block):
        plain = runner.decode(engine, plain, stop)
        with rec.install():
            traced = runner.decode(traced_engine, traced, stop, after_step)
    engine = None
    verify(plain)
    verify(traced)
    if spans_path is not None:
        rec.write(spans_path)

    steps = len(traced.step_s)
    heads = {id(state.tree): key for key, state in traced_engine.heads.items()}
    metrics = layer_metrics(rec, traced_engine, wl, steps)
    metrics.update(_recall_and_dense_bar(runner, heads, samples))
    metrics["workload.generate_s"] = runner.generate_s
    metrics["trace.overhead_share"] = sum(traced.step_s) / sum(plain.step_s) - 1.0
    problems = plain.problems + traced.problems
    failed = plain.failed + traced.failed
    if rec.overlap_violations():
        problems.append("child spans outlast their parent")
        failed += 1
    return {"metrics": metrics, "attempted": plain.attempted + traced.attempted,
            "failed": failed, "problems": problems, "steps": steps,
            "info": {"spans": len(rec.names)}}


def _recall_samples(rec: SpanRecorder, first: int) -> list[tuple]:
    """Selection queries (not insert-parent queries) among spans first.. of one step."""
    out = []
    for idx in range(first, len(rec.names)):
        parent = rec.parent[idx]
        if rec.names[idx] == "dci.query" and parent >= 0 and \
                rec.names[parent] == "engine.decode_step":
            tree, q_vec, k, result, _, size = rec.notes[idx]
            out.append((tree, q_vec, k, result, size))
    return out


def _recall_and_dense_bar(runner: Runner, heads: dict, samples: list[tuple]) -> dict:
    """Tree recall against exact top-k, and the dense top-k bar on the same keys.

    A tree's points are kept in insertion order, so the first `size` of
    `tree.point_ids`, with `size` taken when the query ran, are the set
    that query searched, whatever the tree took in afterwards.
    """
    keys = runner.workload.keys
    point_ids: dict[int, np.ndarray] = {}
    recalls = []
    topk_ms, argpart_ms = [], []
    for j, (tree, q_vec, k, result, size) in enumerate(samples):
        layer, h = heads[id(tree)]
        if id(tree) not in point_ids:
            point_ids[id(tree)] = np.asarray(tree.point_ids)
        ids = point_ids[id(tree)][:size]
        mat = keys[ids, layer, h]
        q = q_vec[:-1]
        k = min(k, ids.size)
        exact = ids[np.argpartition(mat @ q, -k)[-k:]]
        recalls.append(np.isin(exact, result).sum() / k)
        if j < DENSE_SAMPLE:
            t0 = perf_counter()
            exact_topk(q, mat, k)
            t1 = perf_counter()
            np.argpartition(mat @ q, -k)[-k:]
            t2 = perf_counter()
            topk_ms.append(1e3 * (t1 - t0))
            argpart_ms.append(1e3 * (t2 - t1))
    return {"dci.recall_at_k": float(np.mean(recalls)) if recalls else 0.0,
            "geometry.exact_topk_ms": _median(topk_ms),
            "geometry.argpartition_ms": _median(argpart_ms)}


def layer_metrics(rec: SpanRecorder, engine: Engine, wl: BenchWorkload, steps: int) -> dict:
    """Per-layer metrics derived from the spans and the engine's public state."""
    names, dur, self_time, parent = rec.arrays()
    step_of = np.asarray(rec.step)
    decoding = step_of >= 0

    def pick(name):
        return (names == name) & decoding

    decode = pick("engine.decode_step")
    query = pick("dci.query")
    select = query & (names[np.maximum(parent, 0)] == "engine.decode_step") & (parent >= 0)
    sel_idx = np.flatnonzero(select)
    distance = [rec.notes[i][4] for i in sel_idx]

    store_self = 0.0
    for name in ("pagestore.backload", "pagestore.offload", "pagestore.find_page_index"):
        store_self += float(self_time[pick(name)].sum())
    backloads = [rec.notes[i] for i in np.flatnonzero(pick("pagestore.backload"))]
    requested = sum(n for n, _ in backloads)
    loaded = sum(s.pages_backloaded for _, s in backloads)
    transactions = sum(s.transactions for _, s in backloads)
    skipped = sum(s.pages_filtered_resident for _, s in backloads)
    finds = [rec.notes[i] for i in np.flatnonzero(pick("pagestore.find_page_index"))]
    packed_tokens = sum(t for t, _ in finds)
    packed_slots = sum(p for _, p in finds) * wl.cfg.page_size
    sparse_tokens = [rec.notes[i] for i in np.flatnonzero(pick("attention.sparse"))]

    rotation = np.unique(step_of[pick("pagestore.offload")])
    decode_step_ids = step_of[decode]
    rotation_ms = dur[decode][np.isin(decode_step_ids, rotation)] * 1e3

    prefill = (names == "engine.prefill") & ~decoding
    build = (names == "dci.build") & ~decoding

    trees = [state.tree for state in engine.heads.values()]
    visit_cap = wl.cfg.budget().visit_cap
    sizes = [len(node.member_ids) for t in trees for node in t.nodes.values()]
    return {
        "dci.select_query_ms": 1e3 * _median(self_time[select]),
        "dci.select_queries_per_step": len(sel_idx) / steps,
        "dci.distance_evals_per_query": float(np.mean(distance)) if distance else 0.0,
        "dci.insert_ms": 1e3 * _median(dur[pick("dci.insert")]),
        "dci.build_s": float(dur[build].sum()),
        "dci.nodes_over_visit_cap": int(sum(s > visit_cap for s in sizes)),
        "dci.max_node_size": max(sizes, default=0),
        "dci.levels": max((t.levels for t in trees), default=0),
        "dci.scale_clamps": sum(t.scale_clamps for t in trees),
        "pagestore.pages_loaded_per_step": loaded / steps,
        "pagestore.transactions_per_step": transactions / steps,
        "pagestore.resident_skip_share": skipped / requested if requested else 0.0,
        "pagestore.page_packing": packed_tokens / packed_slots if packed_slots else 0.0,
        "pagestore.self_ms_per_step": 1e3 * store_self / steps,
        "attention.full_ms": 1e3 * _median(dur[pick("attention.full")]),
        "attention.sparse_ms": 1e3 * _median(dur[pick("attention.sparse")]),
        "attention.sparse_tokens": float(np.mean(sparse_tokens)) if sparse_tokens else 0.0,
        "engine.decode_self_ms": 1e3 * _median(self_time[decode]),
        "engine.prefill_self_s": float(self_time[prefill].sum()),
        "engine.rotation_step_ms": _median(rotation_ms),
        "engine.rotation_steps": int(rotation.size),
    }
