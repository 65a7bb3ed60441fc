"""The benchmark's named workloads.

Each workload is a synthetic q/k/v stream plus the engine configuration
that decodes it. The seed reaches only `generate_workload`; the engine sees
the generated `Workload` and nothing else. Any reshaping of the stream
(query sharpening, key-norm drift) happens here, outside every timer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from icecache import EngineConfig, Workload, WorkloadSpec, generate_workload

# Fewest windows a run decodes: each step position keeps its fastest repeat.
MIN_REPEATS = 2
# Fewest step samples a run pools for decode_ms_p99: 960 leave ten beyond it.
TAIL_SAMPLES = 960


@dataclass(frozen=True)
class BenchWorkload:
    """One named workload: stream shape, engine config and run lengths."""

    name: str
    why: str
    spec: WorkloadSpec
    cfg: EngineConfig
    n_prefill: int
    window: int               # decode steps per repeat, a whole number of pages
    window_s: float           # nominal seconds of one window; sets the repeat count
    setup_reps: int           # set-ups per run; setup_s is their median
    fidelity_streams: int = 1  # streams scored for fidelity and transfers; the first is timed
    query_scale: float = 1.0  # multiplies every query (sharper logits)
    key_growth: float = 0.0   # relative key-norm growth per decode step

    def repeats(self, seconds: float) -> int:
        """Windows decoded by a run of `seconds`: the same on any machine."""
        return max(MIN_REPEATS, -(-TAIL_SAMPLES // self.window), int(seconds / self.window_s))

    def generate(self, seed: int, stream: int = 0) -> Workload:
        """Stream `stream` of the run for `seed`: same seed, same bits."""
        stream_seed = int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])
        spec = replace(self.spec, seed=stream_seed, n_tokens=self.n_prefill + self.window)
        wl = generate_workload(spec)
        if self.query_scale != 1.0:
            wl.queries *= self.query_scale
        if self.key_growth:
            growth = (1.0 + self.key_growth) ** np.arange(1, self.window + 1)
            wl.keys[self.n_prefill:] *= growth[:, None, None, None]
        return wl


WORKLOADS: dict[str, BenchWorkload] = {w.name: w for w in (
    BenchWorkload(
        name="clustered-10k",
        why=("Default engine on clustered keys the index suits: tree queries and "
             "skip-layer full attention dominate decode; no node exceeds visit_cap."),
        spec=WorkloadSpec(kind="clustered", clusters=32),
        cfg=EngineConfig(),
        n_prefill=10_000, window=64, window_s=2.0, setup_reps=8),
    BenchWorkload(
        name="uniform-32k",
        why=("Long context on uniform keys the index handles badly: set-up is the "
             "tree build, large nodes take the projection search, recall is low."),
        spec=WorkloadSpec(kind="uniform", layers=1),
        cfg=EngineConfig(layers=1, skip_layers=0),
        n_prefill=32_768, window=512, window_s=8.0, setup_reps=4),
    BenchWorkload(
        name="reuse-drift",
        why=("Writes beside reads: selection reuse, rotation inserts set the tail, "
             "drifting key norms cause scale clamps, sharp logits let sparse attention work."),
        spec=WorkloadSpec(kind="clustered", clusters=256, layers=7),
        cfg=EngineConfig(layers=7, skip_layers=1, reuse_stride=3),
        n_prefill=2048, window=64, window_s=1.5, setup_reps=12, fidelity_streams=4,
        query_scale=8.0, key_growth=4e-3),
)}
