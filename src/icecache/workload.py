"""Synthetic workload generation and the binary trace format.

A workload is a pre-generated stream of key/value vectors per (layer, kv
head) and query vectors per (layer, query head) — the cache machinery under
test consumes embeddings, it is not a transformer. Every token carries a
query so any prefill/decode split of a stream is valid.

Kinds:
  clustered      keys drawn around per-head Gaussian cluster centers; the
                 cluster assignment of each token is shared across layers,
                 with a small per-layer jitter, so streams are correlated
                 across layers the way real checkpoints are. Queries aim at
                 a cluster center.
  planted_needle background keys scattered on the unit sphere; one token's
                 key is needle_gain x a held-out unit direction, and every
                 decode query points along that direction.
  uniform        iid Gaussian keys and queries.
  trace_file     loaded from disk (see save_trace / load_trace).

Trace format, all integers little-endian: magic "ICET", version u32, then
u32 fields {layers, kv_heads, q_groups, d, d_prime, n_tokens}, followed by
little-endian f32 payload ordered token-major, then layer, then kv head,
with (key[d], value[d_prime], query[d]) per query-head group.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TraceFormatError

TRACE_MAGIC = b"ICET"
TRACE_VERSION = 1

KINDS = ("clustered", "planted_needle", "uniform", "trace_file")


@dataclass
class WorkloadSpec:
    """Parameters of a synthetic workload."""

    kind: str = "clustered"
    n_tokens: int = 4096
    d: int = 64
    d_prime: int = 64
    clusters: int = 32
    cluster_spread: float = 0.1
    needle_gain: float = 2.0
    seed: int = 0
    layers: int = 4
    kv_heads: int = 2
    query_heads_per_group: int = 1
    # Per-layer key/query jitter relative to cluster_spread; small values
    # model the cross-layer correlation real models exhibit.
    layer_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown workload kind {self.kind!r}")
        if self.n_tokens < 1:
            raise ConfigError("n_tokens must be positive")
        if self.kind == "clustered" and self.clusters < 1:
            raise ConfigError("clustered workloads need clusters >= 1")
        if self.kind == "planted_needle" and self.n_tokens < 2:
            raise ConfigError("planted_needle workloads need n_tokens >= 2")
        if min(self.d, self.d_prime, self.layers, self.kv_heads,
               self.query_heads_per_group) < 1:
            raise ConfigError("dims, layers and head counts must be >= 1")
        for name in ("cluster_spread", "needle_gain", "layer_jitter"):
            if not 0.0 <= getattr(self, name) < np.inf:  # also false for nan
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class DecodeStep:
    """One decode token: per-layer queries and the token's own kv."""

    token_id: int
    queries: np.ndarray   # (layers, n_query_heads, d)
    keys: np.ndarray      # (layers, kv_heads, d)
    values: np.ndarray    # (layers, kv_heads, d_prime)


@dataclass
class Workload:
    """Full q/k/v streams; slice into a prefill region plus decode steps."""

    spec: WorkloadSpec
    keys: np.ndarray      # (n_tokens, layers, kv_heads, d)
    values: np.ndarray    # (n_tokens, layers, kv_heads, d_prime)
    queries: np.ndarray   # (n_tokens, layers, n_query_heads, d)
    needle_token: int | None = None
    cluster_of: np.ndarray | None = field(default=None, repr=False)
    query_cluster: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_tokens(self) -> int:
        return self.keys.shape[0]

    def prefill_view(self, n_prefill: int):
        """(keys, values) arrays for the first n_prefill tokens."""
        if not 0 < n_prefill <= self.n_tokens:
            raise ConfigError(f"prefill length {n_prefill} outside 1..{self.n_tokens}")
        return self.keys[:n_prefill], self.values[:n_prefill]

    def decode_step(self, n_prefill: int, step: int) -> DecodeStep:
        token = n_prefill + step
        if n_prefill < 1:
            raise ConfigError(f"n_prefill {n_prefill} is below 1")
        if step < 0:
            raise ConfigError(f"step {step} is negative")
        if token >= self.n_tokens:
            raise ConfigError(f"step {step} runs past the {self.n_tokens}-token stream")
        return DecodeStep(token, self.queries[token], self.keys[token], self.values[token])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def generate_workload(spec: WorkloadSpec) -> Workload:
    """Deterministic streams for the given spec (same seed, same bits)."""
    if spec.kind == "trace_file":
        raise ConfigError("trace_file workloads are loaded with load_trace()")
    rng = np.random.default_rng(spec.seed)
    n, L, H, G = spec.n_tokens, spec.layers, spec.kv_heads, spec.query_heads_per_group
    d, dv = spec.d, spec.d_prime

    values = rng.normal(size=(n, L, H, dv)) / np.sqrt(dv)
    keys = np.empty((n, L, H, d))
    queries = np.empty((n, L, H * G, d))
    needle_token = None
    cluster_of = None
    query_cluster = None

    if spec.kind == "uniform":
        keys[:] = rng.normal(size=(n, L, H, d)) / np.sqrt(d)
        queries[:] = _unit(rng.normal(size=(n, L, H * G, d))) * np.sqrt(d)

    elif spec.kind == "clustered":
        centers = _unit(rng.normal(size=(H, spec.clusters, d)))
        cluster_of = rng.integers(0, spec.clusters, size=n)
        query_cluster = rng.integers(0, spec.clusters, size=n)
        sigma = spec.cluster_spread / np.sqrt(d)
        jitter = spec.layer_jitter * sigma
        key_noise = rng.normal(size=(n, H, d)) * sigma
        query_noise = rng.normal(size=(n, H * G, d)) * sigma
        for layer in range(L):
            layer_key = rng.normal(size=(n, H, d)) * jitter
            layer_query = rng.normal(size=(n, H * G, d)) * jitter
            for h in range(H):
                keys[:, layer, h] = centers[h, cluster_of] + key_noise[:, h] + layer_key[:, h]
                ctr = centers[h, query_cluster]
                for g in range(G):
                    qh = h * G + g
                    queries[:, layer, qh] = (ctr + query_noise[:, qh] + layer_query[:, qh]) * np.sqrt(d)

    elif spec.kind == "planted_needle":
        target = _unit(rng.normal(size=(H, d)))
        base = rng.normal(size=(n, L, H, d)) * (spec.cluster_spread / np.sqrt(d))
        keys[:] = _unit(target[None, None, :, :] + base)
        needle_token = int(rng.integers(n // 4, 3 * n // 4))
        for h in range(H):
            keys[needle_token, :, h] = spec.needle_gain * target[h]
            for g in range(G):
                queries[:, :, h * G + g, :] = target[h] * np.sqrt(d)

    return Workload(spec, keys, values, queries, needle_token=needle_token,
                    cluster_of=cluster_of, query_cluster=query_cluster)


# -- trace I/O ------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIIIII")  # magic, version, 6 shape fields


def save_trace(workload: Workload, path: str) -> None:
    """Write the workload in the binary trace format.

    The format carries one query per kv-head group; groups with several
    query heads store the first head's query.
    """
    spec = workload.spec
    n, L, H = workload.n_tokens, spec.layers, spec.kv_heads
    G = spec.query_heads_per_group
    d, dv = spec.d, spec.d_prime
    payload = np.empty((n, L, H, d + dv + d), dtype="<f4")
    group_queries = workload.queries[:, :, ::G, :]  # first head of each group
    payload[..., :d] = workload.keys
    payload[..., d:d + dv] = workload.values
    payload[..., d + dv:] = group_queries
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, L, H, G, d, dv, n))
        fh.write(payload.tobytes())


def load_trace(path: str) -> Workload:
    """Read a trace file back into a Workload.

    Malformed files, non-finite values included, raise TraceFormatError
    naming the failing byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TraceFormatError(f"truncated header: file ends at byte offset {len(raw)}")
    magic, version, L, H, G, d, dv, n = _HEADER.unpack_from(raw, 0)
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r} at byte offset 0")
    if version != TRACE_VERSION:
        raise TraceFormatError(f"unsupported trace version {version} at byte offset 4")
    if min(L, H, G, d, dv, n) < 1:
        raise TraceFormatError(f"non-positive shape field in header at byte offset 8")
    expected = n * L * H * (d + dv + d) * 4
    body = len(raw) - _HEADER.size
    if body != expected:
        raise TraceFormatError(
            f"payload is {body} bytes, expected {expected}: file ends at byte offset {len(raw)}")
    payload = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(payload))
    if bad.size:
        raise TraceFormatError(f"non-finite value at byte offset {_HEADER.size + 4 * bad[0]}")
    payload = payload.reshape(n, L, H, d + dv + d).astype(float)

    spec = WorkloadSpec(kind="trace_file", n_tokens=n, d=d, d_prime=dv,
                        layers=L, kv_heads=H, query_heads_per_group=G)
    keys = payload[..., :d]
    values = payload[..., d:d + dv]
    queries = np.repeat(payload[..., d + dv:], G, axis=2)  # share within group
    return Workload(spec, keys, values, queries)
