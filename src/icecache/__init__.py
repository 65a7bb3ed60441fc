"""Semantic KV-cache paging at desk scale.

Keys are clustered into a per-head hierarchical index whose leaves map to
fixed-size pages; decode-time queries select the pages holding their most
relevant tokens, a two-tier store accounts bulk transfers, and sparse
attention runs over the loaded pages plus the resident sink and window
tokens. Every approximate path is testable against exact brute-force
oracles.
"""

from .attention import AttentionOutput, full_attention, gqa_union, sparse_attention
from .dci import (SENTINEL_LEVEL, DciNode, DciTree, SearchBudget, assign_levels,
                  dci_indexing)
from .engine import Engine, EngineConfig, StepMetrics, pipeline_estimate
from .errors import (ConfigError, ConsistencyError, DegenerateQueryError,
                     IceCacheError, InputError, InvariantViolation,
                     ScaleViolationError, TraceFormatError)
from .geometry import KeyScale, exact_topk, transform_key, transform_query
from .pagestore import TierStore, TransferStats, find_page_index
from .workload import (DecodeStep, Workload, WorkloadSpec, generate_workload,
                       load_trace, save_trace)

__version__ = "0.1.0"

__all__ = [
    "AttentionOutput", "full_attention", "gqa_union", "sparse_attention",
    "SENTINEL_LEVEL", "DciNode", "DciTree", "SearchBudget", "assign_levels", "dci_indexing",
    "Engine", "EngineConfig", "StepMetrics", "pipeline_estimate",
    "IceCacheError", "ConfigError", "InputError", "ScaleViolationError",
    "DegenerateQueryError", "ConsistencyError",
    "InvariantViolation", "TraceFormatError",
    "KeyScale", "exact_topk", "transform_key", "transform_query",
    "TierStore", "TransferStats", "find_page_index",
    "DecodeStep", "Workload", "WorkloadSpec", "generate_workload",
    "load_trace", "save_trace",
]
