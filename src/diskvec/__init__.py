"""diskvec: a disk-resident graph index for approximate nearest neighbor
search, with a hybrid static/dynamic page cache, similarity-aware batched
reads, and a vector-similarity disk layout, plus a benchmark CLI."""

from .cache import CacheConfig, HitStats, HybridCache, preload_static
from .diskstore import Index, IndexReader, IoStats, write_index
from .graphbuild import GraphIndex, build_graph, medoid
from .layout import (
    LayoutMap,
    ReadInterval,
    build_insertion_layout,
    build_similarity_layout,
    compute_read_interval,
)
from .pqcodec import PQCodebook, build_distance_table, encode, pq_distance, train
from .search import (
    SearchParams,
    SearchStats,
    beam_search,
    calibrate_theta,
    detect_transition,
    run_workload,
)
from .vecdata import (
    VectorDataset,
    ground_truth_topk,
    l2_distance,
    load_fvecs,
    recall_at_k,
    write_fvecs,
)

__version__ = "0.1.0"

__all__ = [
    "CacheConfig",
    "GraphIndex",
    "HitStats",
    "HybridCache",
    "Index",
    "IndexReader",
    "IoStats",
    "LayoutMap",
    "PQCodebook",
    "ReadInterval",
    "SearchParams",
    "SearchStats",
    "VectorDataset",
    "beam_search",
    "build_distance_table",
    "build_graph",
    "build_insertion_layout",
    "build_similarity_layout",
    "calibrate_theta",
    "compute_read_interval",
    "detect_transition",
    "encode",
    "ground_truth_topk",
    "l2_distance",
    "load_fvecs",
    "medoid",
    "pq_distance",
    "preload_static",
    "recall_at_k",
    "run_workload",
    "train",
    "write_fvecs",
    "write_index",
]
