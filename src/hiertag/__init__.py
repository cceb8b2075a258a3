"""Directed tag hierarchies from tag co-occurrence data.

The package covers the full loop: generate benchmark corpora from a known
hierarchy, extract hierarchies back out of co-occurrence statistics, and
score reconstructions against the original.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .baselines import (
    SYNTHETIC_ROOT,
    HeymannParams,
    SchmitzParams,
    extract_heymann,
    extract_schmitz,
    strip_synthetic_root,
)
from .benchmark import BenchmarkConfig, frequency_profile, generate
from .corpus import (
    CooccurrenceNetwork,
    CorpusFormatError,
    TagCorpus,
    build_cooccurrence,
    corpus_from_object_lists,
    load_corpus,
)
from .extract_a import AlgoAParams, extract_a
from .extract_b import AlgoBParams, extract_b, prune_network
from .hierarchy import (
    CycleError,
    Hierarchy,
    HierarchyFormatError,
    binary_tree,
    descendant_table,
    hierarchy_to_text,
    load_hierarchy,
    rewire,
    save_hierarchy,
)
from .metrics import (
    DecayCurve,
    LinkRatios,
    QualityReport,
    decay_curve,
    evaluate_hierarchies,
    link_ratios,
    lmi,
    nmi,
    partition_nmi,
)
from .stats import eigenvector_centrality, in_link_entropy, z_from_counts

__all__ = [
    "__version__",
    "AlgoAParams",
    "AlgoBParams",
    "BenchmarkConfig",
    "CooccurrenceNetwork",
    "CorpusFormatError",
    "CycleError",
    "DecayCurve",
    "HeymannParams",
    "Hierarchy",
    "HierarchyFormatError",
    "LinkRatios",
    "QualityReport",
    "SchmitzParams",
    "SYNTHETIC_ROOT",
    "TagCorpus",
    "binary_tree",
    "build_cooccurrence",
    "corpus_from_object_lists",
    "decay_curve",
    "descendant_table",
    "eigenvector_centrality",
    "evaluate_hierarchies",
    "extract_a",
    "extract_b",
    "extract_heymann",
    "extract_schmitz",
    "frequency_profile",
    "generate",
    "hierarchy_to_text",
    "in_link_entropy",
    "link_ratios",
    "lmi",
    "load_corpus",
    "load_hierarchy",
    "nmi",
    "partition_nmi",
    "prune_network",
    "rewire",
    "save_hierarchy",
    "strip_synthetic_root",
    "z_from_counts",
]
