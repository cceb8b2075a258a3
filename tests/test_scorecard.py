"""Baseline scorecard: r_E and NMI of every extractor on one small corpus per profile.

The corpora are generated from `binary_tree(7)` (127 tags): 20k objects,
half of each object's tags from random walks, seed 1. Heymann's synthetic root is stripped before scoring.
Schmitz runs at its 0.8 default and at 0.4 and 0.2: at the default it finds
no links on the linear-depth corpus and 4 on the power-law one.
"""
from __future__ import annotations

import pytest

from hiertag import (
    BenchmarkConfig,
    SchmitzParams,
    binary_tree,
    build_cooccurrence,
    extract_a,
    extract_b,
    extract_heymann,
    extract_schmitz,
    generate,
    link_ratios,
    nmi,
    strip_synthetic_root,
)
from hiertag.benchmark import parse_profile

EXTRACTORS = {
    "a": extract_a,
    "b": extract_b,
    "heymann": lambda n: strip_synthetic_root(extract_heymann(n)),
    **{
        f"schmitz_t{t}": lambda n, t=t: extract_schmitz(n, SchmitzParams(t_subsume=t))
        for t in (0.8, 0.4, 0.2)
    },
}

# extractor -> (edges, r_E, NMI)
SCORECARD = {
    "linear-depth": {
        "a": (126, "0.9285714286", "0.8731656888"),
        "b": (126, "0.9920634921", "0.958799314"),
        "heymann": (123, "0.9603174603", "0.9083184585"),
        "schmitz_t0.8": (0, "0", "0"),
        "schmitz_t0.4": (4, "0.03174603175", "0.03060449204"),
        "schmitz_t0.2": (90, "0.7142857143", "0.6178580884"),
    },
    "power-law:1.2": {
        "a": (126, "0.2857142857", "0.2370677853"),
        "b": (120, "0.8412698413", "0.6052488976"),
        "heymann": (114, "0.6825396825", "0.5011951537"),
        "schmitz_t0.8": (4, "0.007936507937", "0.005639478843"),
        "schmitz_t0.4": (48, "0.1825396825", "0.1618157392"),
        "schmitz_t0.2": (125, "0.4761904762", "0.3892751839"),
    },
}


@pytest.mark.parametrize("profile", sorted(SCORECARD))
def test_scorecard(profile):
    exact = binary_tree(7)
    config = BenchmarkConfig(
        object_count=20_000,
        p_random_walk=0.5,
        frequency_profile=parse_profile(profile),
        seed=1,
    )
    network = build_cooccurrence(generate(exact, config))
    scores = {}
    for name, extract in EXTRACTORS.items():
        h = extract(network)
        scores[name] = (h.n_edges, f"{link_ratios(exact, h).exact:.10g}", f"{nmi(exact, h):.10g}")
    assert scores == SCORECARD[profile]
