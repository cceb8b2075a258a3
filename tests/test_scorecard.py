"""Baseline scorecard: r_E and NMI of every extractor on one small corpus per profile.

The corpora are generated from `binary_tree(7)` (127 tags): 20k objects,
half of each object's tags from random walks, seed 1. Heymann's synthetic root is stripped before scoring.
Schmitz runs at its 0.8 default and at 0.4 and 0.2: at the default it finds
no links on the linear-depth corpus and 4 on the power-law one.

The DAG scorecard does the same against a DAG: `binary_tree(10)` (1023
tags) with 200 extra links, 100k objects. Every extractor outputs a forest,
and no forest can hold both parents of a tag, so even the DAG's own spanning
tree, every one of whose links is exact, scores an NMI well below 1.
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
from test_cli import _tree_dag

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


# extractor -> (edges, r_E, r_A, NMI) against `_tree_dag(10, 200, seed=5)`;
# "spanning_tree" is `binary_tree(10)` itself, the NMI ceiling of a forest
# that gets every tree link right
DAG_SCORECARD = {
    "a": (1022, "0.7837573386", "0.8395303327", "0.3842954429"),
    "b": (1022, "0.9706457926", "0.9735812133", "0.62873713"),
    "heymann": (807, "0.6741682975", "0.6741682975", "0.3491371709"),
    "schmitz_t0.8": (0, "0", "0", "0"),
    "schmitz_t0.4": (14, "0.01369863014", "0.01369863014", "0.006761297877"),
    "schmitz_t0.2": (571, "0.5587084149", "0.5587084149", "0.2753988478"),
    "spanning_tree": (1022, "1", "1", "0.6612152802"),
}


def test_dag_scorecard():
    dag = _tree_dag(10, 200, seed=5)
    assert (dag.n_tags, dag.n_edges) == (1023, 1222)
    config = BenchmarkConfig(object_count=100_000, p_random_walk=0.5, seed=1)
    network = build_cooccurrence(generate(dag, config))
    scores = {}
    for name, extract in {**EXTRACTORS, "spanning_tree": lambda n: binary_tree(10)}.items():
        h = extract(network)
        r = link_ratios(dag, h)
        scores[name] = (h.n_edges, f"{r.exact:.10g}", f"{r.acceptable:.10g}", f"{nmi(dag, h):.10g}")
    assert scores == DAG_SCORECARD
