"""Byte-level regression pins for every extractor.

The digests are sha256 of `hierarchy_to_text` of each extractor's output on
two fixed-seed benchmark corpora, recorded before the co-occurrence network
moved to a CSR matrix with vectorized kernels. Tie-breaks in the extractors
depend on exact z-score and similarity values, so any change in rounding or
ordering shows up here.
"""
from __future__ import annotations

import hashlib

import pytest

from hiertag import (
    BenchmarkConfig,
    HeymannParams,
    binary_tree,
    build_cooccurrence,
    extract_a,
    extract_b,
    extract_heymann,
    extract_schmitz,
    generate,
    hierarchy_to_text,
)

EXTRACTORS = {
    "a": extract_a,
    "b": extract_b,
    "heymann": extract_heymann,
    "heymann_closeness": lambda n: extract_heymann(n, HeymannParams(centrality_kind="closeness")),
    "schmitz": extract_schmitz,
}

CORPORA = {
    "linear-depth": (
        6,
        BenchmarkConfig(object_count=20_000, p_random_walk=0.5, seed=1),
        {
            "a": "f256bb0dae5ffba8d53336181dbca3d1e6edbc81378530ace05df43834ebb9ac",
            "b": "2e3cfd34bf0e9f9f8f5149caf34144b8019bcde6b365550afb0b24518fe89c53",
            "heymann": "a877d3c9d10cd831d5c22dafeeea6cef3e24bdfe0522aaf9e255738f9e9f77d2",
            "heymann_closeness": "9fab68d3a0bafde9e86a311b2007060090698077f84ed5ce274642828613b010",
            "schmitz": "73273be471fdbfdb2e168300ab24365494ba1e971eba4ad296d3d8407237d1df",
        },
    ),
    "power-law": (
        7,
        BenchmarkConfig(
            object_count=20_000,
            p_random_walk=0.5,
            frequency_profile=("power-law", 1.2),
            seed=2,
        ),
        {
            "a": "d1444aaf6356a04e897ee821130aa059cf17150624bf34370a588b782dc06c5b",
            "b": "6941b44beeca8ec06b6aa2f7c04feca1bd06e83fec275822b91080b7833a7a46",
            "heymann": "820f051f8b6870b26805c99673f820730b273946f4ea648cb2af050d0e1633cd",
            "heymann_closeness": "7356921f5d612de30136a49fe8933eb6faedef1f3e6c0762bbfd3ff924cfa2b3",
            "schmitz": "3a9db6d50ecb3eca489d2fa1fc7a04d07713d25a83a9017f5fcf379e68f213b4",
        },
    ),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_extractor_outputs_match_pinned_digests(corpus):
    levels, config, expected = CORPORA[corpus]
    network = build_cooccurrence(generate(binary_tree(levels), config))
    got = {
        name: hashlib.sha256(hierarchy_to_text(fn(network)).encode()).hexdigest()
        for name, fn in EXTRACTORS.items()
    }
    assert got == expected
