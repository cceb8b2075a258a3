"""Byte-level regression pins for every extractor and for calibration.

The extractor digests are sha256 of `hierarchy_to_text` of each extractor's
output on two fixed-seed benchmark corpora, recorded before the
co-occurrence network moved to a CSR matrix with vectorized kernels.
Tie-breaks in the extractors depend on exact z-score and similarity values,
so any change in rounding or ordering shows up here.

The calibration digests pin `rewire` and `decay_curve` bytes, recorded
before `rewire` moved from a per-link subtree search to a parent array. A
rewired tree depends on every `random.Random` call `rewire` makes, so any
change in the draw sequence shows up here.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from hiertag import (
    BenchmarkConfig,
    HeymannParams,
    Hierarchy,
    binary_tree,
    build_cooccurrence,
    decay_curve,
    extract_a,
    extract_b,
    extract_heymann,
    extract_schmitz,
    generate,
    hierarchy_to_text,
    rewire,
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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _random_tree(n, seed):
    """Tag k hangs under a uniformly drawn earlier tag; tags sort in k order."""
    rng = random.Random(seed)
    tags = [f"r{k:03d}" for k in range(n)]
    return Hierarchy(tags, [(tags[rng.randrange(k)], tags[k]) for k in range(1, n)])


TREES = {"binary": lambda: binary_tree(10), "random": lambda: _random_tree(300, 300)}

REWIRED = {
    ("binary", "leaf-first", 0.2): "b79f66aa1fede31373030dc505debcdac7e6a3c438d870b1fb4264f0ed4a7f93",
    ("binary", "leaf-first", 1.0): "982997a137706962781927e8649b43c60cc4976fe00405b57fc4c4af07e79e61",
    ("binary", "random", 0.2): "f81624f49c43e8c3ece3b98e628cef1b66ae2bb736205d681740b1a35c48934e",
    ("binary", "random", 1.0): "3236dc672b0b71af176d2383d24141842e82feef6d129ebc575b49b030db1fac",
    ("binary", "top-first", 0.2): "e8fbd78c0e6a2cda11d0ce683dec628a4439490e00b55a942be21f0de6abee80",
    ("binary", "top-first", 1.0): "7b202363c9a57738e7b55b7be4ced45983b1fd9e0c0a38abb2d99b80f229017c",
    ("random", "leaf-first", 0.2): "3eb571847656c3329b4d63053ab99d30900201b77b46cd070d2fe45ae804f061",
    ("random", "leaf-first", 1.0): "7a2ed7539c841e5a4cb6e9b6ea2a478be9f68a8c0aed8387714a9877c633df2a",
    ("random", "random", 0.2): "018b01a1d89dc464617bed80156cc9053d8311baa2ecfdfe7c1cd526fa13f418",
    ("random", "random", 1.0): "68b9565370a53f30fbd61b0c3063160758833fdab65512cc02b4f583cd68a65f",
    ("random", "top-first", 0.2): "c4a074fb522123e20ff39d58534f1f652181509ff1fdf3de3cac12425a64c32b",
    ("random", "top-first", 1.0): "81f79258771557279d510e9ab85d0fdcd9794c230928fe3bde93744bb2825167",
}

CURVES = {
    "leaf-first": "dfed416f7061a98fb3af504e26c14ccb6fc8d0d5bac470f21bcc623cc15bfbb2",
    "random": "7a5d16ac41cd4183c2aecfe933e317f1905a4c842e2df5bc0384efde155e09c0",
    "top-first": "11e16b55dc627bbf7ffc6590af59ac8458bf8f2a2f960145e3062d297e5d73fb",
}


@pytest.mark.parametrize("tree", sorted(TREES))
def test_rewired_trees_match_pinned_digests(tree):
    h = TREES[tree]()
    got = {
        (tree, order, f): _sha256(hierarchy_to_text(rewire(h, f, order, random.Random(11))))
        for (name, order, f) in REWIRED
        if name == tree
    }
    assert got == {key: digest for key, digest in REWIRED.items() if key[0] == tree}


@pytest.mark.parametrize("order", sorted(CURVES))
def test_decay_curves_match_pinned_digests(order):
    curve = decay_curve(binary_tree(8), order, runs=2, seed=5)
    assert _sha256(curve.to_text()) == CURVES[order]
