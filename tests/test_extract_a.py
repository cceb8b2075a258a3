from __future__ import annotations

import random

import numpy as np
import pytest

from hiertag.corpus import CooccurrenceNetwork, build_cooccurrence, corpus_from_object_lists
from hiertag.extract_a import AlgoAParams, extract_a, select_parents, surviving_in_links


def _network(objects):
    return build_cooccurrence(corpus_from_object_lists(objects))


def test_dominant_tag_adopts_both_partners():
    # a appears alone often enough that neither in-link survives its cut,
    # while b and c each keep their link from a
    objects = [["a"]] * 100 + [["a", "b"]] * 30 + [["a", "c"]] * 30
    h = extract_a(_network(objects))
    assert set(h.edges) == {("a", "b"), ("a", "c")}
    assert h.roots == ("a",)
    assert h.is_tree()


def test_two_tag_corpus_yields_single_edge():
    objects = [["a"]] * 10 + [["a", "b"]] * 20
    h = extract_a(_network(objects))
    assert set(h.edges) == {("a", "b")}


def test_single_tag_corpus_has_no_edges():
    h = extract_a(_network([["a"]] * 5))
    assert h.tags == ("a",)
    assert h.edges == frozenset()


def _kept_in_links(strong_in, x):
    run = slice(strong_in.indptr[x], strong_in.indptr[x + 1])
    return dict(zip(strong_in.indices[run].tolist(), strong_in.weights[run].tolist()))


def test_survivor_cut_keeps_equality_and_drops_below():
    # Q_x = 5, Q_xy = 2: cut 0.4 * 5 = 2.0, equality survives with Q_xy
    network = _network([["x", "y"]] * 2 + [["x"]] * 3)
    x = network.names.index("x")
    y = network.names.index("y")
    assert _kept_in_links(surviving_in_links(network, 0.4), x) == {y: 2}
    # Q_x = 6 pushes the cut to 2.4 and the same link is dropped
    network = _network([["x", "y"]] * 2 + [["x"]] * 4)
    x = network.names.index("x")
    y = network.names.index("y")
    assert y not in _kept_in_links(surviving_in_links(network, 0.4), x)


def test_reciprocal_survivors_block_each_other():
    # both tags keep each other, so the sibling rule leaves both parentless
    network = _network([["a", "b"]] * 20)
    strong_in = surviving_in_links(network, 0.4)
    assert select_parents(strong_in) == [None, None]
    # assembly still joins them into one tree
    assert extract_a(network).is_tree()


def _random_objects(rng, n_tags, n_objects):
    names = [f"t{k:02d}" for k in range(n_tags)]
    return [rng.sample(names, rng.randint(1, min(4, n_tags))) for _ in range(n_objects)]


def test_random_corpora_yield_spanning_trees():
    rng = random.Random(501)
    for _ in range(50):
        n_tags = rng.randint(1, 40)
        network = _network(_random_objects(rng, n_tags, rng.randint(1, 120)))
        h = extract_a(network)
        assert h.is_tree() or h.n_tags == 1
        assert h.n_edges == h.n_tags - 1
        assert h.tags == tuple(sorted(network.names))


def test_duplicating_every_object_leaves_tree_unchanged():
    rng = random.Random(77)
    objects = _random_objects(rng, 15, 80)
    base = extract_a(_network(objects))
    for k in (2, 5):
        assert extract_a(_network(objects * k)) == base


def test_extraction_is_deterministic():
    rng = random.Random(31)
    objects = _random_objects(rng, 20, 150)
    assert extract_a(_network(objects)) == extract_a(_network(objects))


def test_omega_must_be_a_positive_fraction():
    with pytest.raises(ValueError, match="omega"):
        AlgoAParams(omega=0.0)
    with pytest.raises(ValueError, match="omega"):
        AlgoAParams(omega=1.5)


def test_empty_network_is_rejected():
    no_counts = np.zeros(0, dtype=np.int64)
    empty = CooccurrenceNetwork(
        names=(), q_total=0, freq=(), indptr=np.zeros(1, dtype=np.int64),
        indices=no_counts, weights=no_counts,
    )
    with pytest.raises(ValueError, match="empty network"):
        extract_a(empty)
