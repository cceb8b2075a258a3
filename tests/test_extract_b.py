from __future__ import annotations

import math
import random

import numpy as np
import pytest

from hiertag.corpus import CooccurrenceNetwork, build_cooccurrence, corpus_from_object_lists
from hiertag.extract_b import AlgoBParams, centrality_rank, extract_b, prune_network
from hiertag.stats import z_from_counts


def _network(objects):
    return build_cooccurrence(corpus_from_object_lists(objects))


def test_nested_corpus_recovers_chain():
    # c only ever appears inside b, b only inside a
    objects = [["a"]] * 100 + [["a", "b"]] * 50 + [["a", "b", "c"]] * 25
    h = extract_b(_network(objects))
    assert set(h.edges) == {("a", "b"), ("b", "c")}
    assert h.roots == ("a",)


def test_prune_keeps_majority_links_inclusively():
    # Q_xy = 5 is exactly half of Q_x = 10; the boundary counts as majority
    network = _network([["x", "y"]] * 5 + [["x"]] * 5 + [["y"]] * 20)
    x = network.names.index("x")
    y = network.names.index("y")
    pruned = prune_network(network, 10.0)
    assert y in pruned.adj[x] and x in pruned.adj[y]


def test_prune_drops_weak_links():
    network = _network([["x", "y"]] * 1 + [["x"]] * 9 + [["y"]] * 9)
    x = network.names.index("x")
    pruned = prune_network(network, 10.0)
    assert not pruned.adj[x]


def test_prune_z_threshold_is_strict():
    # a significant pair far below the majority cut, plus isolated filler
    # tags that dilute the expectation
    objects = [["x", "y"]] * 30 + [["x"]] * 70 + [["y"]] * 70
    objects += [[f"f{k}"] for k in range(830)]
    network = _network(objects)
    x = network.names.index("x")
    y = network.names.index("y")
    z = z_from_counts(network.q_total, network.freq[x], network.freq[y], 30)
    assert 0 < z < 10
    assert y not in prune_network(network, z).adj[x]
    assert y in prune_network(network, z - 1e-9).adj[x]


def _random_objects(rng, n_tags, n_objects):
    names = [f"t{k:02d}" for k in range(n_tags)]
    return [rng.sample(names, rng.randint(1, min(4, n_tags))) for _ in range(n_objects)]


def test_every_parent_outranks_its_child():
    rng = random.Random(42)
    for _ in range(30):
        network = _network(_random_objects(rng, rng.randint(2, 30), rng.randint(5, 150)))
        pruned = prune_network(network, 10.0)
        order = centrality_rank(pruned)
        rank = {network.names[i]: pos for pos, i in enumerate(order)}
        h = extract_b(network)
        assert h.is_forest()
        for parent, child in h.edges:
            assert rank[parent] > rank[child]


def test_forest_covers_every_tag():
    rng = random.Random(7)
    network = _network(_random_objects(rng, 25, 200))
    h = extract_b(network)
    assert h.tags == tuple(sorted(network.names))


def test_force_single_root_joins_components():
    # two disconnected tag pairs
    objects = [["a", "b"]] * 20 + [["c", "d"]] * 20
    network = _network(objects)
    forest = extract_b(network)
    assert forest.roots == ("a", "c")
    tree = extract_b(network, AlgoBParams(force_single_root=True))
    assert tree.roots == ("a",)
    assert ("a", "c") in tree.edges
    assert tree.is_tree()


def test_extraction_is_deterministic():
    rng = random.Random(9)
    objects = _random_objects(rng, 20, 150)
    assert extract_b(_network(objects)) == extract_b(_network(objects))


def test_default_params():
    params = AlgoBParams()
    assert params.z_threshold == 10.0
    assert params.force_single_root is False


def test_nan_z_threshold_is_rejected_and_infinities_are_kept():
    with pytest.raises(ValueError, match="z_threshold must be a number, got nan"):
        AlgoBParams(z_threshold=float("nan"))
    network = _network(_random_objects(random.Random(3), 12, 80))
    for z in (-math.inf, math.inf):
        assert extract_b(network, AlgoBParams(z_threshold=z)).is_forest()
    # -inf keeps every pair; +inf keeps only links that cover half a tag's objects
    assert prune_network(network, -math.inf).n_pairs == network.n_pairs
    freq = np.asarray(network.freq)
    rows, cols, w = network.rows, network.indices, network.weights
    covering = (w >= 0.5 * freq[rows]) | (w >= 0.5 * freq[cols])
    pruned = prune_network(network, math.inf)
    assert pruned.indices.tolist() == cols[covering].tolist()
    assert 0 < pruned.n_pairs < network.n_pairs


def test_empty_network_is_rejected():
    no_counts = np.zeros(0, dtype=np.int64)
    empty = CooccurrenceNetwork(
        names=(), q_total=0, freq=(), indptr=np.zeros(1, dtype=np.int64),
        indices=no_counts, weights=no_counts,
    )
    with pytest.raises(ValueError, match="empty network"):
        extract_b(empty)
