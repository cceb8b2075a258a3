from __future__ import annotations

import math
import random

import numpy as np
import pytest

from hiertag.corpus import CooccurrenceNetwork, build_cooccurrence, corpus_from_object_lists
from hiertag.stats import (
    cooccurrence_variance,
    eigenvector_centrality,
    expected_cooccurrence,
    in_link_entropy,
    z_from_counts,
)


def test_expected_cooccurrence_formula():
    assert expected_cooccurrence(100, 20, 30) == pytest.approx(6.0)
    assert expected_cooccurrence(50, 50, 12) == pytest.approx(12.0)
    assert expected_cooccurrence(10, 0, 5) == 0.0


def test_variance_value():
    # (20*30/100) * (80/100) * (70/99) = 112/33
    assert cooccurrence_variance(100, 20, 30) == pytest.approx(112 / 33, abs=1e-12)


def test_variance_zero_when_tag_on_every_object():
    assert cooccurrence_variance(40, 40, 7) == 0.0
    assert cooccurrence_variance(40, 7, 40) == 0.0


def test_variance_degenerate_population():
    with pytest.raises(ValueError, match="degenerate population"):
        cooccurrence_variance(1, 1, 1)


def test_z_score_zero_at_expectation():
    assert z_from_counts(100, 20, 30, 6) == 0.0


def test_z_score_value():
    assert z_from_counts(100, 20, 30, 10) == pytest.approx(2.1712405933672376, abs=1e-12)


def test_z_score_sigma_zero_convention():
    assert z_from_counts(30, 30, 20, 20) == 0.0
    assert z_from_counts(30, 0, 20, 0) == 0.0


def test_z_score_symmetric_in_marginals():
    a = z_from_counts(200, 31, 77, 22)
    b = z_from_counts(200, 77, 31, 22)
    assert a == pytest.approx(b, abs=1e-14)


def test_z_score_inputs_validated():
    with pytest.raises(ValueError, match="q_total"):
        expected_cooccurrence(0, 0, 0)
    val = z_from_counts(q_total=100, q_i=20, q_j=30, q_ij=10)
    assert val == pytest.approx(2.1712405933672376, abs=1e-12)


def test_entropy_uniform_is_log_count():
    assert in_link_entropy([5, 5, 5, 5]) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_single_link_is_zero():
    assert in_link_entropy([7]) == 0.0
    assert in_link_entropy([]) == 0.0


def test_entropy_value():
    assert in_link_entropy([3, 1]) == pytest.approx(0.5623351446188083, abs=1e-12)


def test_entropy_scale_invariant_and_bounded():
    rng = random.Random(2)
    for _ in range(20):
        weights = [rng.uniform(0.1, 9.0) for _ in range(rng.randint(1, 8))]
        h = in_link_entropy(weights)
        assert h == pytest.approx(in_link_entropy([w * 13.7 for w in weights]), abs=1e-9)
        assert -1e-12 <= h <= math.log(len(weights)) + 1e-12


def test_entropy_sums_left_to_right():
    # a compensated sum (math.fsum, or the builtin sum of floats from Python
    # 3.12 on) rounds the last bit of these terms differently from a loop
    weights = [1, 2, 4, 8]
    terms = [(w / 15.0) * math.log(w / 15.0) for w in weights]
    acc = 0.0
    for t in terms:
        acc += t
    assert math.fsum(terms) != acc
    assert in_link_entropy(weights) == -acc


def test_entropy_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="positive"):
        in_link_entropy([1.0, 0.0])


def _network_from_objects(objects):
    return build_cooccurrence(corpus_from_object_lists(objects))


def test_centrality_rejects_an_empty_network_and_negative_iterations():
    no_counts = np.zeros(0, dtype=np.int64)
    empty = CooccurrenceNetwork(
        names=(), q_total=0, freq=(), indptr=np.zeros(1, dtype=np.int64),
        indices=no_counts, weights=no_counts,
    )
    with pytest.raises(ValueError, match="empty network"):
        eigenvector_centrality(empty)
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        eigenvector_centrality(_network_from_objects([["a", "b"]]), iterations=-1)


def test_centrality_two_tags_symmetric():
    network = _network_from_objects([["a", "b"]] * 5)
    cent = eigenvector_centrality(network)
    assert cent.scores == pytest.approx([0.5, 0.5], abs=1e-12)
    assert cent.iterations == 100


def test_centrality_path_oscillates_between_two_profiles():
    # a-b-c with unit weights is bipartite, so the iteration alternates
    # between (1/3, 1/3, 1/3) and (1/4, 1/2, 1/4); after the fixed even
    # number of rounds the second profile is the result.
    network = _network_from_objects([["a", "b"], ["b", "c"]])
    cent = eigenvector_centrality(network)
    assert cent.scores == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    odd = eigenvector_centrality(network, iterations=99)
    assert odd.scores == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_centrality_star_center_dominates():
    objects = [["hub", leaf] for leaf in ("l1", "l2", "l3", "l4")]
    network = _network_from_objects(objects)
    cent = eigenvector_centrality(network)
    hub = network.names.index("hub")
    for i in range(network.n_tags):
        if i != hub:
            assert cent.scores[hub] > cent.scores[i]


def test_centrality_no_links_uniform():
    network = _network_from_objects([["a"], ["b"], ["c"]])
    cent = eigenvector_centrality(network)
    assert cent.scores == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_centrality_scores_sum_to_one():
    rng = random.Random(4)
    tags = [f"t{k}" for k in range(12)]
    objects = [rng.sample(tags, rng.randint(2, 5)) for _ in range(60)]
    cent = eigenvector_centrality(_network_from_objects(objects))
    assert sum(cent.scores) == pytest.approx(1.0, abs=1e-12)


def test_centrality_invariant_under_weight_scaling():
    rng = random.Random(9)
    tags = [f"t{k}" for k in range(8)]
    objects = [rng.sample(tags, rng.randint(2, 4)) for _ in range(40)]
    base = eigenvector_centrality(_network_from_objects(objects))
    scaled = eigenvector_centrality(_network_from_objects(objects * 3))
    assert base.scores == pytest.approx(scaled.scores, abs=1e-9)


def _principal_eigenvector(network):
    n = network.n_tags
    mat = np.zeros((n, n))
    mat[network.rows, network.indices] = network.weights
    vals, vecs = np.linalg.eigh(mat)
    lead = np.abs(vecs[:, np.argmax(vals)])
    gap = (vals[-1] - abs(vals[-2])) / vals[-1] if vals[-1] > 0 else 0.0
    return lead / lead.sum(), gap


def test_centrality_matches_eigensolver_on_well_gapped_networks():
    rng = random.Random(21)
    tags = [f"t{k}" for k in range(20)]
    checked = 0
    for _ in range(40):
        objects = [rng.sample(tags, rng.randint(2, 6)) for _ in range(150)]
        network = _network_from_objects(objects)
        expected, gap = _principal_eigenvector(network)
        if gap < 0.05:
            continue
        got = eigenvector_centrality(network).scores
        assert np.max(np.abs(np.asarray(got) - expected)) < 1e-4
        checked += 1
    assert checked >= 10


def test_centrality_permutation_equivariant():
    objects = [["a", "b", "c"], ["b", "c"], ["c", "d"], ["a", "d"], ["b", "d"]]
    base_net = _network_from_objects(objects)
    base = eigenvector_centrality(base_net)
    renamed = _network_from_objects([[f"x_{t}" for t in obj] for obj in objects])
    perm = eigenvector_centrality(renamed)
    for name in base_net.names:
        i = base_net.names.index(name)
        j = renamed.names.index(f"x_{name}")
        assert base.scores[i] == pytest.approx(perm.scores[j], abs=1e-12)
