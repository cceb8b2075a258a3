from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiertag
from hiertag.baselines import (
    SYNTHETIC_ROOT,
    HeymannParams,
    SchmitzParams,
    cosine_similarities,
    extract_heymann,
    extract_schmitz,
    strip_synthetic_root,
)
from hiertag.corpus import build_cooccurrence, corpus_from_object_lists
from hiertag.hierarchy import Hierarchy, hierarchy_to_text


def _network(objects):
    return build_cooccurrence(corpus_from_object_lists(objects))


def _nested():
    return _network([["a"]] * 100 + [["a", "b"]] * 50 + [["a", "b", "c"]] * 25)


def test_importing_the_package_loads_no_scipy_graph_or_solver_module():
    # a fresh interpreter, since this one may have loaded them for other
    # tests; scipy.sparse.csgraph alone adds about 27 ms and 10 MB of RSS
    src = os.path.dirname(os.path.dirname(hiertag.__file__))
    code = "import sys, hiertag, hiertag.cli; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "hiertag.cli" in loaded
    assert "scipy.sparse.csgraph" not in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_heymann_nested_corpus_gives_rooted_chain():
    h = extract_heymann(_nested())
    assert h.roots == (SYNTHETIC_ROOT,)
    assert set(h.edges) == {(SYNTHETIC_ROOT, "a"), ("a", "b"), ("b", "c")}
    assert h.is_tree()


def test_heymann_rejects_reserved_tag_name():
    network = _network([["a", SYNTHETIC_ROOT]] * 3)
    with pytest.raises(ValueError, match="reserved"):
        extract_heymann(network)


def test_strip_synthetic_root():
    stripped = strip_synthetic_root(extract_heymann(_nested()))
    assert SYNTHETIC_ROOT not in stripped.tags
    assert set(stripped.edges) == {("a", "b"), ("b", "c")}
    assert stripped.roots == ("a",)
    # hierarchies without the synthetic root pass through untouched
    plain = Hierarchy(("x", "y"), (("x", "y"),))
    assert strip_synthetic_root(plain) == plain


def _strip_by_names(h):
    """Reference: drop the synthetic root's name and every name pair it is in."""
    if SYNTHETIC_ROOT not in h.tags:
        return h
    tags = [t for t in h.tags if t != SYNTHETIC_ROOT]
    edges = [(p, c) for p, c in h.edges if p != SYNTHETIC_ROOT and c != SYNTHETIC_ROOT]
    return Hierarchy(tags, edges)


@st.composite
def hierarchies_around_a_synthetic_root(draw):
    """A random forest or DAG, mostly with the synthetic root among its tags.
    Other names sort before and after it, and links run forward in a random
    order of the tags, so the root can be a parent, a child, both or isolated."""
    names = draw(st.lists(st.text("!+a", min_size=1, max_size=3), max_size=12, unique=True))
    root = [SYNTHETIC_ROOT] if draw(st.integers(0, 3)) else []
    order = draw(st.permutations(names + root))
    most = draw(st.sampled_from([1, 3]))
    edges = [
        (order[p], order[j])
        for j in range(1, len(order))
        for p in draw(st.lists(st.integers(0, j - 1), max_size=most, unique=True))
    ]
    return Hierarchy(order, edges)


@settings(deadline=None)
@given(hierarchies_around_a_synthetic_root())
def test_strip_synthetic_root_matches_the_name_based_reference(h):
    got, want = strip_synthetic_root(h), _strip_by_names(h)
    assert got == want
    assert (got.tags, got.edges, got.roots, got.n_edges) == (
        want.tags, want.edges, want.roots, want.n_edges
    )
    assert hierarchy_to_text(got) == hierarchy_to_text(want)


def test_heymann_closeness_variant_agrees_on_nested_corpus():
    h = extract_heymann(_nested(), HeymannParams(centrality_kind="closeness"))
    assert set(h.edges) == {(SYNTHETIC_ROOT, "a"), ("a", "b"), ("b", "c")}


def test_heymann_unknown_centrality_is_rejected():
    with pytest.raises(ValueError, match="centrality"):
        HeymannParams(centrality_kind="pagerank")


@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_heymann_similarity_threshold_outside_unit_interval_is_rejected(threshold):
    with pytest.raises(ValueError, match="similarity_threshold must be in"):
        HeymannParams(similarity_threshold=threshold)


def test_heymann_similarity_threshold_bounds_are_accepted():
    assert HeymannParams(similarity_threshold=0.0).similarity_threshold == 0.0
    assert HeymannParams(similarity_threshold=1.0).similarity_threshold == 1.0


def test_heymann_dissimilar_tags_fall_back_to_synthetic_root():
    network = _network([["a", "b"]] * 20 + [["c", "d"]] * 20)
    h = extract_heymann(network)
    assert set(h.edges) == {
        (SYNTHETIC_ROOT, "a"),
        ("a", "b"),
        (SYNTHETIC_ROOT, "c"),
        ("c", "d"),
    }


def test_heymann_high_threshold_flattens_the_tree():
    # no pair reaches similarity 0.7 in the nested corpus
    h = extract_heymann(_nested(), HeymannParams(similarity_threshold=0.7))
    assert all(parent == SYNTHETIC_ROOT for parent, _ in h.edges)


def test_cosine_similarity_values():
    network = _nested()
    a = network.names.index("a")
    b = network.names.index("b")
    # one similarity per stored count, in the same CSR positions
    sims = cosine_similarities(network)
    lo, hi = network.indptr[a], network.indptr[a + 1]
    row = dict(zip(network.indices[lo:hi].tolist(), sims[lo:hi].tolist()))
    # Q_ab / sqrt(Q_a * Q_b) = 75 / sqrt(175 * 75)
    assert row[b] == pytest.approx(75 / (175 * 75) ** 0.5)
    assert network.adj[a][b] == 75


def test_schmitz_nested_corpus_prunes_transitive_link():
    # a subsumes both b and c, but a -> c is implied by a -> b -> c
    h = extract_schmitz(_nested())
    assert set(h.edges) == {("a", "b"), ("b", "c")}
    assert h.roots == ("a",)


def test_schmitz_min_cooccurrence_boundary():
    network = _network([["x", "y"]] * 10 + [["y"]] * 3)
    assert set(extract_schmitz(network).edges) == {("y", "x")}
    weak = _network([["x", "y"]] * 9 + [["y"]] * 3 + [["x"]] * 1)
    assert extract_schmitz(weak).edges == frozenset()


def test_schmitz_subsumption_boundary_is_inclusive():
    # P(x|y) = 16/20 = 0.8 exactly, P(y|x) = 0.4
    network = _network([["x", "y"]] * 16 + [["y"]] * 4 + [["x"]] * 24)
    assert set(extract_schmitz(network).edges) == {("x", "y")}


def test_schmitz_mutual_subsumption_gives_no_link():
    # both conditionals sit at 0.8, so neither direction qualifies
    network = _network([["x", "y"]] * 16 + [["x"]] * 4 + [["y"]] * 4)
    assert extract_schmitz(network).edges == frozenset()


def test_schmitz_multi_parent_keeps_heavier_parent():
    objects = (
        [["p1", "p2", "c"]] * 24
        + [["p1", "c"]] * 6
        + [["p1"]] * 40
        + [["p2"]] * 40
    )
    h = extract_schmitz(_network(objects))
    assert set(h.edges) == {("p1", "c")}


def test_schmitz_multi_parent_tie_takes_first_seen_tag():
    objects = [["p1", "p2", "c"]] * 30 + [["p1"]] * 40 + [["p2"]] * 40
    h = extract_schmitz(_network(objects))
    assert set(h.edges) == {("p1", "c")}


def _random_objects(rng, n_tags, n_objects):
    names = [f"t{k:02d}" for k in range(n_tags)]
    return [rng.sample(names, rng.randint(1, min(4, n_tags))) for _ in range(n_objects)]


def test_schmitz_output_is_forest_with_heavier_parents():
    rng = random.Random(14)
    for _ in range(30):
        network = _network(_random_objects(rng, rng.randint(2, 25), rng.randint(10, 200)))
        h = extract_schmitz(network)
        assert h.is_forest()
        for parent, child in h.edges:
            assert network.freq[network.names.index(parent)] > network.freq[
                network.names.index(child)
            ]


def test_heymann_output_is_always_a_tree():
    rng = random.Random(25)
    for _ in range(30):
        network = _network(_random_objects(rng, rng.randint(1, 25), rng.randint(5, 150)))
        h = extract_heymann(network)
        assert h.is_tree()
        assert h.n_tags == network.n_tags + 1


def test_schmitz_default_params():
    params = SchmitzParams()
    assert params.t_subsume == 0.8
    assert params.min_cooccurrence == 10


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"t_subsume": -0.5}, "t_subsume must be in"),
        ({"t_subsume": 7.0}, "t_subsume must be in"),
        ({"t_subsume": float("nan")}, "t_subsume must be in"),
        ({"min_cooccurrence": -1}, "min_cooccurrence must be >= 0"),
    ],
)
def test_schmitz_out_of_range_params_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SchmitzParams(**kwargs)


def test_schmitz_param_bounds_are_accepted():
    assert SchmitzParams(t_subsume=0.0, min_cooccurrence=0).t_subsume == 0.0
    assert SchmitzParams(t_subsume=1.0).t_subsume == 1.0


def test_heymann_similarity_ties_go_to_the_earliest_inserted():
    # c is equally similar to a and b; a and b tie on degree and frequency,
    # so a (the smaller id) is inserted first and wins the tie
    objects = [["a", "c"]] * 10 + [["b", "c"]] * 10 + [["a", "d"]] * 20
    objects += [["b", "d"]] * 20 + [["d"]] * 20
    h = extract_heymann(_network(objects))
    assert set(h.edges) == {(SYNTHETIC_ROOT, "d"), ("d", "a"), ("d", "b"), ("a", "c")}
