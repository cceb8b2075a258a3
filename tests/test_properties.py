"""Property tests of the CSR co-occurrence network, its vectorized kernels,
the extractors, Heymann's closeness, rewiring and the quality metrics.

Each kernel property compares an array kernel with the plain per-pair
definition on random small corpora, where ties and degenerate marginals are
common. The metric properties check identities that hold for any pair of
forests over one tag set, that the descendant bitsets behind the NMI equal
`descendant_table` and the NMI equals the formula over its counts bit for
bit, for forests and DAGs alike, and that DAG link ratios equal a
brute-force path search. Rewiring is compared with a subtree-search
reference that must make the same random draws, and a decay curve with one
built cell by cell from `rewire` and the descendant-set NMI. Hierarchy files
round-trip, every traversal of a random DAG equals a brute-force reference
built from its edges, a forest built from its parent array equals the same
forest built from its edges, Schmitz's extractor equals a per-pair
reference with its transitive filter on dicts of sets, algorithms a and b
and Heymann's extractor equal references written from their docstrings on
dicts keyed by tag name, and every extractor commutes with renaming the tags.
"""
from __future__ import annotations

import math
import os
import random
import tempfile
from collections import Counter, deque
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hiertag import baselines
from hiertag.baselines import (
    CENTRALITY_KINDS,
    SYNTHETIC_ROOT,
    HeymannParams,
    SchmitzParams,
    extract_heymann,
    extract_schmitz,
)
from hiertag.corpus import build_cooccurrence, corpus_from_object_lists
from hiertag.extract_a import AlgoAParams, extract_a, select_parents, surviving_in_links
from hiertag.extract_b import (
    CENTRALITY_ITERATIONS,
    AlgoBParams,
    centrality_rank,
    extract_b,
    prune_network,
)
from hiertag.hierarchy import (
    REWIRING_ORDERS,
    CycleError,
    Hierarchy,
    binary_tree,
    descendant_table,
    hierarchy_to_text,
    load_hierarchy,
    rewire,
)
from hiertag.metrics import (
    DecayCurve,
    LinkRatios,
    _below,
    _isotonic_non_increasing,
    _nmi_from_counts,
    _parent_list_below,
    decay_curve,
    link_ratios,
    nmi,
    partition_nmi,
)
from hiertag.seeds import derive_seed
from hiertag.stats import in_link_entropy, z_from_counts, z_scores

TAGS = [f"t{k}" for k in range(12)]

corpora = st.lists(
    st.lists(st.sampled_from(TAGS), min_size=1, max_size=5), min_size=1, max_size=80
)

# timing varies too much across hosts for hypothesis' per-example deadline
relaxed = settings(deadline=None)


def _network(objects):
    return build_cooccurrence(corpus_from_object_lists(objects))


@relaxed
@given(corpora)
def test_csr_counts_equal_brute_force_pair_counts(objects):
    corpus = corpus_from_object_lists(objects)
    network = build_cooccurrence(corpus)
    expected = Counter()
    ptr, ids = corpus.indptr.tolist(), corpus.tags.tolist()
    for o in range(corpus.n_objects):
        expected.update(combinations(ids[ptr[o] : ptr[o + 1]], 2))
    rows, cols, ws = network.rows.tolist(), network.indices.tolist(), network.weights.tolist()
    assert {(i, j): w for i, j, w in zip(rows, cols, ws) if i < j} == dict(expected)
    assert network.n_pairs == len(expected)
    # layout: ascending partners per row, no diagonal, every pair stored both ways
    for i in range(network.n_tags):
        row = network.indices[network.indptr[i] : network.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)
        assert i not in row
    assert {(i, j) for i, nbrs in enumerate(network.adj) for j in nbrs} == {
        (j, i) for i, nbrs in enumerate(network.adj) for j in nbrs
    }


@st.composite
def count_arrays(draw):
    q_total = draw(st.integers(1, 10**6))
    size = draw(st.integers(0, 30))
    q_i, q_j, q_ij = [], [], []
    for _ in range(size):
        a = draw(st.integers(0, q_total))
        b = draw(st.integers(0, q_total))
        q_i.append(a)
        q_j.append(b)
        q_ij.append(draw(st.integers(0, min(a, b))))
    return q_total, q_i, q_j, q_ij


@relaxed
@given(count_arrays())
def test_vectorized_z_is_bit_identical_to_scalar_z(counts):
    q_total, q_i, q_j, q_ij = counts
    got = z_scores(q_total, *(np.array(a, dtype=np.int64) for a in (q_i, q_j, q_ij)))
    expected = np.array([z_from_counts(q_total, a, b, c) for a, b, c in zip(q_i, q_j, q_ij)])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@relaxed
@given(corpora)
def test_vectorized_z_over_network_is_bit_identical(objects):
    network = _network(objects)
    freq = np.asarray(network.freq)
    rows, cols, w = network.rows, network.indices, network.weights
    got = z_scores(network.q_total, freq[rows], freq[cols], w)
    expected = np.array(
        [
            z_from_counts(network.q_total, network.freq[i], network.freq[j], q)
            for i, j, q in zip(rows.tolist(), cols.tolist(), w.tolist())
        ]
    )
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@relaxed
@given(corpora, st.floats(-5.0, 15.0))
def test_prune_mask_equals_scalar_predicate(objects, z_threshold):
    network = _network(objects)
    q, freq = network.q_total, network.freq
    rows, cols, ws = network.rows.tolist(), network.indices.tolist(), network.weights.tolist()
    expected = {
        (i, j): w
        for i, j, w in zip(rows, cols, ws)
        if i < j
        and (
            w >= 0.5 * freq[i]
            or w >= 0.5 * freq[j]
            or z_from_counts(q, freq[i], freq[j], w) > z_threshold
        )
    }
    pruned = prune_network(network, z_threshold)
    rows, cols, ws = pruned.rows.tolist(), pruned.indices.tolist(), pruned.weights.tolist()
    assert {(i, j): w for i, j, w in zip(rows, cols, ws) if i < j} == expected
    assert pruned.n_pairs == len(expected)
    assert pruned.adj == tuple(
        {j: w for j, w in nbrs.items() if (min(i, j), max(i, j)) in expected}
        for i, nbrs in enumerate(network.adj)
    )


@relaxed
@given(corpora)
def test_extract_b_forest_parents_outrank_children(objects):
    network = _network(objects)
    forest = extract_b(network)
    assert forest.is_forest()
    assert forest.tags == tuple(sorted(network.names))
    order = centrality_rank(prune_network(network, 10.0))
    rank = {network.names[i]: pos for pos, i in enumerate(order)}
    assert all(rank[parent] > rank[child] for parent, child in forest.edges)


@relaxed
@given(corpora)
def test_extract_a_returns_a_single_rooted_tree_over_every_tag(objects):
    network = _network(objects)
    tree = extract_a(network)
    assert tree.is_tree()
    assert tree.tags == tuple(sorted(network.names))


def _bfs_closeness(adj):
    """Reference closeness: a breadth-first search from every tag."""
    scores = []
    for s in range(len(adj)):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total = sum(dist.values())
        scores.append((len(dist) - 1) / total if total else 0.0)
    return scores


graphs = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    )
)


CHAIN_30 = (30, {(i, i + 1) for i in range(29)})


@relaxed
@given(graphs, st.integers(1, 8))
# a path 29 hops long, in many blocks and in one block as wide as the graph
@example(CHAIN_30, 1)
@example(CHAIN_30, 30)
# no edges: every tag reaches none and scores 0
@example((7, set()), 3)
# two components and two isolated tags; the block wider than the graph
@example((9, {(0, 1), (1, 2), (2, 0), (3, 4), (5, 4), (6, 5), (4, 6)}), 12)
# components whose tag ids interleave: 0, 2 and 1, 3, in blocks of 1 and 3
@example((4, {(0, 2), (1, 3)}), 1)
@example((4, {(0, 2), (3, 1)}), 3)
# a block boundary inside a component: the triangle 3, 4, 5 runs as 3, 4 | 5
@example((6, {(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)}), 2)
# a component whose first source lies in an earlier block: an isolated tag,
# then the path 1-7 in blocks 1, 2, 3 | 4, 5, 6 | 7
@example((8, {(i, i + 1) for i in range(1, 7)}), 3)
def test_blocked_closeness_equals_bfs_from_every_tag(graph, block):
    n, pairs = graph
    adj = [set() for _ in range(n)]
    for i, j in pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    indptr = np.cumsum([0] + [len(a) for a in adj])
    indices = np.array([j for a in adj for j in sorted(a)], dtype=np.int64)
    # a few sources per block, so most graphs span several blocks
    with patch.object(baselines, "CLOSENESS_BLOCK_ENTRIES", block * n):
        got = baselines._closeness(indptr, indices)
    assert got.tolist() == _bfs_closeness(adj)


# any text a hierarchy line can carry as a tag: no line breaks or TABs, not
# blank, and not read as a '#' comment
tag_names = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda t: t.strip() and not t.lstrip().startswith("#"))


@st.composite
def dags(draw, max_tags=12, tags=None):
    """A random DAG, over `tags` when given: edges only run forward in a
    random order of the tags."""
    if tags is None:
        tags = draw(st.lists(tag_names, max_size=max_tags, unique=True))
    order = draw(st.permutations(tags))
    forward = [(i, j) for j in range(len(order)) for i in range(j)]
    chosen = draw(st.lists(st.sampled_from(forward), unique=True)) if forward else []
    return Hierarchy(order, [(order[i], order[j]) for i, j in chosen])


# two random DAGs over the same tags, at least 2 of them
dag_pairs = (
    dags()
    .filter(lambda h: h.n_tags >= 2)
    .flatmap(lambda h: st.tuples(st.just(h), dags(tags=h.tags)))
)


@st.composite
def forest_pairs(draw):
    """Two random forests over the same tags. Each is edgeless, one chain
    through some of the tags with the rest isolated, or random: in a random
    order, each tag gets no parent or one from the tags before it."""
    tags = [f"n{k}" for k in range(draw(st.integers(2, 25)))]

    def forest():
        order = draw(st.permutations(tags))
        kind = draw(st.sampled_from(["edgeless", "chain", "random"]))
        if kind == "edgeless":
            return Hierarchy(tags, [])
        if kind == "chain":
            length = draw(st.integers(2, len(order)))
            return Hierarchy(tags, list(zip(order[: length - 1], order[1:length])))
        parents = [draw(st.integers(-1, j - 1)) for j in range(len(order))]
        return Hierarchy(tags, [(order[p], order[j]) for j, p in enumerate(parents) if p >= 0])

    return forest(), forest()


def _descendant_set_nmi(exact, recon):
    """Reference NMI: the formula over `descendant_table` counts, with nmi()'s
    shortcut for identical edge sets."""
    if exact.edges == recon.edges:
        return 1.0
    de, dr = descendant_table(exact), descendant_table(recon)
    tags = exact.tags
    return _nmi_from_counts(
        [len(de[t]) for t in tags], [len(dr[t]) for t in tags], [len(de[t] & dr[t]) for t in tags]
    )


@relaxed
@given(forest_pairs() | dag_pairs)
def test_forest_nmi_equals_descendant_set_nmi_exactly(pair):
    exact, recon = pair
    assume(exact.edges or recon.edges)
    assert nmi(exact, recon) == _descendant_set_nmi(exact, recon)
    tags = exact.tags
    bits = [1 << i for i in range(len(tags))]
    below_e, below_r = (_below(h._children, h._order, bits) for h in pair)
    de, dr = descendant_table(exact), descendant_table(recon)
    assert [{tags[j] for j in range(len(tags)) if b >> j & 1} for b in below_e] == [
        de[t] for t in tags
    ]
    assert [[e.bit_count() for e in below_e], [r.bit_count() for r in below_r]] == [
        [len(de[t]) for t in tags],
        [len(dr[t]) for t in tags],
    ]
    assert [(e & r).bit_count() for e, r in zip(below_e, below_r)] == [
        len(de[t] & dr[t]) for t in tags
    ]
    # a forest's parent list gives the same bitsets as its Hierarchy
    for h, below in zip(pair, (below_e, below_r)):
        if h.is_forest():
            parent = [-1] * len(tags)
            for p, c in h.edges:
                parent[tags.index(c)] = tags.index(p)
            assert _parent_list_below(parent, bits) == below


@relaxed
@given(forest_pairs())
def test_nmi_equals_partition_nmi(pair):
    exact, recon = pair
    assume(exact.edges or recon.edges)
    assert nmi(exact, recon) == pytest.approx(partition_nmi(exact, recon))


@relaxed
@given(forest_pairs())
def test_link_ratios_of_a_forest_sum_to_one(pair):
    r = link_ratios(*pair)
    assert r.acceptable + r.inverted + r.unrelated + r.missing == pytest.approx(1)


def _has_path(edges, u, v):
    """Depth-first search for a directed path u ~> v along `edges`."""
    seen, stack = {u}, [u]
    while stack:
        w = stack.pop()
        for p, c in edges:
            if p == w and c not in seen:
                if c == v:
                    return True
                seen.add(c)
                stack.append(c)
    return False


@relaxed
@given(dag_pairs)
def test_dag_link_ratios_equal_brute_force_path_search(pair):
    exact, recon = pair
    kinds = Counter()
    for u, v in recon.edges:
        if _has_path(exact.edges, u, v):
            kinds["acceptable"] += 1
            kinds["exact"] += (u, v) in exact.edges
        elif _has_path(exact.edges, v, u):
            kinds["inverted"] += 1
        else:
            kinds["unrelated"] += 1
    n, m_r = exact.n_tags, recon.n_edges
    norm = max(n - 1, m_r)
    kinds["missing"] = max(n - 1 - m_r, 0)
    assert link_ratios(exact, recon) == LinkRatios(
        *(kinds[k] / norm for k in ("exact", "acceptable", "inverted", "unrelated", "missing"))
    )


def _rewire_by_subtree_search(h, fraction, order, rng):
    """Reference rewiring: collect the child's current subtree by DFS over
    per-tag children sets, then redraw until the candidate lies outside it."""
    parent = {c: p for p, c in h.edges}
    depth = h.depths()
    non_roots = [t for t in h.tags if t in parent]
    if order == "random":
        seq = list(non_roots)
        rng.shuffle(seq)
    else:
        sign = -1 if order == "leaf-first" else 1
        seq = sorted(non_roots, key=lambda t: (sign * depth[t], t))
    children = {t: set() for t in h.tags}
    for p, c in h.edges:
        children[p].add(c)
    for child in seq[: int(fraction * len(parent) + 0.5)]:
        blocked, stack = {child}, [child]
        while stack:
            for v in children[stack.pop()] - blocked:
                blocked.add(v)
                stack.append(v)
        candidate = child
        while candidate in blocked:
            candidate = h.tags[rng.randrange(len(h.tags))]
        children[parent[child]].discard(child)
        children[candidate].add(child)
        parent[child] = candidate
    return Hierarchy(h.tags, [(p, c) for c, p in parent.items()])


@st.composite
def trees(draw):
    """A random tree: in a random order of the tags, each one after the
    first hangs under one drawn from the tags before it."""
    order = draw(st.permutations([f"n{k}" for k in range(draw(st.integers(1, 40)))]))
    edges = [(order[draw(st.integers(0, j - 1))], order[j]) for j in range(1, len(order))]
    return Hierarchy(order, edges)


@relaxed
@given(
    trees(),
    st.sampled_from(REWIRING_ORDERS),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
def test_rewire_equals_subtree_search_reference(tree, order, fraction, seed):
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    got = rewire(tree, fraction, order, got_rng)
    assert got == _rewire_by_subtree_search(tree, fraction, order, ref_rng)
    assert got.is_tree()
    # both made the same draws, so their streams end in the same state
    assert got_rng.getstate() == ref_rng.getstate()


def _curve_cell_by_cell(tree, order, runs, grid, seed):
    """Reference decay curve: one `rewire` Hierarchy and one descendant-set
    NMI per cell, with the curve's cell seeds, summed left to right."""
    means = []
    for fi, f in enumerate(grid):
        total = 0.0
        for run in range(runs):
            rng = random.Random(derive_seed(seed, "rewire", fi, run))
            total += _descendant_set_nmi(tree, rewire(tree, f, order, rng))
        means.append(total / runs)
    return DecayCurve(grid, tuple(_isotonic_non_increasing(means)), runs)


@relaxed
@given(
    trees().filter(lambda t: t.n_tags >= 2),
    st.sampled_from(REWIRING_ORDERS),
    st.integers(1, 3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).map(lambda fs: tuple(sorted(fs))),
    st.integers(0, 2**32),
)
# three cells whose compensated sum (math.fsum, or the builtin sum from
# Python 3.12 on) differs in the last bit from the left-to-right one
@example(binary_tree(3), "random", 3, (0.5,), 0)
def test_decay_curve_equals_cell_by_cell_reference(tree, order, runs, grid, seed):
    got = decay_curve(tree, order, runs=runs, grid=grid, seed=seed)
    assert got == _curve_cell_by_cell(tree, order, runs, grid, seed)


@relaxed
@given(dags())
def test_hierarchy_text_round_trips(h):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(hierarchy_to_text(h))
        loaded = load_hierarchy(path)
    assert loaded == h
    assert hash(loaded) == hash(h)
    assert h.n_edges == len(h.edges)
    assert Hierarchy(h.tags, h.edges) == h


def _reach(tags, edges):
    """Brute-force closure: per tag, the tags it reaches along one or more edges."""
    reach = {t: {c for p, c in edges if p == t} for t in tags}
    grown = True
    while grown:
        grown = False
        for t in tags:
            more = set().union(*(reach[c] for c in reach[t])) - reach[t]
            if more:
                reach[t] |= more
                grown = True
    return reach


@relaxed
@given(dags(max_tags=40))
def test_hierarchy_traversals_equal_brute_force(h):
    tags, edges = h.tags, sorted(h.edges)
    reach = _reach(tags, edges)
    table = descendant_table(h)
    assert table == {t: frozenset(reach[t]) for t in tags}
    # reversed topological order: every child comes before its parents
    rank = {t: k for k, t in enumerate(table)}
    assert all(rank[c] < rank[p] for p, c in edges)
    n_parents = Counter(c for _, c in edges)
    assert h.roots == tuple(t for t in tags if not n_parents[t])
    assert h.is_forest() == all(k <= 1 for k in n_parents.values())
    depth = dict.fromkeys(h.roots, 0)
    for _ in tags:
        for p, c in edges:
            if p in depth:
                depth[c] = min(depth.get(c, len(tags)), depth[p] + 1)
    got = h.depths()
    assert got == depth
    assert list(got.values()) == sorted(got.values())  # breadth-first order
    linked = {t for e in edges for t in e}
    lines = [f"{p}\t{c}" for p, c in edges] + [t for t in tags if t not in linked]
    assert hierarchy_to_text(h) == "".join(line + "\n" for line in lines)
    position = {t: k for k, t in enumerate(tags)}
    assert h.undirected_neighbors() == [
        tuple(sorted(position[u] for e in edges if t in e for u in e if u != t)) for t in tags
    ]


@relaxed
@given(dags().filter(lambda h: h.n_tags >= 2), st.data())
def test_cyclic_edge_sets_raise_cycle_error(h, data):
    # a two-tag cycle added to a DAG, whose other links stay peelable
    a, b = data.draw(st.lists(st.sampled_from(h.tags), min_size=2, max_size=2, unique=True))
    tags, edges = h.tags, sorted(h.edges) + [(a, b), (b, a)]
    reach = _reach(tags, edges)
    on_cycle = {t for t in tags if t in reach[t]}
    # Kahn's peeling stops at the cycles and leaves every tag below them
    stuck = sorted(t for t in tags if t in on_cycle or any(t in reach[u] for u in on_cycle))
    with pytest.raises(CycleError) as err:
        Hierarchy(tags, edges)
    assert str(err.value) == f"hierarchy contains a directed cycle through {stuck[:5]}"


@st.composite
def parent_arrays(draw):
    """Distinct names, *root* among them, in an order that is not sorted, and
    a random forest over them as a parent array: in a random order, each tag
    gets no parent (-1) or one from the tags before it."""
    names = draw(st.lists(tag_names, min_size=1, max_size=12, unique=True))
    names = draw(st.permutations([*{*names, SYNTHETIC_ROOT}]))
    if names == sorted(names):
        names.reverse()
    order = draw(st.permutations(range(len(names))))
    parent = [-1] * len(names)
    for j, c in enumerate(order):
        p = draw(st.integers(-1, j - 1))
        if p >= 0:
            parent[c] = order[p]
    return names, parent


@relaxed
@given(parent_arrays())
def test_from_parents_equals_the_name_constructor(forest):
    names, parent = forest
    got = Hierarchy.from_parents(names, parent)
    expected = Hierarchy(names, [(names[p], names[c]) for c, p in enumerate(parent) if p >= 0])
    assert got == expected
    assert hash(got) == hash(expected)
    assert got.n_edges == len(got.edges) == len(expected.edges)
    assert Hierarchy(got.tags, got.edges) == got
    assert hierarchy_to_text(got) == hierarchy_to_text(expected)
    assert got.roots == expected.roots
    assert got._order == expected._order
    assert got._children == expected._children
    assert got._n_parents == expected._n_parents


@relaxed
@given(parent_arrays(), st.data())
def test_from_parents_rejects_a_cyclic_parent_array(forest, data):
    # a tag hung under itself or under one of its own descendants
    names, parent = forest
    c = data.draw(st.integers(0, len(names) - 1))

    def in_subtree(d):
        while d >= 0 and d != c:
            d = parent[d]
        return d == c

    parent = parent.copy()
    parent[c] = data.draw(st.sampled_from([d for d in range(len(names)) if in_subtree(d)]))
    with pytest.raises(CycleError, match="directed cycle"):
        Hierarchy.from_parents(names, parent)


def _schmitz_reference(network, params):
    """Schmitz by its definition: per-pair candidate tests, a dict of
    candidate children and of candidate parents per tag, and a candidate
    x -> y dropped when some candidate child of x is a candidate parent of y."""
    freq = network.freq
    rows, cols, ws = network.rows.tolist(), network.indices.tolist(), network.weights.tolist()
    t = params.t_subsume
    candidates = [
        (x, y, w)
        for x, y, w in zip(rows, cols, ws)
        if w >= params.min_cooccurrence and w / freq[y] >= t and w / freq[x] < t
    ]
    children, parents = {}, {}
    for x, y, _ in candidates:
        children.setdefault(x, set()).add(y)
        parents.setdefault(y, set()).add(x)
    parent, count = [-1] * network.n_tags, [0] * network.n_tags
    for x, y, w in candidates:
        if children[x] & parents[y]:
            continue
        if (w, -x) > (count[y], -parent[y]):
            parent[y], count[y] = x, w
    names = network.names
    return Hierarchy(names, [(names[p], names[c]) for c, p in enumerate(parent) if p >= 0])


@relaxed
@given(corpora, st.sampled_from([0.2, 0.5, 0.8]), st.sampled_from([0, 3]))
# t -> a -> b, and t -> b is a transitive candidate that would win b's tie
@example([["t", "a", "b"], ["t", "a"], ["t", "a"]] + [["t"]] * 5, 0.5, 0)
def test_schmitz_equals_the_per_pair_reference(objects, t_subsume, min_cooccurrence):
    network = _network(objects)
    params = SchmitzParams(t_subsume, min_cooccurrence)
    assert extract_schmitz(network, params) == _schmitz_reference(network, params)


def _name_counts(objects):
    """Q, then Q_i and Q_ij keyed by tag name, and each name's id: its rank
    in order of first appearance, which is how the corpus numbers tags."""
    freq, co = Counter(), {}
    for obj in objects:
        tags = set(obj)
        freq.update(tags)
        for a in tags:
            row = co.setdefault(a, Counter())
            row.update(tags - {a})
    ids = {t: k for k, t in enumerate(dict.fromkeys(t for obj in objects for t in obj))}
    return len(objects), freq, {t: co[t] for t in ids}, ids


def _extract_a_reference(objects, omega):
    """Algorithm a from the `extract_a` module docstring, on dicts keyed by
    tag name: the parent each tag picks before the forest is joined, and the
    joined tree.

    The z-score of the link j -> i is z_from_counts(Q, Q_i, Q_j, Q_ij), the
    receiving tag first. Ties: a tag's parents by descending z then
    ascending id; the global root by in-link entropy, then in-link weight,
    then the smaller id; partners by descending Q_ij then ascending id;
    cleared roots by descending entropy then ascending id."""
    q, freq, co, ids = _name_counts(objects)
    # tag i's surviving in-links j -> i, with their z-scores
    strong = {
        i: {
            j: z_from_counts(q, freq[i], freq[j], w)
            for j, w in co[i].items()
            if w >= omega * freq[i]
        }
        for i in ids
    }
    parent = {}
    for i in ids:
        for j in sorted(strong[i], key=lambda j: (-strong[i][j], ids[j])):
            if i not in strong[j]:  # two tags that keep each other are siblings
                parent[i] = j
                break

    def chain_top(t):
        while t in parent:
            t = parent[t]
        return t

    local = parent.copy()
    component = {t: chain_top(t) for t in ids}
    roots = [t for t in ids if t not in parent]
    if len(roots) == 1:
        return local, Hierarchy(ids, [(p, c) for c, p in parent.items()])
    weights = {r: [co[r][j] for j in sorted(strong[r], key=ids.get)] for r in roots}
    entropy = {r: in_link_entropy(weights[r]) for r in roots}
    top = max(roots, key=lambda r: (entropy[r], sum(weights[r]), -ids[r]))

    def heaviest(r):
        return sorted(co[r], key=lambda j: (-co[r][j], ids[j]))

    suggested = {}
    for r in roots:
        if r != top:
            outside = [j for j in heaviest(r) if component[j] != r]
            suggested[r] = outside[0] if outside else top
    # a walk root -> component of its suggestion that comes back to a root
    # it passed is a circular chain: every root on the walk is cleared
    cleared = []
    for start in sorted(suggested, key=ids.get):
        walk, t = [], start
        while t in suggested and t not in walk:
            walk.append(t)
            t = component[suggested[t]]
        if t in walk:
            for r in walk:
                del suggested[r]
            cleared += walk
    parent.update(suggested)

    def below(t, r):
        while t is not None and t != r:
            t = parent.get(t)
        return t == r

    for r in sorted(cleared, key=lambda r: (-entropy[r], ids[r])):
        parent[r] = next((j for j in heaviest(r) if not below(j, r)), top)
    return local, Hierarchy(ids, [(p, c) for c, p in parent.items()])


def _extract_b_reference(objects, z_threshold, force_single_root):
    """Algorithm b from the `extract_b` module docstring, on dicts keyed by
    tag name.

    z(r, t) is z_from_counts(Q, Q_r, Q_t, Q_rt); pruning scores a pair with
    the smaller id first. Eigenvector centrality runs as
    `stats.eigenvector_centrality` documents it: from the strengths, each
    round sums a tag's row in ascending partner id, left to right, and
    divides by numpy's sum of the vector. A candidate t of tag i scores
    z(i, t) plus, when the link i -> t qualifies and i has descendants, the
    sum of z(d, t) over descendants d whose link d -> t qualifies. That sum
    runs over the descendants in ascending id, left to right, and is added
    to z(i, t) last. Ties: the higher (score, Q_it, -id) wins; rank ties by
    frequency, then the smaller id ranks higher."""
    q, freq, co, ids = _name_counts(objects)

    def z(r, t):
        return z_from_counts(q, freq[r], freq[t], co[r][t])

    def kept(i, j):
        lo, hi = sorted((i, j), key=ids.get)
        return co[i][j] >= 0.5 * freq[i] or co[i][j] >= 0.5 * freq[j] or z(lo, hi) > z_threshold

    pruned = {i: sorted((j for j in co[i] if kept(i, j)), key=ids.get) for i in ids}
    if any(pruned.values()):
        x = {i: float(sum(co[i][j] for j in pruned[i])) for i in ids}
        total = float(np.sum(list(x.values())))
        x = {i: v / total for i, v in x.items()}
        for _ in range(CENTRALITY_ITERATIONS):
            row_sums = {}
            for i in ids:
                acc = 0.0
                for j in pruned[i]:
                    acc += co[i][j] * x[j]
                row_sums[i] = acc
            total = float(np.sum(list(row_sums.values())))
            x = {i: v / total for i, v in row_sums.items()}
    else:
        x = {i: 1.0 / len(ids) for i in ids}
    order = sorted(ids, key=lambda t: (x[t], freq[t], -ids[t]))
    rank = {t: k for k, t in enumerate(order)}

    def qualifies(r, t):  # the link r -> t on its own: majority on r's side only
        return t in pruned[r] and (z(r, t) > z_threshold or co[r][t] >= 0.5 * freq[r])

    parent, below = {}, {t: set() for t in ids}
    for i in order:
        scores = {}
        for t in pruned[i]:
            if rank[t] > rank[i]:
                scores[t] = z(i, t)
                if qualifies(i, t) and below[i]:
                    gained = 0.0
                    for d in sorted(below[i], key=ids.get):
                        if qualifies(d, t):
                            gained += z(d, t)
                    scores[t] += gained
        if scores:
            best = max(scores, key=lambda t: (scores[t], co[i][t], -ids[t]))
            parent[i] = best
            below[best] |= below[i] | {i}
    roots = [t for t in ids if t not in parent]
    if force_single_root and len(roots) > 1:
        top = max(roots, key=rank.get)
        parent.update((r, top) for r in roots if r != top)
    return Hierarchy(ids, [(p, c) for c, p in parent.items()])


@relaxed
@given(corpora, st.sampled_from([0.2, 0.4, 0.7, 1.0]))
# equal z: t2's in-links from t0 and t1 both score 0, and t0, the smaller id, wins
@example([["t0", "t2", "t1"], ["t0", "t1"]], 0.7)
# the sibling rule: t2 and t1 keep each other, so neither parents the other
@example([["t2", "t1"]], 0.4)
# equal weights: three siblings, so three local roots with equal entropy and
# in-link weight; t0 becomes the global root, and t1 and t2 each pick t0 from
# two partners of equal count
@example([["t0", "t1", "t2"]], 0.4)
# a circular component chain: every link is kept both ways, so each tag is a
# local root; t1 has the highest entropy, t3 and t0 pick each other and are
# cleared, then t0 re-attaches under t3 and t3 under t1
@example([["t3", "t0"], ["t1", "t0"], ["t2", "t4", "t1"]], 0.4)
def test_extract_a_equals_the_name_keyed_reference(objects, omega):
    network = _network(objects)
    local, expected = _extract_a_reference(objects, omega)
    # the local parents first: a wrong pick there can leave a cycle that the
    # joining step would walk forever
    names = network.names
    picked = select_parents(surviving_in_links(network, omega))
    assert {names[i]: names[p] for i, p in enumerate(picked) if p is not None} == local
    got = extract_a(network, AlgoAParams(omega))
    assert hierarchy_to_text(got) == hierarchy_to_text(expected)


@relaxed
@given(corpora, st.sampled_from([-1.0, 0.0, 1.0, 2.0, 10.0]), st.booleans())
# equal score and equal weight: the smaller id wins
@example([["t0", "t1", "t2"]], -1.0, False)
# force_single_root: two roots with equal centrality and frequency; t0 ranks
# higher, so t1 goes under it
@example([["t0"], ["t1"]], -1.0, True)
def test_extract_b_equals_the_name_keyed_reference(objects, z_threshold, force_single_root):
    got = extract_b(_network(objects), AlgoBParams(z_threshold, force_single_root))
    expected = _extract_b_reference(objects, z_threshold, force_single_root)
    assert hierarchy_to_text(got) == hierarchy_to_text(expected)


def _extract_heymann_reference(objects, theta, kind):
    """Heymann from the `extract_heymann` docstring, on dicts keyed by tag
    name.

    The cosine of a pair is Q_ij / sqrt(Q_i * Q_j). A tag's centrality is
    its degree, or its `_bfs_closeness`, over the links whose cosine is at
    least theta. Tags are inserted in descending (centrality, Q_i, -id), and
    each takes its most similar earlier-inserted partner, ties to the one
    inserted first, or the synthetic root when that partner is below theta
    or there is none."""
    _, freq, co, ids = _name_counts(objects)
    cos = {i: {j: w / math.sqrt(freq[i] * freq[j]) for j, w in co[i].items()} for i in ids}
    similar = {i: [j for j in cos[i] if cos[i][j] >= theta] for i in ids}
    if kind == "degree-strength":
        centrality = {i: len(similar[i]) for i in ids}
    else:
        scores = _bfs_closeness([{ids[j] for j in similar[i]} for i in ids])
        centrality = dict(zip(ids, scores))
    order = sorted(ids, key=lambda t: (-centrality[t], -freq[t], ids[t]))
    parent = {}
    for k, t in enumerate(order):
        earlier = [p for p in order[:k] if p in cos[t]]
        # max keeps the first of equal cosines, the one inserted first
        best = max(earlier, key=cos[t].get, default=None)
        parent[t] = best if best is not None and cos[t][best] >= theta else SYNTHETIC_ROOT
    return Hierarchy(list(ids) + [SYNTHETIC_ROOT], [(p, c) for c, p in parent.items()])


@relaxed
@given(corpora, st.sampled_from([0.0, 0.1, 0.5, 1.0]))
# a similarity tie: t0 is inserted before t1 (Q_i 16 against 4) though its id
# is larger, and t2's cosine with each is 1 / sqrt(8); t2 goes under t0
@example([["t2", "t1", "t0"], ["t2", "t0"]] + [["t1"]] * 3 + [["t0"]] * 14, 0.1)
# t1's only earlier partner, t0, has cosine 1 / sqrt(200), below 0.1
@example([["t0", "t1"]] + [["t0"]] * 199, 0.1)
# two tags that always co-occur have cosine exactly 1, which reaches 1.0
@example([["t0", "t1"]] * 3 + [["t2"]], 1.0)
def test_extract_heymann_equals_the_name_keyed_reference(objects, theta):
    network = _network(objects)
    for kind in CENTRALITY_KINDS:
        got = extract_heymann(network, HeymannParams(theta, kind))
        expected = _extract_heymann_reference(objects, theta, kind)
        assert hierarchy_to_text(got) == hierarchy_to_text(expected)


EXTRACTORS = {
    "a": extract_a,
    "b": extract_b,
    "heymann": extract_heymann,
    "heymann_closeness": lambda n: extract_heymann(n, HeymannParams(centrality_kind="closeness")),
    "schmitz": extract_schmitz,
}


@relaxed
@given(corpora, st.permutations(range(len(TAGS))))
def test_extractors_commute_with_tag_renaming(objects, perm):
    # tag ids follow first appearance, which renaming keeps; the new names
    # sort in another order, so no tie-break may depend on names
    rename = {t: f"u{perm[k]}" for k, t in enumerate(TAGS)}
    rename[SYNTHETIC_ROOT] = SYNTHETIC_ROOT
    network = _network(objects)
    renamed = _network([[rename[t] for t in obj] for obj in objects])
    for extract in EXTRACTORS.values():
        h = extract(network)
        expected = Hierarchy(
            [rename[t] for t in h.tags], [(rename[p], rename[c]) for p, c in h.edges]
        )
        assert extract(renamed) == expected
