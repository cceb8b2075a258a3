"""Reference hierarchy extractors: Heymann-style greedy insertion and
Schmitz-style subsumption filtering.

The Heymann extractor inserts tags in descending generality into a growing
tree, attaching each to the most similar already-inserted tag (object-space
cosine similarity) or to a synthetic root when nothing is similar enough. The
Schmitz extractor keeps directed candidate links x -> y where x appears on at
least a fraction t_subsume of y's objects but not vice versa, prunes
transitive candidates, and resolves multi-parent conflicts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import CooccurrenceNetwork
from .hierarchy import Hierarchy

SYNTHETIC_ROOT = "*root*"

CENTRALITY_KINDS = ("degree-strength", "closeness")


@dataclass(frozen=True)
class HeymannParams:
    similarity_threshold: float = 0.1
    centrality_kind: str = "degree-strength"

    def __post_init__(self):
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity_threshold must be in [0, 1], got {self.similarity_threshold}"
            )
        if self.centrality_kind not in CENTRALITY_KINDS:
            raise ValueError(
                f"unknown centrality kind {self.centrality_kind!r}, expected one of {CENTRALITY_KINDS}"
            )


def cosine_similarities(network: CooccurrenceNetwork) -> np.ndarray:
    """Object-space cosine Q_ij / sqrt(Q_i * Q_j) of every stored count,
    aligned with `network.indices`."""
    freq = np.asarray(network.freq, dtype=np.int64)
    return network.weights / np.sqrt(freq[network.rows] * freq[network.indices])


# (source, tag) pairs one block of breadth-first searches holds at once, one
# bit each: components of graphs up to 8,192 tags run as one block each, and
# above that a block's bitsets stay 8 MB each however many tags there are
CLOSENESS_BLOCK_ENTRIES = 1 << 26


def _closeness(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Unweighted closeness of every tag: the number of tags it reaches over
    the sum of their hop distances, 0 for a tag that reaches none.

    Bit-parallel breadth-first search from a block of sources at a time: per
    tag, a Python int has a bit set for each source that has reached it. Each
    hop ORs the frontier bits of a tag's neighbours, and the bits the tag had
    not seen reach it at this hop. The graph, as CSR row pointers and column
    indices, must be symmetric, so that dist(s, v) = dist(v, s) and the hops
    that reach v from every source sum to v's own total. Each connected
    component runs on its own, in blocks of its tags, since no other source
    can reach them: a source's bit counts from the first source of its
    block, so a tag's bitsets are no wider than its component. A block has
    at most CLOSENESS_BLOCK_ENTRIES // n sources.
    """
    n = len(indptr) - 1
    block = max(1, CLOSENESS_BLOCK_ENTRIES // n)
    indptr, indices = indptr.tolist(), indices.tolist()
    adj = [indices[indptr[v] : indptr[v + 1]] for v in range(n)]
    total, reached = [0] * n, [0] * n
    walked, unseen = [False] * n, [0] * n
    for root in range(n):
        if walked[root]:
            continue
        # root's component in the order a walk over adj finds it; the loop
        # also reads the tags it appends
        component = [root]
        walked[root] = True
        for v in component:
            for u in adj[v]:
                if not walked[u]:
                    walked[u] = True
                    component.append(u)
        for lo in range(0, len(component), block):
            frontier = {s: 1 << i for i, s in enumerate(component[lo : lo + block])}
            # unseen[v]: the block's sources that have not reached v yet; a
            # source has reached itself
            every = (1 << len(frontier)) - 1
            for v in component:
                unseen[v] = every
            for s, bit in frontier.items():
                unseen[s] ^= bit
            hops = 0
            while frontier:
                hops += 1
                acc = {}
                get = acc.get
                for v, bits in frontier.items():
                    for u in adj[v]:
                        acc[u] = get(u, 0) | bits
                frontier = {}
                for u, bits in acc.items():
                    new = bits & unseen[u]
                    if new:
                        unseen[u] ^= new
                        frontier[u] = new
                        found = new.bit_count()
                        total[u] += hops * found
                        reached[u] += found
    reached, total = np.array(reached, dtype=np.int64), np.array(total, dtype=np.int64)
    scores = np.zeros(n)
    np.divide(reached, total, out=scores, where=total > 0)
    return scores


def extract_heymann(
    network: CooccurrenceNetwork, params: HeymannParams = HeymannParams()
) -> Hierarchy:
    """Greedy tree construction; tags nothing resembles hang off a synthetic root.

    Insertion order is descending centrality in the similarity graph
    thresholded at the similarity threshold: degree-strength ranks by degree
    with frequency and tag id breaking ties, closeness by unweighted BFS
    closeness with the same tie-breaks. The synthetic root is part of the
    returned tree and carries the reserved name *root*.
    """
    n = network.n_tags
    if n == 0:
        raise ValueError("empty network")
    if SYNTHETIC_ROOT in network.names:
        raise ValueError(f"corpus uses the reserved tag name {SYNTHETIC_ROOT!r}")
    sims = cosine_similarities(network)
    similar = sims >= params.similarity_threshold
    # a tag attaches only through a link at or above the threshold, so the
    # other stored counts are dropped first: a tag whose earlier partners are
    # all below it keeps no entry and stays under the synthetic root
    rows, cols, sims = network.rows[similar], network.indices[similar], sims[similar]
    if params.centrality_kind == "degree-strength":
        centrality = np.bincount(rows, minlength=n)
    else:
        kept = network.masked(similar)
        centrality = _closeness(kept.indptr, kept.indices)
    # descending (centrality, frequency, -id)
    order = np.lexsort((-np.arange(n), network.freq, centrality))[::-1]
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)

    # each tag's most similar partner inserted before it, ties to the one
    # inserted first; row runs of the stored counts group entries by tag
    earlier = position[cols] < position[rows]
    tag, sim, pos = rows[earlier], sims[earlier], position[cols[earlier]]
    starts = np.flatnonzero(np.diff(tag, prepend=-1))
    best_sim = np.maximum.reduceat(sim, starts)
    at_best = sim == np.repeat(best_sim, np.diff(starts, append=len(tag)))
    tag, pos = tag[at_best], pos[at_best]
    starts = np.flatnonzero(np.diff(tag, prepend=-1))
    first_inserted = np.minimum.reduceat(pos, starts)
    # the synthetic root is tag n, the parent of every tag left unattached
    parent = np.append(np.full(n, n), -1)
    parent[tag[starts]] = order[first_inserted]
    return Hierarchy.from_parents(network.names + (SYNTHETIC_ROOT,), parent.tolist())


def strip_synthetic_root(h: Hierarchy) -> Hierarchy:
    """Drop the synthetic root; its children become roots of the forest."""
    if SYNTHETIC_ROOT not in h.tags:
        return h
    r = h.tags.index(SYNTHETIC_ROOT)
    # links at the root go, and the positions above it shift down by one
    kept = ((p, c) for p, cs in enumerate(h._children) if p != r for c in cs if c != r)
    links = [(p - (p > r), c - (c > r)) for p, c in kept]
    return Hierarchy.__new__(Hierarchy)._link(h.tags[:r] + h.tags[r + 1 :], links)


@dataclass(frozen=True)
class SchmitzParams:
    t_subsume: float = 0.8
    min_cooccurrence: int = 10

    def __post_init__(self):
        if not 0.0 <= self.t_subsume <= 1.0:
            raise ValueError(f"t_subsume must be in [0, 1], got {self.t_subsume}")
        if self.min_cooccurrence < 0:
            raise ValueError(f"min_cooccurrence must be >= 0, got {self.min_cooccurrence}")


def extract_schmitz(
    network: CooccurrenceNetwork, params: SchmitzParams = SchmitzParams()
) -> Hierarchy:
    """Subsumption forest: x -> y iff P(x|y) >= t, P(y|x) < t, Q_xy >= min count.

    Transitive candidates (x -> z alongside x -> y -> z) are pruned in one
    pass against the candidate set, then each child keeps the parent with the
    largest P(parent|child), ties broken by ascending tag id. Tags without
    qualifying links stay isolated, so the output is generally a sparse
    forest.
    """
    n = network.n_tags
    if n == 0:
        raise ValueError("empty network")
    freq = np.asarray(network.freq, dtype=np.int64)
    rows, cols, w = network.rows, network.indices, network.weights
    t_sub = params.t_subsume
    # both stored copies of a pair are tested, one per direction: x -> y at
    # the entry (x, y) iff P(x|y) = Q_xy / Q_y >= t and P(y|x) = Q_xy / Q_x < t
    subsumes = (
        (w >= params.min_cooccurrence) & (w / freq[cols] >= t_sub) & (w / freq[rows] < t_sub)
    )
    cand = sparse.csr_matrix((w[subsumes], (rows[subsumes], cols[subsumes])), shape=(n, n))
    linked = cand > 0
    # a candidate x -> y is transitive when candidates x -> z and z -> y exist
    direct = cand.multiply(linked > linked @ linked).tocoo()

    # per child, the parent and count of its strongest direct candidate: the
    # largest count wins, ties go to the smaller parent id; a stored count is
    # at least 1, so any candidate beats no parent yet, (0, -(-1))
    parent, count = [-1] * n, [0] * n
    for x, y, w_xy in zip(direct.row.tolist(), direct.col.tolist(), direct.data.tolist()):
        if (w_xy, -x) > (count[y], -parent[y]):
            parent[y], count[y] = x, w_xy
    return Hierarchy.from_parents(network.names, parent)
