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


# (source, tag) pairs one block of breadth-first searches holds at once, so a
# block's visited set and frontier stay a few MB however many tags there are
CLOSENESS_BLOCK_ENTRIES = 1 << 18


def _closeness(graph: sparse.csr_matrix) -> np.ndarray:
    """Unweighted closeness of every tag: the number of tags it reaches over
    the sum of their hop distances, 0 for a tag that reaches none.

    Breadth-first search from a block of sources at a time: the frontier is a
    sparse (source, tag) matrix, and one product with the graph moves every
    search in the block one hop further.
    """
    n = graph.shape[0]
    block = max(1, CLOSENESS_BLOCK_ENTRIES // n)
    scores = np.zeros(n)
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        b = len(sources)
        seen = np.zeros((b, n), dtype=bool)
        seen[np.arange(b), sources] = True
        total = np.zeros(b, dtype=np.int64)
        # the frontier row by row: row pointers and the tags of each row
        indptr, col = np.arange(b + 1), sources
        hops = 0
        while len(col):
            hops += 1
            frontier = sparse.csr_matrix((np.ones(len(col)), col, indptr), shape=(b, n))
            # the product stores each (source, tag) pair once
            step = frontier @ graph
            row = np.repeat(np.arange(b), np.diff(step.indptr))
            new = ~seen[row, step.indices]
            row, col = row[new], step.indices[new]
            seen[row, col] = True
            found = np.bincount(row, minlength=b)
            total += hops * found
            indptr = np.concatenate(([0], np.cumsum(found)))
        reached = seen.sum(axis=1) - 1
        np.divide(reached, total, out=scores[lo : lo + b], where=total > 0)
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
    theta = params.similarity_threshold
    rows, cols = network.rows, network.indices
    similar = sims >= theta
    if params.centrality_kind == "degree-strength":
        centrality = np.bincount(rows[similar], minlength=n)
    else:
        kept = network.masked(similar)
        centrality = _closeness(
            sparse.csr_matrix((kept.weights, kept.indices, kept.indptr), shape=(n, n))
        )
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
    attached = best_sim >= theta
    parent = np.full(n, -1)
    parent[tag[starts][attached]] = order[first_inserted[attached]]

    names = network.names
    edges = [
        (SYNTHETIC_ROOT if p < 0 else names[p], names[i]) for i, p in enumerate(parent.tolist())
    ]
    return Hierarchy(names + (SYNTHETIC_ROOT,), edges)


def strip_synthetic_root(h: Hierarchy) -> Hierarchy:
    """Drop the synthetic root; its children become roots of the forest."""
    if SYNTHETIC_ROOT not in h.tags:
        return h
    tags = [t for t in h.tags if t != SYNTHETIC_ROOT]
    edges = [(p, c) for p, c in h.edges if p != SYNTHETIC_ROOT and c != SYNTHETIC_ROOT]
    return Hierarchy(tags, edges)


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
    if network.n_tags == 0:
        raise ValueError("empty network")
    freq = np.asarray(network.freq, dtype=np.int64)
    rows, cols, w = network.rows, network.indices, network.weights
    t_sub = params.t_subsume
    # both stored copies of a pair are tested, one per direction: x -> y at
    # the entry (x, y) iff P(x|y) = Q_xy / Q_y >= t and P(y|x) = Q_xy / Q_x < t
    subsumes = (
        (w >= params.min_cooccurrence) & (w / freq[cols] >= t_sub) & (w / freq[rows] < t_sub)
    )
    candidates = list(
        zip(rows[subsumes].tolist(), cols[subsumes].tolist(), w[subsumes].tolist())
    )

    children: dict[int, set[int]] = {}
    parents: dict[int, set[int]] = {}
    for x, y, _ in candidates:
        children.setdefault(x, set()).add(y)
        parents.setdefault(y, set()).add(x)

    # per child, (count, parent) of its strongest kept candidate: the largest
    # count wins, ties go to the smaller parent id
    best: dict[int, tuple[int, int]] = {}
    for x, y, w_xy in candidates:
        if children[x] & parents[y]:
            continue
        if y not in best or (w_xy, -x) > (best[y][0], -best[y][1]):
            best[y] = (w_xy, x)
    names = network.names
    edges = [(names[x], names[y]) for y, (_, x) in best.items()]
    return Hierarchy(names, edges)
