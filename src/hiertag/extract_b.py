"""Forest extraction by network pruning and bottom-up centrality sweep.

The co-occurrence network is pruned to links that are either statistically
significant (z-score above a threshold) or cover the majority of one
endpoint's objects. Eigenvector centrality on the pruned network orders the
tags from peripheral to general; sweeping in ascending order, each tag picks
its parent among its pruned neighbors of higher centrality rank, scoring each
candidate by its z-score with the tag plus the z-scores with the tag's
already-attached descendants (each descendant contributing only through links
that qualify on their own). Tags with no candidate become roots.

Pruning scores each pair once, on its stored copy i < j, and stores the
pairs it keeps in both their rows again, as counting does; the scoring
temporaries are gone before that rebuild. The sweep then reads only the
much smaller pruned matrix. A descendant's link qualifies by the same test
that keeps a pair in pruning (up to the last bit of a z-score within one
ulp of the threshold), so every contributing link is one the pruned matrix
holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CooccurrenceNetwork, _symmetric
from .hierarchy import Hierarchy
from .stats import CENTRALITY_ITERATIONS, eigenvector_centrality, z_scores


@dataclass(frozen=True)
class AlgoBParams:
    z_threshold: float = 10.0
    force_single_root: bool = False

    def __post_init__(self):
        # every z fails `z > nan`, so pruning would keep coverage links alone;
        # -inf (every link) and +inf (coverage links alone) stay accepted
        if math.isnan(self.z_threshold):
            raise ValueError(f"z_threshold must be a number, got {self.z_threshold}")


def prune_network(network: CooccurrenceNetwork, z_threshold: float) -> CooccurrenceNetwork:
    """Keep pair {i, j} iff z_ij > z_threshold, or Q_ij >= Q_i/2, or Q_ij >= Q_j/2."""
    # the kept pairs are stored in both their rows again, once scoring is done
    return _symmetric(network.names, network.q_total, network.freq, *_kept_pairs(network, z_threshold))


def _kept_pairs(network: CooccurrenceNetwork, z_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The keys i * n + j (i < j), ascending, and counts of the pairs that
    `prune_network` keeps."""
    n, indptr, cols = network.n_tags, network.indptr, network.indices
    freq = np.asarray(network.freq, dtype=np.int64)
    # each pair is scored once, on its stored copy i < j: z with the smaller id
    # first, as a loop over i < j scores it
    rows = np.repeat(np.arange(n), np.diff(indptr))
    upper = cols > rows
    q_i = freq[rows[upper]]
    del rows
    q_j, w = freq[cols[upper]], network.weights[upper]
    keep = (w >= 0.5 * q_i) | (w >= 0.5 * q_j)
    keep |= z_scores(network.q_total, q_i, q_j, w) > z_threshold
    # the kept pairs' rows are found from their positions once scoring is done
    at = np.flatnonzero(upper)[keep]
    return (np.searchsorted(indptr, at, side="right") - 1) * n + cols[at], w[keep]


def centrality_rank(pruned: CooccurrenceNetwork) -> list[int]:
    """Tags in ascending rank order: by centrality, frequency ties rank the
    more frequent tag higher, remaining ties by tag id (smaller id higher)."""
    cent = eigenvector_centrality(pruned, CENTRALITY_ITERATIONS).scores
    n = pruned.n_tags
    return np.lexsort((-np.arange(n), pruned.freq, cent)).tolist()


def extract_b(network: CooccurrenceNetwork, params: AlgoBParams = AlgoBParams()) -> Hierarchy:
    """Extract an acyclic forest; every parent outranks its child in centrality."""
    return extract_b_from_pruned(prune_network(network, params.z_threshold), params)


def extract_b_from_pruned(pruned: CooccurrenceNetwork, params: AlgoBParams) -> Hierarchy:
    """The sweep of `extract_b` on a network already pruned at `params.z_threshold`."""
    n = pruned.n_tags
    if n == 0:
        raise ValueError("empty network")
    thr = params.z_threshold
    order = centrality_rank(pruned)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    freq = np.asarray(pruned.freq, dtype=np.int64)
    rows, cols, w = pruned.rows, pruned.indices, pruned.weights
    q_total = pruned.q_total
    # the link from tag r toward t qualifies on its own (majority exception on
    # r's side only); this decides whether a candidate t re-qualifies for a
    # tag with descendants, and the same test from t's end of the entry
    # (`into` below) whether a descendant contributes to t
    z = z_scores(q_total, freq[rows], freq[cols], w)
    qualifies = (z > thr) | (w >= 0.5 * freq[rows])
    # a tag's candidates are its partners of higher rank, with z, weight and
    # whether the link qualifies: the tag's row run of the upward entries
    upward = rank[cols] > rank[rows]
    cand_ptr = np.searchsorted(rows[upward], np.arange(n + 1)).tolist()
    cand = list(zip(*(a[upward].tolist() for a in (cols, z, w, qualifies))))
    # the same entry (t, r) read the other way is the link r -> t, scored
    # with r first; only a partner of lower rank can lie below a candidate t,
    # so `into[t]` lists each such r whose link to t qualifies with its
    # z-score, in ascending r
    z_in = z_scores(q_total, freq[cols], freq[rows], w)
    into_kept = ~upward & ((z_in > thr) | (w >= 0.5 * freq[cols]))
    into: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for t, r, z_rt in zip(*(a[into_kept].tolist() for a in (rows, cols, z_in))):
        into[t].append((r, z_rt))

    parent = [-1] * n
    descendants: list[set[int]] = [set() for _ in range(n)]
    for i in order:
        lo, hi = cand_ptr[i], cand_ptr[i + 1]
        if lo == hi:
            continue
        below = descendants[i]
        best_key = None
        for t, score, w_it, ok in cand[lo:hi]:
            if ok and below:
                # the contributing descendants in ascending id; their sum,
                # left to right, fixes the rounding
                gained = 0.0
                for d, z_dt in into[t]:
                    if d in below:
                        gained += z_dt
                score += gained
            key = (score, w_it, -t)
            if best_key is None or key > best_key:
                best_key = key
        best = -best_key[2]
        parent[i] = best
        descendants[best] |= below
        descendants[best].add(i)

    if params.force_single_root:
        # the most central tag has no partner of higher rank, so it is a root
        top = order[-1]
        parent = [top if p < 0 and i != top else p for i, p in enumerate(parent)]

    return Hierarchy.from_parents(pruned.names, parent)
