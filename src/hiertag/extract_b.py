"""Forest extraction by network pruning and bottom-up centrality sweep.

The co-occurrence network is pruned to links that are either statistically
significant (z-score above a threshold) or cover the majority of one
endpoint's objects. Eigenvector centrality on the pruned network orders the
tags from peripheral to general; sweeping in ascending order, each tag picks
its parent among its pruned neighbors of higher centrality rank, scoring each
candidate by its z-score with the tag plus the z-scores with the tag's
already-attached descendants (each descendant contributing only through links
that qualify on their own). Tags with no candidate become roots.

Pruning is one mask over the stored counts of the network's CSR matrix; the
sweep then reads only the much smaller pruned matrix. A descendant's link
qualifies by the same test that keeps a pair in pruning (up to the last bit
of a z-score within one ulp of the threshold), so every contributing link is
one the pruned matrix holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CooccurrenceNetwork
from .hierarchy import Hierarchy
from .stats import eigenvector_centrality, z_scores

CENTRALITY_ITERATIONS = 100


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
    freq = np.asarray(network.freq, dtype=np.int64)
    rows, cols, w = network.rows, network.indices, network.weights
    # z of each pair with its smaller id first, as a loop over i < j scores it,
    # so that both stored copies of a pair agree
    z = z_scores(network.q_total, freq[np.minimum(rows, cols)], freq[np.maximum(rows, cols)], w)
    keep = (w >= 0.5 * freq[rows]) | (w >= 0.5 * freq[cols]) | (z > z_threshold)
    return network.masked(keep)


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
    z = z_scores(pruned.q_total, freq[rows], freq[cols], w)
    # the link from tag r toward t qualifies on its own (majority exception on
    # r's side only); this decides both whether a candidate t re-qualifies for
    # a tag with descendants and whether a descendant contributes to t
    qualifies = (z > thr) | (w >= 0.5 * freq[rows])
    upward = rank[cols] > rank[rows]
    candidates: list[list[tuple[int, float, int, bool]]] = [[] for _ in range(n)]
    contribution: list[dict[int, float]] = [{} for _ in range(n)]
    for r, t, z_rt, w_rt, ok, up in zip(
        rows.tolist(), cols.tolist(), z.tolist(), w.tolist(), qualifies.tolist(), upward.tolist()
    ):
        if up:
            candidates[r].append((t, z_rt, w_rt, ok))
        if ok:
            contribution[r][t] = z_rt

    parent = [-1] * n
    descendants: list[set[int]] = [set() for _ in range(n)]
    for i in order:
        if not candidates[i]:
            continue
        best_key = None
        for t, score, w_it, ok in candidates[i]:
            if ok and descendants[i]:
                # summed in the set's iteration order, which fixes the rounding
                gained = 0.0
                for d in descendants[i]:
                    z_dt = contribution[d].get(t)
                    if z_dt is not None:
                        gained += z_dt
                score += gained
            key = (score, w_it, -t)
            if best_key is None or key > best_key:
                best_key = key
        best = -best_key[2]
        parent[i] = best
        descendants[best] |= descendants[i]
        descendants[best].add(i)

    if params.force_single_root:
        roots = [i for i in range(n) if parent[i] < 0]
        if len(roots) > 1:
            top = max(roots, key=lambda r: rank[r])
            for r in roots:
                if r != top:
                    parent[r] = top

    return Hierarchy.from_parents(pruned.names, parent)
