"""Tree extraction by local weight thresholding and z-score parent selection.

The co-occurrence network is first doubled into directed links (both
directions per co-occurring pair, weight Q_ij). Each tag keeps only incoming
links carrying at least an omega fraction of the tag's own occurrence count
(the ceiling for any of its co-occurrence counts). A tag's parent is
its surviving in-neighbor with the highest co-occurrence z-score whose
reverse link did not survive in the other direction (two tags that keep each
other are siblings, and neither may parent the other). The resulting forest
is assembled into a single tree: the local root with the highest in-link
entropy becomes the global root, the other local roots attach to their most
frequent co-occurring partner outside their own component, and any circular
chains of component attachments are broken and re-attached safely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CooccurrenceNetwork
from .hierarchy import Hierarchy
from .stats import in_link_entropy, z_scores


@dataclass(frozen=True)
class AlgoAParams:
    omega: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")


def surviving_in_links(network: CooccurrenceNetwork, omega: float) -> CooccurrenceNetwork:
    """The network cut to each tag's strong in-links: row i keeps the
    in-neighbors j, in ascending order and with Q_ij, whose weight is
    >= omega * Q_i.

    Q_i caps every co-occurrence count involving i, so the cut is a fraction
    of the strongest value i's row can hold. A tag may lose all incoming
    links and become a local root. Row i holds only links into i, so the
    rows need not be symmetric.
    """
    freq = np.asarray(network.freq, dtype=np.int64)
    return network.masked(network.weights >= omega * freq[network.rows])


def select_parents(strong_in: CooccurrenceNetwork) -> list[int | None]:
    """First surviving in-neighbor in descending z-score whose reverse link
    did not survive (sibling rule); z ties broken by ascending tag id."""
    n = strong_in.n_tags
    rows, cols = strong_in.rows, strong_in.indices
    # (i, j) is kept as key i * n + j, ascending in CSR order; j keeping i
    # too makes them siblings. np.isin would sort both key sets, and its
    # np.unique imports numpy.ma (about 1 MB held) on first use
    keys, mirror = rows * n + cols, cols * n + rows
    open_ = keys.take(np.searchsorted(keys, mirror), mode="clip") != mirror
    rows, cols = rows[open_], cols[open_]
    freq = np.asarray(strong_in.freq, dtype=np.int64)
    z = z_scores(strong_in.q_total, freq[rows], freq[cols], strong_in.weights[open_])
    # each row's entries by (-z, j); the first one is the row's parent
    order = np.lexsort((cols, -z, rows))
    rows, cols = rows[order], cols[order]
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    parent: list[int | None] = [None] * n
    for i, j in zip(rows[first].tolist(), cols[first].tolist()):
        parent[i] = j
    return parent


def _component_roots(parent: list[int]) -> list[int]:
    """Each tag's local root, by pointer doubling. The forest has no cycle: a
    local parent j of i keeps w >= omega * Q_i in i's row and fails
    w < omega * Q_j in its own, so Q_j > Q_i along every parent link."""
    up = np.array(parent, dtype=np.int64)
    up[up < 0] = np.flatnonzero(up < 0)
    doubled = up[up]
    while (doubled != up).any():
        up, doubled = doubled, doubled[doubled]
    return up.tolist()


def extract_a(network: CooccurrenceNetwork, params: AlgoAParams = AlgoAParams()) -> Hierarchy:
    """Extract a single-rooted tree covering every tag of the network."""
    n = network.n_tags
    if n == 0:
        raise ValueError("empty network")
    strong_in = surviving_in_links(network, params.omega)
    # -1 for a local root; attaching a root writes its new parent here
    parent = [-1 if p is None else p for p in select_parents(strong_in)]
    comp = _component_roots(parent)
    roots = [i for i in range(n) if parent[i] < 0]

    if len(roots) > 1:
        # a root's surviving in-links are its kept row run, in ascending
        # partner order; most roots kept none, and their runs go unread
        kept = strong_in.indptr.tolist()
        entropy, in_weight = dict.fromkeys(roots, 0.0), dict.fromkeys(roots, 0)
        for r in roots:
            if kept[r] < kept[r + 1]:
                ws = strong_in.weights[kept[r]:kept[r + 1]].tolist()
                entropy[r], in_weight[r] = in_link_entropy(ws), sum(ws)
        global_root = max(roots, key=lambda r: (entropy[r], in_weight[r], -r))

        # each non-global local root proposes its most frequent co-occurring
        # partner from a different component, ties to the smaller id; no
        # outside partner -> global root. Key w * n + (n - 1 - j) orders the
        # partners j of a row by (w, -j), so a row's largest key names its
        # pick; a local root is its own component, and the partners there
        # get key -1. Rows of other tags get picks too, which go unread
        rows, cols, w = network.rows, network.indices, network.weights
        key = w * n + (n - 1 - cols)
        key[np.asarray(comp)[cols] == rows] = -1
        proposers = np.flatnonzero(np.diff(network.indptr))
        best = np.maximum.reduceat(key, network.indptr[proposers])
        found = best >= 0
        outside = np.full(n, global_root)
        outside[proposers[found]] = n - 1 - best[found] % n
        outside = outside.tolist()
        for r in roots:
            if r != global_root:
                parent[r] = outside[r]

        # circular component chains: follow root -> component(parent) until a
        # root with no parent or a revisit; clear the whole walk
        looped: list[int] = []
        for start in roots:
            walk: dict[int, None] = {}
            t = start
            while t not in walk and parent[t] >= 0:
                walk[t] = None
                t = comp[parent[t]]
            if t in walk:
                looped += walk
                for r in walk:
                    parent[r] = -1

        def top(tag: int) -> int:
            # the root of `tag`'s tree in the forest as it stands right now
            while parent[tag] >= 0:
                tag = parent[tag]
            return tag

        # cleared roots re-attach in descending entropy order to their
        # heaviest co-occurring partner outside their own tree (a cleared
        # root is a root when its turn comes), ties by ascending id; fallback
        # global root. A stable sort of the root's own row run by -w keeps
        # the stored ascending ids within a weight; most roots take their
        # first or second partner, so the sorted ids are read lazily
        ptr = network.indptr.tolist()
        for r in sorted(looped, key=lambda x: (-entropy[x], x)):
            run = slice(ptr[r], ptr[r + 1])
            heaviest = map(int, cols[run][(-w[run]).argsort(kind="stable")])
            parent[r] = next((j for j in heaviest if top(j) != r), global_root)

    return Hierarchy.from_parents(network.names, parent)
