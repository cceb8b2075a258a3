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


def surviving_in_links(network: CooccurrenceNetwork, omega: float) -> list[dict[int, float]]:
    """Per tag i: the in-neighbors j whose link weight is >= omega * Q_i, with z-scores.

    Q_i caps every co-occurrence count involving i, so the cut is a fraction
    of the strongest value i's row can hold. A tag may lose all incoming
    links and become a local root. Each dict lists j in ascending order.
    """
    freq = np.asarray(network.freq, dtype=np.int64)
    rows, cols, w = network.rows, network.indices, network.weights
    keep = w >= omega * freq[rows]
    rows, cols, w = rows[keep], cols[keep], w[keep]
    z = z_scores(network.q_total, freq[rows], freq[cols], w)
    kept: list[dict[int, float]] = [{} for _ in range(network.n_tags)]
    for i, j, z_ij in zip(rows.tolist(), cols.tolist(), z.tolist()):
        kept[i][j] = z_ij
    return kept


def select_parents(strong_in: list[dict[int, float]]) -> list[int | None]:
    """First surviving in-neighbor in descending z-score whose reverse link
    did not survive (sibling rule); z ties broken by ascending tag id."""
    parent: list[int | None] = [None] * len(strong_in)
    for i, candidates in enumerate(strong_in):
        for j, _ in sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0])):
            if i not in strong_in[j]:
                parent[i] = j
                break
    return parent


def _component_roots(parent: list[int]) -> list[int]:
    comp = [-1] * len(parent)
    for i in range(len(parent)):
        path = []
        t = i
        while comp[t] < 0 and parent[t] >= 0:
            path.append(t)
            t = parent[t]
        root = comp[t] if comp[t] >= 0 else t
        for p in path:
            comp[p] = root
        comp[i] = root
    return comp


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
        entropy = {}
        in_weight = {}
        for r in roots:
            ws = [network.weight(r, j) for j in strong_in[r]]
            entropy[r] = in_link_entropy(ws)
            in_weight[r] = sum(ws)
        global_root = max(roots, key=lambda r: (entropy[r], in_weight[r], -r))

        # every row's partners heaviest first, ties by ascending id (the
        # stable sort keeps the stored ascending order); the stored counts
        # keep their rows, so row r is heaviest[indptr[r]:indptr[r + 1]]
        rows, cols, w = network.rows, network.indices, network.weights
        heaviest = cols[np.lexsort((-w, rows))]
        # each non-global local root proposes its most frequent co-occurring
        # partner from a different component; no outside partner -> global root
        outside = np.flatnonzero(np.asarray(comp)[heaviest] != rows)
        first_rows, first = np.unique(rows[outside], return_index=True)
        heaviest_outside = dict(zip(first_rows.tolist(), heaviest[outside[first]].tolist()))
        suggested = {
            r: heaviest_outside.get(r, global_root) for r in roots if r != global_root
        }

        # circular component chains: follow root -> component(suggested parent)
        # until a root with no suggestion or a revisit; clear the whole walk
        looped: list[int] = []
        for start in sorted(suggested):
            if start not in suggested:
                continue
            visited: list[int] = []
            seen: set[int] = set()
            t = start
            while t not in seen and t in suggested:
                seen.add(t)
                visited.append(t)
                t = comp[suggested[t]]
            if t in seen:
                for r in visited:
                    looped.append(r)
                    del suggested[r]

        for r, p in suggested.items():
            parent[r] = p

        def is_below(tag: int, root: int) -> bool:
            # does the ancestor chain of `tag` pass through `root`, in the
            # partially assembled forest as it stands right now
            t = tag
            while t >= 0:
                if t == root:
                    return True
                t = parent[t]
            return False

        # cleared roots re-attach in descending entropy order to their
        # heaviest co-occurring partner not below them; fallback global root
        for r in sorted(looped, key=lambda x: (-entropy[x], x)):
            chosen = None
            for j in heaviest[network.indptr[r] : network.indptr[r + 1]].tolist():
                if not is_below(j, r):
                    chosen = j
                    break
            parent[r] = global_root if chosen is None else chosen

    return Hierarchy.from_parents(network.names, parent)
