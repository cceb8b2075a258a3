"""Directed tag hierarchies: loading, saving, descendant tables, rewiring.

A hierarchy is a directed acyclic graph over tags, with edges pointing from
ancestor to descendant. A hierarchy file holds one "parent TAB child" edge
per record of the `textio` format; a record with one field declares an
isolated tag. `load_hierarchy` reads the file once through
`textio.record_blocks`: one split of a block gives its fields, and each
line's TAB count tells an edge (one TAB) from an isolated tag (none). A
block with a line of three or more fields, an empty tag or a self-loop
names its first such line from the block's line numbers; the reader
itself names a line that is not UTF-8 once the lines before it are
checked. The hierarchy is linked from the sorted tags and the distinct
position pairs.
"""
from __future__ import annotations

import operator
import random
from typing import Collection, Iterable, Sequence

import numpy as np

from .textio import TextFormatError, record_blocks


class CycleError(ValueError):
    """An edge set that was required to be acyclic contains a directed cycle."""


class HierarchyFormatError(TextFormatError):
    """A malformed hierarchy file."""


class Hierarchy:
    """Immutable DAG over string tags.

    Acyclicity is validated at construction time; duplicate edges collapse.
    Tags are kept in sorted order, which fixes the canonical indexing used by
    seeded operations such as :func:`rewire`. Traversals run on positions in
    `tags`: each tag's children as ascending positions, its parent count, and
    a topological order (Kahn's, ties by position), all built once by
    `_link`. Both constructors feed it position pairs: `Hierarchy(tags,
    edges)` from name pairs, `from_parents` from a forest's parent array;
    `load_hierarchy` feeds it a file's.
    Equality compares tags and child positions; `edges`, the name pairs, is
    built on each access.
    """

    __slots__ = ("tags", "n_edges", "roots", "_children", "_n_parents", "_order", "_scoring")

    def __init__(self, tags: Iterable[str], edges: Iterable[tuple[str, str]]):
        tag_set = set(tags)
        edge_set = set()
        for parent, child in edges:
            if parent not in tag_set or child not in tag_set:
                raise ValueError(f"edge ({parent!r}, {child!r}) references an unknown tag")
            if parent == child:
                raise ValueError(f"self-loop on tag {parent!r}")
            edge_set.add((parent, child))
        tags = tuple(sorted(tag_set))
        position = dict(zip(tags, range(len(tags))))
        self._link(tags, [(position[p], position[c]) for p, c in edge_set])

    @classmethod
    def from_parents(cls, names: Sequence[str], parent: Sequence[int]) -> "Hierarchy":
        """The forest in which tag `names[i]` hangs under `names[parent[i]]`,
        or is a root where `parent[i]` is negative. Names must be distinct;
        a parent array with a cycle raises `CycleError`."""
        n = len(names)
        if len(set(names)) != n or len(parent) != n or max(parent, default=-1) >= n:
            raise ValueError("from_parents needs distinct names and one parent index < n per name")
        order = sorted(range(n), key=names.__getitem__)
        position = dict(zip(order, range(n)))
        links = [(position[p], position[c]) for c, p in enumerate(parent) if p >= 0]
        return cls.__new__(cls)._link(tuple(names[i] for i in order), links)

    def _link(self, tags: tuple[str, ...], links: Collection[tuple[int, int]]) -> "Hierarchy":
        """Set every field from sorted `tags` and distinct (parent, child)
        position pairs and return `self`; a cycle in the links raises `CycleError`."""
        self.tags: tuple[str, ...] = tags
        self.n_edges = len(links)
        children: list[list[int]] = [[] for _ in tags]
        n_parents = [0] * len(tags)
        for p, c in links:
            children[p].append(c)
            n_parents[c] += 1
        for cs in children:
            cs.sort()
        self._children = children
        self._n_parents = n_parents
        self.roots: tuple[str, ...] = tuple(t for t, k in zip(tags, n_parents) if not k)
        indeg = n_parents.copy()
        order = [i for i, k in enumerate(indeg) if not k]
        for v in order:  # grows while it is read, so it serves as the queue
            for c in children[v]:
                indeg[c] -= 1
                if not indeg[c]:
                    order.append(c)
        if len(order) != len(tags):
            cyclic = [t for t, k in zip(tags, indeg) if k]
            raise CycleError(f"hierarchy contains a directed cycle through {cyclic[:5]}")
        self._order = order
        self._scoring = None  # the scoring tables of `metrics`, built on first use
        return self

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The (parent, child) name pairs."""
        tags = self.tags
        return frozenset((tags[p], tags[c]) for p, cs in enumerate(self._children) for c in cs)

    def is_forest(self) -> bool:
        return max(self._n_parents, default=0) <= 1

    def is_tree(self) -> bool:
        return len(self.roots) == 1 and self.is_forest()

    def depths(self) -> dict[str, int]:
        """Minimum edge distance from any root, per tag, in breadth-first order."""
        order, depth = self._breadth_first()
        tags = self.tags
        return {tags[v]: depth[v] for v in order}

    def _breadth_first(self) -> tuple[list[int], list[int]]:
        """Positions in breadth-first order from the roots, and each
        position's minimum edge distance from any root."""
        depth = [-1 if k else 0 for k in self._n_parents]
        order = [i for i, d in enumerate(depth) if not d]
        for v in order:
            for c in self._children[v]:
                if depth[c] < 0:
                    depth[c] = depth[v] + 1
                    order.append(c)
        return order, depth

    def undirected_neighbors(self) -> list[tuple[int, ...]]:
        """Each tag's parents and children as ascending positions in `tags`."""
        nbrs: list[list[int]] = [list(cs) for cs in self._children]
        for p, cs in enumerate(self._children):
            for c in cs:
                nbrs[c].append(p)
        return [tuple(sorted(vs)) for vs in nbrs]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return self.tags == other.tags and self._children == other._children

    def __hash__(self) -> int:
        return hash((self.tags, tuple(map(tuple, self._children))))

    def __repr__(self) -> str:
        return f"Hierarchy(n_tags={self.n_tags}, n_edges={self.n_edges}, roots={len(self.roots)})"


def load_hierarchy(path: str) -> Hierarchy:
    """Read a hierarchy file; format errors name the file and its first
    faulty line."""
    names: set[str] = set()
    parents: list[str] = []
    children: list[str] = []
    for text, tabs, lines in record_blocks(path, HierarchyFormatError):
        fields = text.replace("\n", "\t").split("\t")
        # a line's fields end at the running field count; a line of one TAB
        # is an edge, its parent two fields before that end
        first = (np.cumsum(tabs + 1) - 2)[tabs == 1]
        block_parents = list(map(fields.__getitem__, first.tolist()))
        block_children = list(map(fields.__getitem__, (first + 1).tolist()))
        if tabs.max() > 1 or "" in fields or any(map(operator.eq, block_parents, block_children)):
            raise HierarchyFormatError.first_of(path, text, lines, _line_fault)
        names.update(fields)
        parents += block_parents
        children += block_children
    tags = tuple(sorted(names))
    position = dict(zip(tags, range(len(tags)))).__getitem__
    links = set(zip(map(position, parents), map(position, children)))
    try:
        return Hierarchy.__new__(Hierarchy)._link(tags, links)
    except CycleError as exc:
        raise CycleError(f"{path}: {exc}") from None


def _line_fault(fields: list[str]) -> str | None:
    """What is wrong with a hierarchy record's fields, if anything; a record
    of one field is never empty."""
    if len(fields) > 2:
        return f"expected 1 or 2 fields, got {len(fields)}"
    if "" in fields:
        return "empty tag in edge"
    if len(fields) == 2 and fields[0] == fields[1]:
        return f"self-loop on tag {fields[0]!r}"
    return None


def hierarchy_to_text(h: Hierarchy) -> str:
    """Edges sorted by (parent, child), then the isolated tags."""
    tags = h.tags
    lines = [f"{tags[p]}\t{tags[c]}" for p, cs in enumerate(h._children) for c in cs]
    lines.extend(t for t, cs, k in zip(tags, h._children, h._n_parents) if not cs and not k)
    return "\n".join(lines) + ("\n" if lines else "")


def save_hierarchy(h: Hierarchy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hierarchy_to_text(h))


def descendant_table(h: Hierarchy) -> dict[str, frozenset[str]]:
    """All descendants (children, grandchildren, ...) per tag, excluding the tag."""
    tags = h.tags
    below: list[frozenset[str]] = [frozenset()] * len(tags)
    for v in reversed(h._order):
        acc: set[str] = set()
        for c in h._children[v]:
            acc.add(tags[c])
            acc |= below[c]
        below[v] = frozenset(acc)
    return {tags[v]: below[v] for v in reversed(h._order)}


def binary_tree(levels: int) -> Hierarchy:
    """Balanced binary tree with 2**levels - 1 tags named "1".."2**levels-1"."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    # 20 levels are 1,048,575 tags, built and written in about 0.5 GB, and
    # every level more doubles that
    if levels > 20:
        raise ValueError(f"levels is too large: {levels} > 20")
    # tag i hangs under tag i // 2, at index i // 2 - 1; tag 1 gets -1, the root
    ids = range(1, 2**levels)
    return Hierarchy.from_parents([str(i) for i in ids], [i // 2 - 1 for i in ids])


REWIRING_ORDERS = ("leaf-first", "random", "top-first")


def _rewire_plan(h: Hierarchy, order: str) -> tuple[list[int], list[int]]:
    """Check that `h` is a tree and `order` is known; return the tree's
    parent list and its links as child positions in rewiring order
    ("random": tag order, shuffled per rewiring by the kernel)."""
    if not h.is_tree():
        raise ValueError("rewire requires a single-rooted tree")
    if order not in REWIRING_ORDERS:
        raise ValueError(f"unknown rewiring order {order!r}, expected one of {REWIRING_ORDERS}")
    parent, depth = [-1] * len(h.tags), [0] * len(h.tags)
    for p in h._order:  # topological, so each parent's depth is set first
        for c in h._children[p]:
            parent[c], depth[c] = p, depth[p] + 1
    links = [i for i, p in enumerate(parent) if p >= 0]
    if order != "random":
        # stable, so ties stay in tag order either way
        links.sort(key=depth.__getitem__, reverse=order == "leaf-first")
    return parent, links


def _rewire_parents(
    parent: list[int], links: list[int], fraction: float, rng: random.Random, shuffle: bool
) -> list[int]:
    """The rewiring kernel: a new parent list with the first
    round(fraction * len(links)) of `links` rewired, `links` shuffled with
    `rng` first when `shuffle` is set. The inputs are not modified.

    It draws the stream of ``rng.shuffle(links)`` and one
    ``rng.randrange(len(parent))`` per candidate parent, with no Python frame
    per draw."""
    parent = parent.copy()
    # bounded draws inline CPython's `_randbelow_with_getrandbits(m)`, as the
    # generator's do: take m's bit length in bits and draw again while the
    # result is >= m (tests/test_properties.py checks the stream against a
    # reference that makes the public calls)
    getrandbits, n = rng.getrandbits, len(parent)
    if shuffle:
        links = links.copy()
        # `random.shuffle`'s loop: swap each position, from the last down to
        # the second, with a position drawn below it or at it
        for i in range(len(links) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            links[i], links[j] = links[j], links[i]
    k = n.bit_length()
    for child in links[: int(fraction * len(links) + 0.5)]:
        # with the child's parent set to -2 for the draws, a walk up from a
        # candidate ends at -1 at the root and at -2 through the child
        parent[child] = up = -2
        while up != -1:
            candidate = getrandbits(k)
            while candidate >= n:
                candidate = getrandbits(k)
            up = candidate
            while up >= 0:
                up = parent[up]
        parent[child] = candidate
    return parent


def rewire(h: Hierarchy, fraction: float, order: str, rng: random.Random) -> Hierarchy:
    """Rewire round(fraction * n_edges) links of a tree, half-up rounding.

    A rewired link keeps its child; the new parent is drawn uniformly from the
    tags that are neither the child nor inside the child's current subtree, so
    the result stays a single-parent acyclic tree. A drawn tag qualifies when
    its chain of parents reaches the root without meeting the child; other
    draws are redrawn. Link order "leaf-first" processes deepest children
    first, "top-first" shallowest first (depths frozen from the input tree,
    ties by tag), "random" shuffles with `rng`. The work runs on a parent
    list over tag positions; `decay_curve` calls the same kernel per cell.
    """
    parent, links = _rewire_plan(h, order)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    parent = _rewire_parents(parent, links, fraction, rng, order == "random")
    return Hierarchy.from_parents(h.tags, parent)
