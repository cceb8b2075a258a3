"""Tag-object corpora and co-occurrence counting.

An objects file holds one object per record of the `textio` format, its
tags as the fields. Duplicate tags within a record collapse (set
semantics), so a pair of tags is counted at most once per object. With
`with_ids=True` the first field of each record is an opaque object id and
is skipped.

A corpus is the object x tag incidence matrix X (X[o, i] = 1 iff object o
carries tag i), held as CSR arrays. Every way in (a file, object lists, the
generator) goes through one array core that takes objects a block at a
time: it interns a block's tags in one pass, then sorts and deduplicates
the tag ids of all its objects in one array sort. The co-occurrence network
is one symmetric CSR matrix of integer counts, computed as the off-diagonal
part of X^T X.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .textio import TextFormatError, record_blocks, record_lines

# objects per block of object lists
BLOCK_OBJECTS = 1 << 12


class CorpusFormatError(TextFormatError):
    """A malformed objects file or object list."""


@dataclass(frozen=True, eq=False)
class TagCorpus:
    """Interned corpus: the object x tag incidence matrix X as CSR arrays.

    Tag names map to dense ids in first-appearance order. Object o carries
    the tag ids `tags[indptr[o]:indptr[o + 1]]`, ascending and distinct (both
    int64, read-only). `freq[i]` is the number of objects carrying tag i
    (Q_i), `n_objects` is Q.
    """

    names: tuple[str, ...]
    indptr: np.ndarray
    tags: np.ndarray
    freq: tuple[int, ...]

    @property
    def n_tags(self) -> int:
        return len(self.names)

    @property
    def n_objects(self) -> int:
        return len(self.indptr) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagCorpus):
            return NotImplemented
        return (
            self.names == other.names
            and self.freq == other.freq
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.tags, other.tags)
        )


class _Interner(dict):
    """Tag name -> dense id; looking up an unseen name assigns the next id."""

    def __missing__(self, tag: str) -> int:
        i = self[tag] = len(self)
        return i


def _corpus(blocks: Iterable[tuple[Iterable, np.ndarray]]) -> TagCorpus:
    """The array core: `blocks` yields (tokens, sizes) pairs, the tokens of
    consecutive objects back to back and each object's token count. Tokens
    are interned in first-appearance order, and a token repeated within an
    object counts once."""
    index = _Interner()
    lookup = index.__getitem__
    tag_parts, size_parts = [], []
    for tokens, sizes in blocks:
        if not sizes.all():
            raise CorpusFormatError("object with no tags")
        ids = np.fromiter(map(lookup, tokens), dtype=np.int64, count=sizes.sum())
        # one sort of (object, id) keys orders the ids of every object in the
        # block; equal neighbours are a tag repeated within one object
        n = len(index)
        key = np.repeat(np.arange(0, len(sizes) * n, n, dtype=np.int64), sizes) + ids
        key.sort()
        distinct = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=distinct[1:])
        obj, ids = np.divmod(key[distinct], n)
        tag_parts.append(ids)
        size_parts.append(np.bincount(obj, minlength=len(sizes)))
    if not size_parts:
        raise CorpusFormatError("zero objects")
    sizes = np.concatenate(size_parts)
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    tags = np.concatenate(tag_parts)
    indptr.flags.writeable = tags.flags.writeable = False
    freq = np.bincount(tags, minlength=len(index))
    return TagCorpus(tuple(index), indptr, tags, tuple(freq.tolist()))


def _list_blocks(object_tags: Iterable[Sequence]) -> Iterator[tuple[Iterable, np.ndarray]]:
    it = iter(object_tags)
    while block := list(islice(it, BLOCK_OBJECTS)):
        sizes = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        yield chain.from_iterable(block), sizes


def _file_blocks(path: str, with_ids: bool) -> Iterator[tuple[Iterable, np.ndarray]]:
    for rows in record_blocks(path, CorpusFormatError):
        if with_ids:
            # a row with only an id leaves the tag "", which load_corpus reports
            rows = [r.partition("\t")[2] for r in rows]
        sizes = np.fromiter(map(str.count, rows, repeat("\t")), dtype=np.int64, count=len(rows))
        yield "\t".join(rows).split("\t"), sizes + 1


def corpus_from_object_lists(object_tags: Iterable[Sequence[str]]) -> TagCorpus:
    return _corpus(_list_blocks(object_tags))


def load_corpus(path: str, with_ids: bool = False) -> TagCorpus:
    """Read an objects file; errors name the file and, where there is one, the line."""
    try:
        corpus = _corpus(_file_blocks(path, with_ids))
    except CorpusFormatError as exc:
        if exc.path is not None:  # a UTF-8 fault, already numbered
            raise
        corpus = None
    # an empty field interns as the tag ""; the file is only re-read to
    # number the offending line, so well-formed input is read once
    if corpus is None or "" in corpus.names:
        raise _first_malformed_line(path, with_ids)
    return corpus


def _first_malformed_line(path: str, with_ids: bool) -> CorpusFormatError:
    for lineno, fields in record_lines(path, CorpusFormatError):
        tags = fields[1 if with_ids else 0 :]
        if not tags:
            return CorpusFormatError("object with no tags", lineno, path)
        if "" in tags:
            return CorpusFormatError("empty tag field", lineno, path)
    return CorpusFormatError("zero objects", path=path)


@dataclass(frozen=True, eq=False)
class CooccurrenceNetwork:
    """Undirected co-occurrence counts Q_ij plus the corpus marginals Q, Q_i.

    The counts form one symmetric CSR matrix without a diagonal: tag i's
    partners are `indices[indptr[i]:indptr[i + 1]]`, in ascending order, and
    `weights` holds Q_ij at the same positions. Pairs with Q_ij = 0 are not
    stored, and j is a partner of i iff i is a partner of j, so every pair is
    stored twice. Kernels work on these arrays as a whole; `adj` is a
    dict-per-tag view built on first use, for inspection.
    """

    names: tuple[str, ...]
    q_total: int
    freq: tuple[int, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n_tags(self) -> int:
        return len(self.names)

    @property
    def n_pairs(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def rows(self) -> np.ndarray:
        """The row (tag) of every stored count, aligned with `indices`."""
        return np.repeat(np.arange(self.n_tags), np.diff(self.indptr))

    @cached_property
    def adj(self) -> tuple[Mapping[int, int], ...]:
        """`adj[i]` maps each partner j of tag i to Q_ij (read-only)."""
        ptr = self.indptr.tolist()
        cols = self.indices.tolist()
        ws = self.weights.tolist()
        return tuple(
            MappingProxyType(dict(zip(cols[a:b], ws[a:b]))) for a, b in zip(ptr, ptr[1:])
        )

    def weight(self, i: int, j: int) -> int:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + np.searchsorted(self.indices[lo:hi], j)
        return int(self.weights[k]) if k < hi and self.indices[k] == j else 0

    def masked(self, keep: np.ndarray) -> "CooccurrenceNetwork":
        """Same tags and marginals, only the stored counts where the symmetric
        mask `keep` is set (e.g. after pruning)."""
        # a row's new pointer is the number of kept entries before its old one
        before = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=before[1:])
        return CooccurrenceNetwork(
            self.names,
            self.q_total,
            self.freq,
            before[self.indptr],
            self.indices[keep],
            self.weights[keep],
        )


def build_cooccurrence(corpus: TagCorpus) -> CooccurrenceNetwork:
    """Count Q_ij for every tag pair as the off-diagonal of X^T X."""
    n = corpus.n_tags
    x = sparse.csr_matrix(
        (np.ones(len(corpus.tags), dtype=np.int64), corpus.tags, corpus.indptr),
        shape=(corpus.n_objects, n),
    )
    counts = (x.T @ x).tocsr()
    counts.sort_indices()
    full = CooccurrenceNetwork(
        corpus.names,
        corpus.n_objects,
        corpus.freq,
        counts.indptr.astype(np.int64),
        counts.indices.astype(np.int64),
        counts.data,
    )
    return full.masked(full.indices != full.rows)
