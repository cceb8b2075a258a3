"""Tag-object corpora and co-occurrence counting.

Objects files are UTF-8 text: one object per line, tags separated by TABs,
'#' comment lines and blank lines ignored. Duplicate tags within a line
collapse (set semantics), so a pair of tags is counted at most once per
object. With `with_ids=True` the first field of each line is an opaque
object id and is skipped.

The co-occurrence network is one symmetric CSR matrix of integer counts,
computed as the off-diagonal part of X^T X, where X is the object x tag
incidence matrix (X[o, i] = 1 iff object o carries tag i).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .textio import TextFormatError


class CorpusFormatError(TextFormatError):
    """A malformed objects file or object list."""


@dataclass(frozen=True)
class TagCorpus:
    """Interned corpus: tag names map to dense ids in first-appearance order.

    Objects are stored as sorted tuples of tag ids; `freq[i]` is the number of
    objects carrying tag i (Q_i), `n_objects` is Q.
    """

    names: tuple[str, ...]
    objects: tuple[tuple[int, ...], ...]
    freq: tuple[int, ...]

    @property
    def n_tags(self) -> int:
        return len(self.names)

    @property
    def n_objects(self) -> int:
        return len(self.objects)


class _Interner(dict):
    """Tag name -> dense id; looking up an unseen name assigns the next id."""

    def __missing__(self, tag: str) -> int:
        i = self[tag] = len(self)
        return i


def corpus_from_object_lists(object_tags: Iterable[Sequence[str]]) -> TagCorpus:
    index = _Interner()
    lookup = index.__getitem__
    objects = [tuple(sorted({*map(lookup, tags)})) for tags in object_tags]
    if not objects:
        raise CorpusFormatError("zero objects")
    if not all(objects):
        raise CorpusFormatError("object with no tags")
    ids = np.fromiter(chain.from_iterable(objects), dtype=np.intp)
    freq = tuple(np.bincount(ids, minlength=len(index)).tolist())
    return TagCorpus(tuple(index), tuple(objects), freq)


def load_corpus(path: str, with_ids: bool = False) -> TagCorpus:
    """Read an objects file; errors name the file and, where there is one, the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = (
                line.rstrip("\n").split("\t")
                for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            )
            corpus = corpus_from_object_lists((r[1:] for r in rows) if with_ids else rows)
    except UnicodeDecodeError:
        raise CorpusFormatError.undecodable(path) from None
    except CorpusFormatError:
        corpus = None
    # an empty field interns as the tag ""; the file is only re-read to
    # number the offending line, so well-formed input is read once
    if corpus is None or "" in corpus.names:
        raise _first_malformed_line(path, with_ids)
    return corpus


def _first_malformed_line(path: str, with_ids: bool) -> CorpusFormatError:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")[1 if with_ids else 0 :]
            if not fields:
                return CorpusFormatError("object with no tags", lineno, path)
            if "" in fields:
                return CorpusFormatError("empty tag field", lineno, path)
    return CorpusFormatError("zero objects", path=path)


def _kept_indptr(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row pointers of a CSR matrix after dropping the entries not in `keep`."""
    before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=before[1:])
    return before[indptr]


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

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Every pair once, as (i, j, Q_ij) with i < j, ordered by i then j."""
        upper = self.indices > self.rows
        return zip(
            self.rows[upper].tolist(), self.indices[upper].tolist(), self.weights[upper].tolist()
        )

    def masked(self, keep: np.ndarray) -> "CooccurrenceNetwork":
        """Same tags and marginals, only the stored counts where the symmetric
        mask `keep` is set (e.g. after pruning)."""
        return CooccurrenceNetwork(
            self.names,
            self.q_total,
            self.freq,
            _kept_indptr(self.indptr, keep),
            self.indices[keep],
            self.weights[keep],
        )


def build_cooccurrence(corpus: TagCorpus) -> CooccurrenceNetwork:
    """Count Q_ij for every tag pair as the off-diagonal of X^T X."""
    n = corpus.n_tags
    starts = np.zeros(corpus.n_objects + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, corpus.objects), dtype=np.int64), out=starts[1:])
    tags = np.fromiter(chain.from_iterable(corpus.objects), dtype=np.int64)
    x = sparse.csr_matrix(
        (np.ones(len(tags), dtype=np.int64), tags, starts), shape=(corpus.n_objects, n)
    )
    counts = (x.T @ x).tocsr()
    counts.sort_indices()
    indptr = counts.indptr.astype(np.int64)
    indices = counts.indices.astype(np.int64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off_diagonal = indices != rows
    return CooccurrenceNetwork(
        corpus.names,
        corpus.n_objects,
        corpus.freq,
        _kept_indptr(indptr, off_diagonal),
        indices[off_diagonal],
        counts.data[off_diagonal].astype(np.int64),
    )
