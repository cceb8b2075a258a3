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
the tag ids of all its objects in one array sort. A file's blocks come from
`textio.record_blocks`, which keeps the record lines of a block (a line
that starts with a byte that certainly begins a record goes unchecked)
and counts each line's TABs: the tokens are one split of the block
at TABs and newlines, and each object's size is its TAB count plus one.
With ids, each line's first token is dropped by its index. Once a block
is interned, an interned tag "" means an empty field or a line with only an
id, and the block names its first faulty line from its line numbers; the
reader itself names a line that is not UTF-8 once the lines before it are
checked, so an error always names the first faulty line of the file. The
co-occurrence network is one symmetric CSR matrix of integer counts,
counted from the pairs of tags each object carries, a block of about
PAIR_BLOCK pairs at a time.

Memory: a block's pair keys i * n + j are built by in-place arithmetic
(the partner ids are gathered into their own offsets' buffer), then sorted
and counted in place. `_symmetric` stores the distinct pairs in both their
rows: each pair's copy i < j goes to its row in key order, and its mirror
copy follows one argsort of the mirror keys j * n + i, gathered into spent
buffers. Each temporary goes once its last use has passed, so on the
paper-scale corpus counting peaks at 1.7 times the bytes of the arrays it
returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, islice
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .textio import TextFormatError, record_blocks

# objects per block of object lists
BLOCK_OBJECTS = 1 << 12
# tag pairs counted at once by build_cooccurrence
PAIR_BLOCK = 1 << 21


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


# (tokens, sizes) pairs: the tokens of consecutive objects back to back and
# each object's token count
_Blocks = Iterable[tuple[Iterable, np.ndarray]]


class _Interner(dict):
    """Tag name -> dense id; looking up an unseen name assigns the next id."""

    def __missing__(self, tag: str) -> int:
        i = self[tag] = len(self)
        return i


def _corpus(blocks: _Blocks, index: _Interner | None = None, path: str | None = None) -> TagCorpus:
    """The array core: `blocks` yields (tokens, sizes) pairs, the tokens of
    consecutive objects back to back and each object's token count. Tokens
    are interned into `index` (a new one by default) in first-appearance
    order, each block before the next is asked for, and a token repeated
    within an object counts once. `path` names the file the blocks come
    from."""
    index = _Interner() if index is None else index
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
        obj, ids = np.divmod(key[_run_heads(key)], n)
        tag_parts.append(ids)
        size_parts.append(np.bincount(obj, minlength=len(sizes)))
    if not size_parts:
        raise CorpusFormatError("zero objects", path=path)
    sizes = np.concatenate(size_parts)
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    tags = np.concatenate(tag_parts)
    indptr.flags.writeable = tags.flags.writeable = False
    freq = np.bincount(tags, minlength=len(index))
    return TagCorpus(tuple(index), indptr, tags, tuple(freq.tolist()))


def _list_blocks(object_tags: Iterable[Sequence]) -> _Blocks:
    it = iter(object_tags)
    while block := list(islice(it, BLOCK_OBJECTS)):
        sizes = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        yield chain.from_iterable(block), sizes


def _file_blocks(path: str, with_ids: bool, index: _Interner) -> _Blocks:
    for text, tabs, lines in record_blocks(path, CorpusFormatError):
        tokens = text.replace("\n", "\t").split("\t")
        if not with_ids:
            yield tokens, tabs + 1
        else:
            # each line's first token is its id; a line with only an id
            # keeps the tag ""
            first = np.cumsum(tabs + 1) - (tabs + 1)
            for i in first[tabs == 0].tolist():
                tokens[i] = ""
            keep = np.ones(len(tokens), dtype=bool)
            keep[first[tabs > 0]] = False
            yield compress(tokens, keep.tolist()), np.maximum(tabs, 1)
        # the block is interned into `index` now: the tag "" is an empty
        # field or a line with only an id
        if "" in index:
            raise CorpusFormatError.first_of(path, text, lines, partial(_line_fault, with_ids))


def _line_fault(with_ids: bool, fields: list[str]) -> str | None:
    """What is wrong with an objects file record's fields, if anything."""
    tags = fields[with_ids:]
    if not tags:
        return "object with no tags"
    if "" in tags:
        return "empty tag field"
    return None


def corpus_from_object_lists(object_tags: Iterable[Sequence[str]]) -> TagCorpus:
    return _corpus(_list_blocks(object_tags))


def load_corpus(path: str, with_ids: bool = False) -> TagCorpus:
    """Read an objects file; errors name the file and, where there is one,
    its first faulty line."""
    index = _Interner()
    return _corpus(_file_blocks(path, with_ids, index), index, path)


@dataclass(frozen=True, eq=False)
class CooccurrenceNetwork:
    """Undirected co-occurrence counts Q_ij plus the corpus marginals Q, Q_i.

    The counts form one symmetric CSR matrix without a diagonal: tag i's
    partners are `indices[indptr[i]:indptr[i + 1]]`, in ascending order, and
    `weights` holds Q_ij at the same positions. Pairs with Q_ij = 0 are not
    stored, and j is a partner of i iff i is a partner of j, so every pair is
    stored twice. A subset from `masked` need not be symmetric, and its
    `n_pairs` is then not a pair count. Kernels work on these arrays as a
    whole; `adj` is a dict-per-tag view built on first use, for inspection.
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

    def masked(self, keep: np.ndarray) -> "CooccurrenceNetwork":
        """Same tags and marginals, only the stored counts where the mask
        `keep` is set (e.g. after pruning). A mask that keeps (i, j) but not
        (j, i) gives rows that are no longer symmetric, and `n_pairs` is then
        not a pair count."""
        # a row's new pointer is the number of kept entries before its old one
        return CooccurrenceNetwork(
            self.names,
            self.q_total,
            self.freq,
            np.searchsorted(np.flatnonzero(keep), self.indptr),
            self.indices[keep],
            self.weights[keep],
        )


def expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions `starts[k]`, ..., `starts[k] + lengths[k] - 1` of every
    run k, back to back."""
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    offsets += np.arange(len(offsets))
    return offsets


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Sort `keys` in place; the mask of the first key of each run of equal keys."""
    keys.sort()
    heads = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


def _add_counts(
    keys: np.ndarray, counts: np.ndarray, more_keys: np.ndarray, more_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add `more_counts` into `counts` (in place) by key, both key arrays
    ascending and distinct; a key not yet in `keys` is inserted in order."""
    at = np.searchsorted(keys, more_keys)
    seen = at < len(keys)
    seen[seen] = keys[at[seen]] == more_keys[seen]
    counts[at[seen]] += more_counts[seen]
    new = ~seen
    return np.insert(keys, at[new], more_keys[new]), np.insert(counts, at[new], more_counts[new])


def _pair_keys(tags: np.ndarray, ptr: np.ndarray, n: int) -> np.ndarray:
    """The key i * n + j of every pair i < j that an object carries, for the
    objects whose tag ids `tags[ptr[0]:ptr[-1]]` the pointers `ptr` split."""
    # entry p pairs with the entries after it in its object; an object's tag
    # ids ascend, so each of its pairs comes once, as i < j
    nxt = np.arange(ptr[0] + 1, ptr[-1] + 1)
    after = np.repeat(ptr[1:], np.diff(ptr))
    after -= nxt
    cols = expand_runs(nxt, after)
    del nxt
    # the partner ids are gathered into the offsets' own buffer: every offset
    # is in range, so "clip" changes nothing but lets take write unbuffered
    np.take(tags, cols, out=cols, mode="clip")
    keys = np.repeat(tags[ptr[0] : ptr[-1]], after)
    keys *= n
    keys += cols
    return keys


def _pair_counts(corpus: TagCorpus) -> tuple[np.ndarray, np.ndarray]:
    """The keys i * n + j (i < j) of the pairs the objects carry, ascending,
    and how many objects carry each."""
    n, tags, indptr = corpus.n_tags, corpus.tags, corpus.indptr
    # the objects go in blocks of about PAIR_BLOCK pairs, so a corpus of long
    # objects never holds all its pair keys at once
    sizes = np.diff(indptr)
    ends = np.cumsum(sizes * (sizes - 1) // 2)
    cuts = np.searchsorted(ends, np.arange(PAIR_BLOCK, ends[-1] if len(ends) else 0, PAIR_BLOCK))
    pairs = None
    for a, b in zip([0, *cuts], [*cuts, len(sizes)]):
        keys = _pair_keys(tags, indptr[a : b + 1], n)
        heads = np.flatnonzero(_run_heads(keys))
        c = np.diff(heads, append=len(keys))
        keys = keys[heads]
        if pairs is not None:
            keys, c = _add_counts(pairs, counts, keys, c)
        pairs, counts = keys, c
    return pairs, counts


def _symmetric(
    names: tuple[str, ...], q_total: int, freq: tuple[int, ...], keys: np.ndarray, counts: np.ndarray
) -> CooccurrenceNetwork:
    """The network that stores each pair i < j in both its rows, from the
    pairs' keys i * n + j, ascending (overwritten), and their counts."""
    n = len(names)
    # row r holds its partners below r, from the pairs (i, r) in ascending i,
    # then those above r, from the pairs (r, j): the pairs' own order
    cols = keys % n
    rows = keys
    rows //= n  # in place: the keys are spent
    below, above = np.bincount(cols, minlength=n), np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above, out=indptr[1:])
    upper = np.repeat(np.tile([False, True], n), np.column_stack([below, above]).ravel())
    # the mirror copies in CSR order are the pairs ordered by (j, i)
    mirror = cols * n
    mirror += rows
    order = np.argsort(mirror)
    del mirror
    indices = np.empty(len(upper), dtype=np.int64)
    indices[upper] = cols
    lower = ~upper
    # the mirror copies' partners and counts are gathered into the buffers of
    # cols and rows, whose contents are spent: every position is in range, so
    # "clip" changes nothing but lets take write unbuffered
    indices[lower] = np.take(rows, order, out=cols, mode="clip")
    del cols
    mirrored = np.take(counts, order, out=rows, mode="clip")
    del order
    weights = np.empty(len(upper), dtype=counts.dtype)
    weights[upper] = counts
    weights[lower] = mirrored
    return CooccurrenceNetwork(names, q_total, freq, indptr, indices, weights)


def build_cooccurrence(corpus: TagCorpus) -> CooccurrenceNetwork:
    """Count Q_ij for every tag pair from the pairs each object carries."""
    return _symmetric(corpus.names, corpus.n_objects, corpus.freq, *_pair_counts(corpus))
