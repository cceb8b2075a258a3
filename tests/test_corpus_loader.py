"""The array corpus loader against a tuple-per-object reference.

`reference_*` below is the loader the package used while `TagCorpus` held
one sorted tuple of tag ids per object: it streams lines, interns every tag
through a dict and collapses each object with a set. The array loader reads
blocks of text, interns whole blocks and sorts all objects at once, so the
properties check that both give the same names, frequencies and incidence
arrays, or fail with the same message on the same line. The block sizes are drawn too,
so lines, CRLF pairs and objects fall across block boundaries.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertag import corpus as corpus_module
from hiertag import textio
from hiertag.corpus import CorpusFormatError, TagCorpus, corpus_from_object_lists, load_corpus


class _Interner(dict):
    def __missing__(self, tag):
        i = self[tag] = len(self)
        return i


def reference_from_object_lists(object_tags):
    index = _Interner()
    lookup = index.__getitem__
    objects = [tuple(sorted({*map(lookup, tags)})) for tags in object_tags]
    if not objects:
        raise CorpusFormatError("zero objects")
    if not all(objects):
        raise CorpusFormatError("object with no tags")
    freq = [0] * len(index)
    indptr = [0]
    for obj in objects:
        indptr.append(indptr[-1] + len(obj))
        for i in obj:
            freq[i] += 1
    return tuple(index), indptr, [i for obj in objects for i in obj], tuple(freq)


def reference_load(path, with_ids=False):
    try:
        with open(path, encoding="utf-8") as fh:
            rows = (
                line.rstrip("\n").split("\t")
                for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            )
            corpus = reference_from_object_lists((r[1:] for r in rows) if with_ids else rows)
    except CorpusFormatError:
        corpus = None
    if corpus is None or "" in corpus[0]:
        raise reference_first_malformed_line(path, with_ids)
    return corpus


def reference_first_malformed_line(path, with_ids):
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


def _outcome(fn, *args):
    """(names, indptr, tags, freq) of a corpus, or the error's message and line."""
    try:
        corpus = fn(*args)
    except CorpusFormatError as exc:
        return ("error", str(exc), exc.line_number)
    if isinstance(corpus, TagCorpus):
        return corpus.names, corpus.indptr.tolist(), corpus.tags.tolist(), corpus.freq
    return corpus


# tags with characters that splitlines() breaks on but split("\n") keeps,
# a leading space, an inner '#', a leading '#' and a non-ASCII letter
TAGS = ["a", "b", "c", "x\x1cy", "p\x0bq", "l\u2028m", "n\u2029", "\x85z", " a", "b#", "#c", "\xe9"]
BLANKS = ["", " ", "\t", " \t ", "\x0b", "\x1c", "\u2028", "\x0c"]
COMMENTS = ["#", "# header", "  # indented", "\t#\ttab\tcomment"]


@st.composite
def object_files(draw):
    """The text of an objects file with comments, blank and whitespace-only
    lines, empty fields, repeated tags, mixed line endings and an optional
    final newline; lines may carry an object id first."""
    lines = draw(
        st.lists(
            st.one_of(
                st.sampled_from(BLANKS),
                st.sampled_from(COMMENTS),
                st.lists(st.sampled_from(TAGS + [""]), min_size=1, max_size=5).map("\t".join),
                st.lists(st.sampled_from(TAGS), min_size=1, max_size=5).map(
                    lambda tags: "obj\t" + "\t".join(tags)
                ),
            ),
            max_size=12,
        )
    )
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(deadline=None, max_examples=300)
@given(object_files(), st.booleans(), st.integers(1, 24))
def test_load_corpus_matches_the_reference(tmp_path_factory, text, with_ids, block):
    path = tmp_path_factory.mktemp("corpus") / "objects.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(reference_load, str(path), with_ids)
    with mock.patch.object(textio, "BLOCK_CHARS", block):
        got = _outcome(load_corpus, str(path), with_ids)
    assert got == expected


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.lists(st.sampled_from(TAGS + [""]), max_size=5), max_size=10),
    st.integers(1, 4),
)
def test_corpus_from_object_lists_matches_the_reference(objects, block):
    expected = _outcome(reference_from_object_lists, objects)
    with mock.patch.object(corpus_module, "BLOCK_OBJECTS", block):
        got = _outcome(corpus_from_object_lists, objects)
    assert got == expected


def test_crlf_split_across_blocks_is_one_line_break(tmp_path):
    path = tmp_path / "objects.tsv"
    path.write_bytes(b"a\tb\r\nb\tc\r\n\r\nc\r\n")
    for block in range(1, 16):
        with mock.patch.object(textio, "BLOCK_CHARS", block):
            corpus = load_corpus(str(path))
        assert corpus.names == ("a", "b", "c")
        assert corpus.indptr.tolist() == [0, 2, 4, 5]
        assert corpus.tags.tolist() == [0, 1, 1, 2, 2]


def test_corpus_arrays_are_read_only_csr():
    corpus = corpus_from_object_lists([["b", "a", "b"], ["c"], ["a", "c"]])
    assert corpus.names == ("b", "a", "c")
    assert corpus.indptr.tolist() == [0, 2, 3, 5]
    assert corpus.tags.tolist() == [0, 1, 2, 1, 2]
    assert corpus.indptr.dtype == corpus.tags.dtype == np.int64
    with pytest.raises(ValueError):
        corpus.tags[0] = 1
    assert corpus.freq == (1, 2, 2)


def test_corpora_compare_by_names_freq_and_arrays():
    a = corpus_from_object_lists([["a", "b"], ["b"]])
    assert a == corpus_from_object_lists([["a", "b", "a"], ["b"]])
    assert a != corpus_from_object_lists([["a", "b"], ["a"]])
    assert a != corpus_from_object_lists([["b", "a"], ["b"]])
    assert a != corpus_from_object_lists([["a", "b"], ["b"], ["b"]])
    assert a != (("a", "b"), ((0, 1), (1,)), (1, 2))
