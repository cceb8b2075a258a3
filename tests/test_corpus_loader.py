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
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hiertag import corpus as corpus_module
from hiertag import textio
from hiertag.corpus import CorpusFormatError, TagCorpus, corpus_from_object_lists, load_corpus
from line_reference import objects_rule, read_records


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
        raise _reference_fault(path, with_ids)
    return corpus


def _reference_fault(path, with_ids):
    """The error of the first faulty line `line_reference` finds, or of a
    file without objects."""
    with open(path, "rb") as fh:
        fault = read_records(fh.read(), objects_rule(with_ids))[1]
    if fault is None:
        return CorpusFormatError("zero objects", path=path)
    return CorpusFormatError(fault[1], fault[0], path)


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


# The block reader against the line reference: `record_blocks` reads a
# block's line structure from its bytes and applies the record rule only to
# blocks with a line that may not be a record, so `load_corpus` must give
# what `corpus_from_object_lists` gives over the records
# `line_reference.read_records` keeps, or name the same first faulty line.
# Tags hold '#', start with a non-ASCII letter or a non-ASCII blank; blank
# lines are drawn from every kind of whitespace `str.lstrip` removes
LINE_TAGS = ["a", "b", "b#", "x#y", "\xe9", "\u3000c", "\x85d", ""]
SPACES = " \t\x0b\x0c\x1c\x85\xa0\u3000"
LINE_ENDS = ["\n", "\r\n", "\r"]


def objects_from_reference_records(path, with_ids):
    with open(path, "rb") as fh:
        records, fault = read_records(fh.read(), objects_rule(with_ids))
    if fault is not None:
        raise CorpusFormatError(fault[1], fault[0], path)
    if not records:
        raise CorpusFormatError("zero objects", path=path)
    return corpus_from_object_lists(fields[1 if with_ids else 0 :] for _, fields in records)


@st.composite
def mixed_lines(draw, with_ids):
    """One line of an objects file, without its line end."""
    kind = draw(st.sampled_from(["record", "record", "record", "comment", "blank", "lead"]))
    if kind == "comment":
        return draw(st.sampled_from(["", " ", "\t", " \x0c"])) + "#" + draw(st.text("a#\t ", max_size=4))
    if kind == "blank":
        return draw(st.text(SPACES, max_size=3))
    fields = draw(st.lists(st.sampled_from(LINE_TAGS), min_size=1, max_size=4))
    if with_ids and draw(st.integers(0, 7)):
        fields = [f"o{draw(st.integers(0, 9))}", *fields]
    line = "\t".join(fields)
    # a leading space or non-ASCII letter makes the line take the rule
    return draw(st.sampled_from([" ", "\xe9", "\xa0"])) + line if kind == "lead" else line


@st.composite
def mixed_object_files(draw):
    """(text, with_ids): an optional byte-order mark, lines with mixed line
    ends and an optional final line end."""
    with_ids = draw(st.booleans())
    lines = draw(st.lists(mixed_lines(with_ids), max_size=12))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(map(str.__add__, lines, ends)), with_ids


def _checked_lines(monkeypatch):
    """The lines the record rule is asked about from now on."""
    seen = []
    rule = textio._is_record

    def spy(line):
        seen.append(line)
        return rule(line)

    monkeypatch.setattr(textio, "_is_record", spy)
    return seen


@settings(deadline=None, max_examples=400)
@given(mixed_object_files(), st.integers(1, 7))
# one blank line inside a long block of certain records, after non-ASCII
# tags, so that only that line takes the rule and the block is cut around it
@example(("b\t\xe9\n" * 300 + "\n" + "c\td\n" * 300, False), textio.BLOCK_CHARS)
def test_block_reader_loads_what_the_line_reader_reads(tmp_path_factory, file, block):
    text, with_ids = file
    path = str(tmp_path_factory.mktemp("corpus") / "objects.tsv")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    expected = _outcome(objects_from_reference_records, path, with_ids)
    with mock.patch.object(textio, "BLOCK_CHARS", block), pytest.MonkeyPatch.context() as mp:
        checked = _checked_lines(mp)
        got = _outcome(load_corpus, path, with_ids)
    assert got == expected
    if got[0] != "error":
        with open(path, encoding="utf-8-sig") as fh:
            n_lines = sum(1 for _ in fh)
        # a line the rule never saw was in a block that skipped it
        event(f"filtered block: {bool(checked)}; unfiltered block: {len(checked) < n_lines}")


@pytest.mark.parametrize("block, checked", [(1, ["# c", " d"]), (textio.BLOCK_CHARS, ["# c", " d"])])
def test_only_a_block_with_a_possible_non_record_takes_the_rule(
    tmp_path, monkeypatch, block, checked
):
    # "a\tb" and "e" certainly are records and skip the rule, "# c" and " d"
    # do not, whether each line is a block of its own (one-character blocks)
    # or the lines up to the last line end share one block; "e", after that
    # line end, is a block of its own
    path = tmp_path / "objects.tsv"
    path.write_bytes(b"a\tb\n# c\n d\r\ne")
    monkeypatch.setattr(textio, "BLOCK_CHARS", block)
    seen = _checked_lines(monkeypatch)
    corpus = load_corpus(str(path))
    assert corpus.names == ("a", "b", " d", "e")
    assert corpus.indptr.tolist() == [0, 2, 3, 4]
    assert seen == checked


# one line of each kind of line fault, with ids and without; a UTF-8 fault
# is a line too
FAULTS = {
    False: {"empty": [b"a\t\tb", b"\tc", b"b\t"], "utf-8": [b"a\t\xff", b"\xe9", b"# \xff"]},
    True: {
        "empty": [b"o\ta\t\tb", b"o\t\tc", b"o\tb\t"],
        "no tags": [b"o", b"\xc3\xa9"],
        "utf-8": [b"o\ta\xff", b"\xff\ta", b"# \xff"],
    },
}


@st.composite
def two_fault_files(draw):
    """(bytes, with_ids, first kind): a well-formed objects file with two
    faulty lines of different kinds inserted, in either order."""
    with_ids = draw(st.booleans())
    kinds = draw(st.permutations(list(FAULTS[with_ids])))[:2]
    lines = [
        line.encode("utf-8")
        for line in draw(st.lists(mixed_lines(with_ids), max_size=8))
        if read_records(line.encode("utf-8"), objects_rule(with_ids))[1] is None
    ]
    i = draw(st.integers(0, len(lines)))
    j = draw(st.integers(i, len(lines)))
    first, second = (draw(st.sampled_from(FAULTS[with_ids][kind])) for kind in kinds)
    lines[i:j] = [first, *lines[i:j], second]
    n = len(lines)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=n, max_size=n))
    return b"".join(map(bytes.__add__, lines, ends)), with_ids, kinds[0]


@settings(deadline=None, max_examples=300)
@given(file=two_fault_files(), block=st.sampled_from([*range(1, 8), textio.BLOCK_CHARS]))
def test_of_two_faults_the_first_line_is_named(tmp_path_factory, file, block):
    data, with_ids, kind = file
    path = str(tmp_path_factory.mktemp("corpus") / "objects.tsv")
    with open(path, "wb") as fh:
        fh.write(data)
    expected = _outcome(objects_from_reference_records, path, with_ids)
    # the reference names the fault inserted first
    assert ("can't decode" in expected[1]) == (kind == "utf-8")
    with mock.patch.object(textio, "BLOCK_CHARS", block):
        assert _outcome(load_corpus, path, with_ids) == expected
    event(kind)
