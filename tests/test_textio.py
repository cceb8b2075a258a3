"""The shared line format: both readers against one reference, and
byte-order marks.

`record_blocks` (the objects-file fast path) and `record_lines` (every other
reader) implement the record rule separately, so the property runs both on
random texts at several block sizes and requires the same record lines as a
reference that splits the decoded text at universal newlines. A leading
byte-order mark must leave every input, and every UTF-8 fault message,
exactly as it is without the mark.
"""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiertag import textio
from hiertag.cli import main
from hiertag.corpus import CorpusFormatError, load_corpus
from hiertag.hierarchy import HierarchyFormatError, load_hierarchy
from hiertag.textio import TextFormatError, record_blocks, record_lines

BOM = "\ufeff"

# blanks, '#', a non-ASCII letter, and characters that splitlines() breaks
# on and str.isspace() accepts, which must stay inside a field
CHARS = "ab#\xe9 \t\x0b\x0c\x1c\x85\u2028\u2029" + BOM


def reference_records(text):
    """(line number, fields) of each record of `text` as read from a file."""
    text = text.removeprefix(BOM).replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [
        (lineno, line.split("\t"))
        for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


@st.composite
def texts(draw):
    """A file's text: an optional byte-order mark, lines from `CHARS` with
    mixed line endings, and an optional final line ending."""
    lines = draw(st.lists(st.text(CHARS, max_size=6), max_size=10))
    n = len(lines)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=n, max_size=n))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return draw(st.sampled_from(["", BOM])) + "".join(map(str.__add__, lines, ends))


@pytest.mark.parametrize("block", [1, 2, 3, 7, textio.BLOCK_CHARS])
@settings(deadline=None, max_examples=150)
@given(text=texts())
@example(text=BOM + "# comment\r\na\tb\r\n \t#x\n\x0c\n\x85a b")
@example(text=BOM)
def test_both_readers_return_the_reference_records(tmp_path_factory, block, text):
    path = str(tmp_path_factory.mktemp("text") / "file.tsv")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    expected = reference_records(text)
    assert list(record_lines(path, TextFormatError)) == expected
    with mock.patch.object(textio, "BLOCK_CHARS", block):
        rows = [row for rows in record_blocks(path, TextFormatError) for row in rows]
    assert rows == ["\t".join(fields) for _, fields in expected]


def _write_pair(tmp_path, text):
    """The same text written without and with a leading byte-order mark."""
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes((BOM + text).encode("utf-8"))
    return str(plain), str(marked)


@pytest.mark.parametrize("with_ids", [False, True])
@pytest.mark.parametrize("header", ["", "# objects\n", "#\n\n"])
def test_objects_file_with_a_bom_loads_like_one_without(tmp_path, header, with_ids):
    body = "a\tb\nb\tc\r\n\na\n"
    if with_ids:
        body = "".join(f"o{k}\t{line}\n" for k, line in enumerate(body.split("\n")) if line)
    plain, marked = _write_pair(tmp_path, header + body)
    corpus = load_corpus(plain, with_ids=with_ids)
    assert corpus.names == ("a", "b", "c")
    assert load_corpus(marked, with_ids=with_ids) == corpus


@pytest.mark.parametrize("header", ["", "# comment\n", " \n# c\n"])
def test_hierarchy_file_with_a_bom_loads_like_one_without(tmp_path, header):
    plain, marked = _write_pair(tmp_path, header + "a\tb\na\tc\nd\n")
    h = load_hierarchy(plain)
    assert h.tags == ("a", "b", "c", "d")
    assert load_hierarchy(marked) == h


def test_manifest_with_a_bom_replays_like_one_without(tmp_path, capsys):
    # argv first, so the mark would otherwise hide the only line replay reads
    plain, marked = _write_pair(tmp_path, "argv\ttree\t--levels\t2\nsubcommand\ttree\n")
    assert main(["--manifest", plain]) == 0
    expected = capsys.readouterr()
    assert main(["--manifest", marked]) == 0
    got = capsys.readouterr()
    assert got.out == expected.out == "1\t2\n1\t3\n"
    assert [r for r in got.err.splitlines() if not r.startswith("duration_s\t")] == [
        r for r in expected.err.splitlines() if not r.startswith("duration_s\t")
    ]


@pytest.mark.parametrize("kind", ["objects", "hierarchy", "manifest"])
@pytest.mark.parametrize(
    "content",
    [b"a\xff\tb\n", b"# c\na\tb\r\nc\t\xe9d\n", b"a\tb\n\n\xc3\n"],
    ids=["line-1", "line-3", "last-line"],
)
def test_a_bom_leaves_utf8_fault_messages_unchanged(tmp_path, capsys, kind, content):
    messages = []
    for name, prefix in (("plain.tsv", b""), ("marked.tsv", BOM.encode("utf-8"))):
        path = tmp_path / name
        path.write_bytes(prefix + content)
        if kind == "manifest":
            assert main(["--manifest", str(path)]) == 1
            message = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        else:
            read, error = {
                "objects": (load_corpus, CorpusFormatError),
                "hierarchy": (load_hierarchy, HierarchyFormatError),
            }[kind]
            with pytest.raises(error) as exc:
                read(str(path))
            message = str(exc.value)
        assert message.startswith(f"{path}: line ")
        messages.append(message.removeprefix(f"{path}: "))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("block", [1, textio.BLOCK_CHARS])
def test_a_utf8_fault_outranks_an_earlier_malformed_object(tmp_path, block):
    # the bad byte lies past text mode's first 8 KiB read, so with one-character
    # blocks the empty field is interned before the fault is met
    path = tmp_path / "objects.tsv"
    path.write_bytes(b"a\t\tb\n" + b"c\n" * 5000 + b"\xff\n")
    with mock.patch.object(textio, "BLOCK_CHARS", block), pytest.raises(CorpusFormatError) as exc:
        load_corpus(str(path))
    assert str(exc.value).startswith(f"{path}: line 5002: 'utf-8' codec can't decode byte 0xff")
