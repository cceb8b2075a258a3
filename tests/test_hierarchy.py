from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hiertag import textio
from hiertag.hierarchy import (
    CycleError,
    Hierarchy,
    HierarchyFormatError,
    binary_tree,
    descendant_table,
    hierarchy_to_text,
    load_hierarchy,
    rewire,
    save_hierarchy,
)
from line_reference import hierarchy_rule, read_records


def test_load_edge_list(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("r\ta\nr\tb\n")
    h = load_hierarchy(path)
    assert h.n_tags == 3
    assert h.n_edges == 2
    assert h.roots == ("r",)


def test_round_trip(tmp_path):
    path = tmp_path / "h.tsv"
    h = Hierarchy(("a", "b", "c", "lonely"), (("a", "b"), ("b", "c")))
    save_hierarchy(h, path)
    assert load_hierarchy(path) == h


def test_comments_and_isolated_tags(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("# comment\na\tb\nfloating\n")
    h = load_hierarchy(path)
    assert set(h.tags) == {"a", "b", "floating"}
    assert h.edges == frozenset({("a", "b")})
    assert set(h.roots) == {"a", "floating"}


def test_two_cycle_rejected(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("a\tb\nb\ta\n")
    with pytest.raises(CycleError, match="cycle") as err:
        load_hierarchy(path)
    assert str(err.value).startswith(f"{path}: ")


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("a\tb\na\tb\tc\n")
    with pytest.raises(HierarchyFormatError) as err:
        load_hierarchy(path)
    assert err.value.line_number == 2


def test_edge_with_an_empty_tag_names_the_file_and_line(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("a\tb\na\t\n")
    with pytest.raises(HierarchyFormatError) as err:
        load_hierarchy(path)
    assert str(err.value) == f"{path}: line 2: empty tag in edge"
    assert err.value.line_number == 2


def test_unknown_tag_in_edge_rejected():
    with pytest.raises(ValueError, match="unknown tag"):
        Hierarchy(("a", "b"), (("a", "zzz"),))


@pytest.mark.parametrize(
    "names, parent",
    [(["a", "b", "a"], [-1, 0, 0]), (["a", "b", "c"], [-1, 0]), (["a", "b"], [-1, 2])],
)
def test_from_parents_rejects_repeated_names_and_bad_parent_arrays(names, parent):
    with pytest.raises(ValueError, match="distinct names and one parent index < n per name"):
        Hierarchy.from_parents(names, parent)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Hierarchy(("a",), (("a", "a"),))


def test_descendants_of_chain():
    h = Hierarchy(("a", "b", "c"), (("a", "b"), ("b", "c")))
    table = descendant_table(h)
    assert table["a"] == frozenset({"b", "c"})
    assert table["b"] == frozenset({"c"})
    assert table["c"] == frozenset()


def test_descendants_multi_parent_dag():
    h = Hierarchy(("a", "b", "c"), (("a", "c"), ("b", "c")))
    table = descendant_table(h)
    assert table["a"] == frozenset({"c"})
    assert table["b"] == frozenset({"c"})


def test_descendants_nested_in_parents():
    rng = random.Random(31)
    h = _random_dag(rng, 40)
    table = descendant_table(h)
    for parent, child in h.edges:
        assert child in table[parent]
        assert table[child] <= table[parent]


def test_binary_tree_shape():
    h = binary_tree(10)
    assert h.n_tags == 1023
    assert h.n_edges == 1022
    assert h.roots == ("1",)
    assert len(descendant_table(h)["1"]) == 1022


def test_binary_tree_small_levels():
    assert binary_tree(1).n_tags == 1
    two = binary_tree(2)
    assert two.n_tags == 3
    assert two.edges == frozenset({("1", "2"), ("1", "3")})


def test_binary_tree_rejects_levels_above_the_bound():
    # the check runs before the 2**levels - 1 names are built
    for levels in (21, 40):
        with pytest.raises(ValueError, match=f"levels is too large: {levels} > 20"):
            binary_tree(levels)
    with pytest.raises(ValueError, match="levels must be >= 1"):
        binary_tree(0)


def test_depths_on_binary_tree():
    depth = binary_tree(3).depths()
    assert depth["1"] == 0
    assert depth["2"] == depth["3"] == 1
    assert depth["7"] == 2


def test_rewire_fraction_zero_is_identity():
    h = binary_tree(5)
    assert rewire(h, 0.0, "random", random.Random(1)) == h


def test_rewire_preserves_edge_count_and_acyclicity():
    h = binary_tree(6)
    for order in ("leaf-first", "random", "top-first"):
        out = rewire(h, 0.5, order, random.Random(3))
        assert out.n_edges == h.n_edges
        assert out.n_tags == h.n_tags
        assert len(out.roots) == 1
        descendant_table(out)  # raises CycleError if a cycle slipped in


def test_rewire_touches_round_half_up_count():
    h = binary_tree(4)  # 14 links
    base_parent = {c: p for p, c in h.edges}
    out = rewire(h, 0.25, "leaf-first", random.Random(9))  # round(3.5) -> 4
    changed_children = {c for p, c in out.edges if base_parent[c] != p}
    # rewiring may re-draw the same parent, so at most 4 children moved,
    # and the first 4 in leaf-first order were the ones processed
    assert len(changed_children) <= 4
    depth = h.depths()
    processed = sorted(h.edges, key=lambda e: (-depth[e[1]], e[1]))[:4]
    assert changed_children <= {c for _, c in processed}


def test_rewire_deterministic_per_seed():
    h = binary_tree(6)
    a = rewire(h, 0.7, "random", random.Random(42))
    b = rewire(h, 0.7, "random", random.Random(42))
    c = rewire(h, 0.7, "random", random.Random(43))
    assert a == b
    assert a != c


def test_rewire_rejects_forests():
    h = Hierarchy(("a", "b", "c"), (("a", "b"),))
    with pytest.raises(ValueError, match="tree"):
        rewire(h, 0.5, "random", random.Random(0))


def test_rewire_rejects_bad_fraction_and_order():
    h = binary_tree(3)
    with pytest.raises(ValueError, match="fraction"):
        rewire(h, 1.5, "random", random.Random(0))
    with pytest.raises(ValueError, match="order"):
        rewire(h, 0.5, "bottom-up", random.Random(0))
    # the plan checks the tree and the order first, then rewire checks the fraction
    with pytest.raises(ValueError, match="unknown rewiring order"):
        rewire(h, 1.5, "bottom-up", random.Random(0))


def test_text_form_is_sorted_and_stable():
    h = Hierarchy(("b", "a", "c", "iso"), (("b", "c"), ("a", "b")))
    assert hierarchy_to_text(h) == "a\tb\nb\tc\niso\n"


def _random_dag(rng, n):
    tags = tuple(f"n{k}" for k in range(n))
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 2.0 / j:
                edges.append((tags[i], tags[j]))
    return Hierarchy(tags, tuple(edges))


def test_random_dags_accept_construction():
    rng = random.Random(17)
    for _ in range(25):
        h = _random_dag(rng, rng.randint(2, 50))
        table = descendant_table(h)
        for tag in h.tags:
            assert tag not in table[tag]


def line_loop_load(path):
    """The reference loader: the records `line_reference.read_records` keeps
    under the hierarchy rule, then `Hierarchy(tags, edges)`."""
    with open(path, "rb") as fh:
        records, fault = read_records(fh.read(), hierarchy_rule)
    if fault is not None:
        raise HierarchyFormatError(fault[1], fault[0], path)
    tags = {tag for _, fields in records for tag in fields}
    edges = [tuple(fields) for _, fields in records if len(fields) == 2]
    try:
        return Hierarchy(tags, edges)
    except CycleError as exc:
        raise CycleError(f"{path}: {exc}") from None


def _load_outcome(load, path):
    """The loaded hierarchy and its edge count, or the error's type and message."""
    try:
        h = load(path)
    except (HierarchyFormatError, CycleError) as exc:
        return type(exc), str(exc)
    return h, h.n_edges


# every character `str.lstrip` strips but the two that end a line
BLANKS = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\n\r")
# tags in ancestor order, so that the edges drawn from them form no cycle:
# a leading space, a '#' inside or leading (which makes a line a comment), a
# character str.splitlines() breaks on, and non-ASCII names
TAGS = ["a", " b", "c#d", "#e", "f\x85g", "\xe9", "\u03a9mega", "h\u2028"]
# one edge, repeated past text mode's first 8 KiB read
FILLER = ("x\t" + "y" * 78 + "\n") * 102


@st.composite
def valid_lines(draw):
    """One line of a well-formed hierarchy file, without its line end."""
    kind = draw(st.sampled_from(["edge", "edge", "edge", "tag", "comment", "blank"]))
    if kind == "comment":
        return draw(st.text(BLANKS, max_size=2)) + "#" + draw(st.text("a#\t ", max_size=3))
    if kind == "blank":
        return draw(st.text(BLANKS, max_size=3))
    if kind == "tag":
        return draw(st.sampled_from(TAGS))
    i = draw(st.integers(0, len(TAGS) - 2))
    return f"{TAGS[i]}\t{TAGS[draw(st.integers(i + 1, len(TAGS) - 1))]}"


# three fields, an empty side, a self-loop, and edges that close a cycle
BAD_LINES = ["a\tb\tc", "a\t", "\t\xe9", "a\t\t", "c#d\tc#d", "\xe9\ta", "r\ts\ns\tr"]


@st.composite
def hierarchy_files(draw):
    """The bytes of a hierarchy file: an optional byte-order mark, lines with
    mixed line ends and an optional final line end. Some files carry
    malformed lines (three fields, an empty side, a self-loop, an edge that
    closes a cycle) and a UTF-8 fault, before or after them and before or
    after text mode's first 8 KiB."""
    lines = draw(st.lists(valid_lines(), max_size=12))
    if draw(st.booleans()):
        bad = draw(st.lists(st.sampled_from(BAD_LINES), min_size=1, max_size=2))
        for line in bad:
            lines.insert(draw(st.integers(0, len(lines))), line)
    n = len(lines)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=n, max_size=n))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    chunks = [line.encode("utf-8") + end.encode() for line, end in zip(lines, ends)]
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, len(chunks))), FILLER.encode())
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, len(chunks))), b"\xff\n")
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + b"".join(chunks)


@settings(deadline=None, max_examples=300)
@given(data=hierarchy_files(), block=st.sampled_from([*range(1, 8), textio.BLOCK_CHARS]))
# a line of three fields, then a UTF-8 fault after 5 or 5,000 lines: the
# line of three fields is named either way
@example(data=b"a\tb\tc\n" + b"x\ty\n" * 5000 + b"\xff\n", block=textio.BLOCK_CHARS)
@example(data=b"a\tb\tc\n" + b"x\ty\n" * 5 + b"\xff\n", block=textio.BLOCK_CHARS)
def test_block_loader_loads_what_the_line_loop_loads(tmp_path_factory, data, block):
    path = str(tmp_path_factory.mktemp("hierarchy") / "h.tsv")
    with open(path, "wb") as fh:
        fh.write(data)
    expected = _load_outcome(line_loop_load, path)
    with mock.patch.object(textio, "BLOCK_CHARS", block):
        assert _load_outcome(load_hierarchy, path) == expected
    kind = expected[0]
    event(kind.__name__ if isinstance(kind, type) else "loaded")


# one line of each kind of line fault; a UTF-8 fault is a line too
FAULTS = {
    "fields": b"a\tb\tc",
    "empty": "\t\xe9".encode("utf-8"),
    "self-loop": b"c#d\tc#d",
    "utf-8": b"a\t\xff",
}


@st.composite
def two_fault_files(draw):
    """(bytes, first kind): a well-formed hierarchy file with two faulty
    lines of different kinds inserted, in either order, and maybe the
    filler between them, past text mode's first 8 KiB read."""
    lines = [line.encode("utf-8") for line in draw(st.lists(valid_lines(), max_size=8))]
    kinds = draw(st.permutations(list(FAULTS)))[:2]
    i = draw(st.integers(0, len(lines)))
    j = draw(st.integers(i, len(lines)))
    middle = [FILLER.encode().rstrip(b"\n")] if draw(st.booleans()) else []
    lines[i:j] = [FAULTS[kinds[0]], *lines[i:j], *middle, FAULTS[kinds[1]]]
    n = len(lines)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=n, max_size=n))
    return b"".join(map(bytes.__add__, lines, ends)), kinds[0]


@settings(deadline=None, max_examples=200)
@given(file=two_fault_files(), block=st.sampled_from([*range(1, 8), textio.BLOCK_CHARS]))
def test_of_two_faults_the_first_line_is_named(tmp_path_factory, file, block):
    data, kind = file
    path = str(tmp_path_factory.mktemp("hierarchy") / "h.tsv")
    with open(path, "wb") as fh:
        fh.write(data)
    expected = _load_outcome(line_loop_load, path)
    # the reference names the fault inserted first
    assert ("can't decode" in expected[1]) == (kind == "utf-8")
    with mock.patch.object(textio, "BLOCK_CHARS", block):
        assert _load_outcome(load_hierarchy, path) == expected
    event(kind)


@pytest.mark.parametrize("middle", [5000, 5])
def test_the_first_faulty_line_is_named_before_a_later_utf8_fault(tmp_path, middle):
    # the UTF-8 fault lies within text mode's first 8 KiB read after 5
    # lines and past it after 5,000; the line of three fields comes first
    path = tmp_path / "h.tsv"
    path.write_bytes(b"a\tb\tc\n" + b"x\ty\n" * middle + b"\xff\n")
    with pytest.raises(HierarchyFormatError) as exc:
        load_hierarchy(str(path))
    assert exc.value.line_number == 1
    assert str(exc.value) == f"{path}: line 1: expected 1 or 2 fields, got 3"
