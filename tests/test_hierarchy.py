from __future__ import annotations

import random

import pytest

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
