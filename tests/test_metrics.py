from __future__ import annotations

import dataclasses
import random

import pytest

from hiertag.hierarchy import Hierarchy, binary_tree, rewire
from hiertag.metrics import (
    DecayCurve,
    decay_curve,
    evaluate_hierarchies,
    link_ratios,
    lmi,
    nmi,
    partition_nmi,
)
from hiertag.seeds import derive_seed


def _chain():
    return Hierarchy(("a", "b", "c"), (("a", "b"), ("b", "c")))


def test_link_ratios_grandparent_link_is_acceptable():
    recon = Hierarchy(("a", "b", "c"), (("a", "b"), ("a", "c")))
    r = link_ratios(_chain(), recon)
    assert r.exact == pytest.approx(0.5)
    assert r.acceptable == pytest.approx(1.0)
    assert r.inverted == 0.0
    assert r.unrelated == 0.0
    assert r.missing == 0.0


def test_link_ratios_inverted_and_missing():
    recon = Hierarchy(("a", "b", "c"), (("c", "a"),))
    r = link_ratios(_chain(), recon)
    assert r.exact == 0.0
    assert r.acceptable == 0.0
    assert r.inverted == pytest.approx(0.5)
    assert r.unrelated == 0.0
    assert r.missing == pytest.approx(0.5)


def test_link_ratios_identity_reconstruction():
    h = binary_tree(5)
    r = link_ratios(h, h)
    assert r.exact == r.acceptable == 1.0
    assert r.inverted == r.unrelated == r.missing == 0.0


def test_link_ratios_requires_same_tags():
    other = Hierarchy(("a", "b", "x"), (("a", "b"),))
    with pytest.raises(ValueError, match="x"):
        link_ratios(_chain(), other)


def _random_tree(rng, n):
    tags = tuple(f"n{k}" for k in range(n))
    edges = tuple((tags[rng.randrange(j)], tags[j]) for j in range(1, n))
    return Hierarchy(tags, edges)


def test_link_ratio_identities_on_random_tree_pairs():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 60)
        exact, recon = _random_tree(rng, n), _random_tree(rng, n)
        r = link_ratios(exact, recon)
        assert r.acceptable + r.inverted + r.unrelated + r.missing == pytest.approx(1.0, abs=1e-12)
        assert r.acceptable >= r.exact


def test_nmi_identical_is_exactly_one():
    h = binary_tree(6)
    assert nmi(h, h) == 1.0


def test_nmi_known_value():
    exact = Hierarchy(("r", "a", "b", "c"), (("r", "a"), ("a", "b"), ("a", "c")))
    recon = Hierarchy(("r", "a", "b", "c"), (("r", "a"), ("a", "b"), ("b", "c")))
    assert nmi(exact, recon) == pytest.approx(0.5961686069678414, abs=1e-12)


def test_nmi_symmetric():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 40)
        a, b = _random_tree(rng, n), _random_tree(rng, n)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_nmi_bounded():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 40)
        value = nmi(_random_tree(rng, n), _random_tree(rng, n))
        assert 0.0 <= value <= 1.0


def test_nmi_undefined_for_two_edgeless_hierarchies():
    bare = Hierarchy(("a", "b"), ())
    with pytest.raises(ValueError, match="undefined NMI"):
        nmi(bare, bare)


def test_nmi_zero_when_one_side_edgeless():
    exact = _chain()
    bare = Hierarchy(("a", "b", "c"), ())
    assert nmi(exact, bare) == 0.0


def test_partition_nmi_matches_descendant_nmi():
    rng = random.Random(44)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 40)
        a, b = _random_tree(rng, n), _random_tree(rng, n)
        assert partition_nmi(a, b) == pytest.approx(nmi(a, b), abs=1e-9)
        checked += 1
    assert checked == 40


@pytest.mark.parametrize("score", [nmi, partition_nmi])
def test_nmi_needs_two_tags(score):
    one = Hierarchy(("a",), ())
    with pytest.raises(ValueError, match="NMI needs at least 2 tags"):
        score(one, one)


def test_partition_nmi_identity():
    h = binary_tree(4)
    assert partition_nmi(h, h) == 1.0


def test_decay_curve_starts_at_one_and_never_increases():
    h = binary_tree(6)
    curve = decay_curve(h, order="random", runs=3, seed=5)
    assert curve.values[0] == 1.0
    for earlier, later in zip(curve.values, curve.values[1:]):
        assert later <= earlier + 1e-12


def test_decay_curve_means_come_from_seeded_cells():
    h = binary_tree(5)
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    runs = 4
    means = [
        sum(
            nmi(h, rewire(h, f, "leaf-first", random.Random(derive_seed(11, "rewire", fi, run))))
            for run in range(runs)
        )
        / runs
        for fi, f in enumerate(grid)
    ]
    # already non-increasing, so isotonic smoothing leaves the means as they are
    assert all(earlier >= later for earlier, later in zip(means, means[1:]))
    curve = decay_curve(h, order="leaf-first", runs=runs, grid=grid, seed=11)
    assert list(curve.values) == means
    assert decay_curve(h, order="leaf-first", runs=runs, grid=grid, seed=11) == curve


def test_scoring_one_exact_hierarchy_repeatedly_equals_scoring_fresh_copies():
    # the exact side keeps its scoring tables once scored; no order of
    # scoring, curve first or last, may change what any call returns
    exact = binary_tree(6)
    recons = [rewire(exact, f, "random", random.Random(k)) for k, f in enumerate((0.1, 0.5, 1.0))]
    recons += [Hierarchy(exact.tags, sorted(exact.edges)[::3]), Hierarchy(exact.tags, ())]

    def fresh():
        return Hierarchy(exact.tags, exact.edges)

    want = [(link_ratios(fresh(), r), nmi(fresh(), r)) for r in recons]
    want_curve = decay_curve(fresh(), runs=2, seed=3)
    for curve_first in (True, False):
        for step in (1, -1):
            kept = fresh()
            if curve_first:
                assert decay_curve(kept, runs=2, seed=3) == want_curve
            got = [(link_ratios(kept, r), nmi(kept, r)) for r in recons[::step]]
            assert got == want[::step]
            if not curve_first:
                assert decay_curve(kept, runs=2, seed=3) == want_curve
            assert kept == fresh() and hash(kept) == hash(fresh())


def test_fully_rewired_tree_loses_similarity():
    h = binary_tree(10)
    rewired = rewire(h, 1.0, "random", random.Random(123))
    assert nmi(h, rewired) < 0.05
    assert partition_nmi(h, rewired) < 0.05


def test_decay_curve_needs_a_run():
    with pytest.raises(ValueError, match="runs must be >= 1"):
        decay_curve(binary_tree(3), runs=0)


@pytest.mark.parametrize("grid", [(), (0.5, 0.0), (0.0, 1.5), (-0.1, 0.5)])
def test_decay_curve_needs_ascending_fractions(grid):
    with pytest.raises(ValueError, match=r"grid must be ascending fractions within \[0, 1\]"):
        decay_curve(binary_tree(3), runs=1, grid=grid)


def test_lmi_of_an_empty_curve_is_rejected():
    with pytest.raises(ValueError, match="empty decay curve"):
        lmi(0.5, DecayCurve((), (), 1))


def test_lmi_of_perfect_reconstruction_is_one():
    curve = DecayCurve(fractions=(0.0, 0.5, 1.0), values=(1.0, 0.5, 0.0), runs=1)
    assert lmi(1.0, curve) == 1.0


def test_lmi_below_plateau_is_zero():
    curve = DecayCurve(fractions=(0.0, 0.5, 1.0), values=(1.0, 0.5, 0.1), runs=1)
    assert lmi(0.05, curve) == 0.0


def test_lmi_of_a_nan_score_is_rejected():
    curve = DecayCurve(fractions=(0.0, 0.5, 1.0), values=(1.0, 0.5, 0.1), runs=1)
    with pytest.raises(ValueError, match="LMI of a NaN score"):
        lmi(float("nan"), curve)


def test_lmi_with_a_nan_curve_value_is_rejected():
    # the NaN sits in the segment that 0.8 would cross
    curve = DecayCurve(fractions=(0.0, 0.5, 1.0), values=(1.0, float("nan"), 0.1), runs=1)
    with pytest.raises(ValueError, match="decay curve value at fraction 0.5 is NaN"):
        lmi(0.8, curve)


def test_lmi_linear_interpolation():
    curve = DecayCurve(fractions=(0.0, 0.5, 1.0), values=(1.0, 0.6, 0.1), runs=1)
    # 0.8 sits 1/4 of the way down the first segment
    assert lmi(0.8, curve) == pytest.approx(0.75, abs=1e-12)


def test_report_text_order_and_values():
    h = binary_tree(4)
    report = evaluate_hierarchies(h, h)
    lines = report.to_text().splitlines()
    keys = [line.split("\t")[0] for line in lines]
    assert keys == ["r_E", "r_A", "r_I", "r_U", "r_M", "nmi", "N", "M_r"]
    values = dict(line.split("\t") for line in lines)
    assert values["r_E"] == "1"
    assert values["nmi"] == "1"
    assert values["N"] == "15"
    assert values["M_r"] == "14"


def test_report_with_lmi():
    h = binary_tree(4)
    report = evaluate_hierarchies(h, h)
    report = dataclasses.replace(report, lmi=lmi(report.nmi, decay_curve(h, runs=2)))
    assert report.lmi == 1.0
    assert "lmi\t1" in report.to_text()
