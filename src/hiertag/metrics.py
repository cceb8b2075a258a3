"""Quality metrics for reconstructed hierarchies against an exact reference.

Link ratios classify every reconstructed link by where its endpoints sit in
the exact hierarchy; the NMI compares per-tag descendant sets; the decay
curve calibrates NMI against controlled rewiring of the exact hierarchy and
yields the level of meaningful information (LMI).
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .hierarchy import Hierarchy, _rewire_parents, _rewire_plan, descendant_table
from .seeds import derive_seed


def _check_same_tags(exact: Hierarchy, recon: Hierarchy) -> None:
    if exact.tags == recon.tags:
        return
    only_e = sorted(set(exact.tags) - set(recon.tags))[:5]
    only_r = sorted(set(recon.tags) - set(exact.tags))[:5]
    raise ValueError(
        "mismatched tag sets: "
        f"only in exact {only_e}, only in reconstructed {only_r}"
    )


@dataclass(frozen=True)
class LinkRatios:
    exact: float
    acceptable: float
    inverted: float
    unrelated: float
    missing: float


def _below(children: list[list[int]], order: list[int]) -> list[int]:
    """Descendant bitsets: per position v, the int whose bit j is set iff
    position j lies below v. `order` lists every parent before its children."""
    below = [0] * len(children)
    for v in reversed(order):
        acc = 0
        for c in children[v]:
            acc |= below[c] | 1 << c
        below[v] = acc
    return below


def _parent_list_below(parent: list[int]) -> list[int]:
    """:func:`_below` of a forest given as a parent list (-1 for a root).

    One pass over a breadth-first order from its end folds each tag's bitset,
    complete by then, into its parent's; the ints equal `_below`'s, since
    OR does not depend on the order of its operands."""
    children: list[list[int]] = [[] for _ in parent]
    order: list[int] = []
    for c, p in enumerate(parent):
        (children[p] if p >= 0 else order).append(c)
    for v in order:  # grows while it is read: a breadth-first order
        order.extend(children[v])
    below = [0] * len(parent)
    for c in reversed(order):
        p = parent[c]
        if p >= 0:
            below[p] |= below[c] | 1 << c
    return below


def _reference(exact: Hierarchy) -> tuple[list[int], list[int], list[float]]:
    """The exact side's scoring tables: its descendant bitsets, their bit
    counts |D_e|, and p * ln(p) per descendant count c = 0..N-1, with
    p = c / (N - 1) (0.0 at c = 0), which both sides' terms read.

    They are built the first time `exact` is scored and kept on it, since a
    reference hierarchy is scored against many reconstructions; the other
    side's bitsets are built per call. Needs at least 2 tags.
    """
    if exact._scoring is None:
        below = _below(exact._children, exact._order)
        de = [e.bit_count() for e in below]
        scale = len(de) - 1
        plogp = [c / scale * math.log(c / scale) if c else 0.0 for c in range(scale + 1)]
        exact._scoring = (below, de, plogp)
    return exact._scoring


def link_ratios(exact: Hierarchy, recon: Hierarchy) -> LinkRatios:
    """Classify reconstructed links against the exact hierarchy.

    A link u->v is exact if it is an edge of the exact hierarchy, acceptable
    if the exact hierarchy has a directed path u ~> v (exact links included),
    inverted if it has a path v ~> u, and unrelated otherwise. All counts are
    normalized by max(N - 1, M_r); the missing ratio covers the shortfall
    (N - 1 - M_r) when the reconstruction has fewer links than a spanning
    tree would. Paths are read off the exact side's descendant bitsets.
    """
    _check_same_tags(exact, recon)
    n = exact.n_tags
    if n < 2:
        raise ValueError("link ratios need at least 2 tags")
    below = _reference(exact)[0]
    m_r = recon.n_edges
    norm = max(n - 1, m_r)
    n_exact = n_acceptable = n_inverted = 0
    for u, (vs, cs) in enumerate(zip(recon._children, exact._children)):
        for v in vs:
            if below[u] >> v & 1:
                n_acceptable += 1
                # an exact link is a path too; `cs` is u's sorted exact children
                i = bisect_left(cs, v)
                if i < len(cs) and cs[i] == v:
                    n_exact += 1
            elif below[v] >> u & 1:
                n_inverted += 1
    n_missing = (n - 1 - m_r) if m_r < n - 1 else 0
    return LinkRatios(
        n_exact / norm,
        n_acceptable / norm,
        n_inverted / norm,
        (m_r - n_acceptable - n_inverted) / norm,  # every other link is unrelated
        n_missing / norm,
    )


def _nmi_from_bits(
    reference: tuple[list[int], list[int], list[float]], below_r: list[int]
) -> float:
    """The NMI formula over the exact side's `_reference` tables and the
    other side's descendant bitsets, in tag order.

    A tag with no descendants on the other side adds only its p_e * ln(p_e)
    term, so its overlap count and logs are skipped; both sides' p * ln(p)
    terms are read from the table by count; every float addition runs in the
    order of the formula written out per tag.
    """
    below_e, de, plogp = reference
    num = den = 0.0
    scale = len(de) - 1
    for e_bits, e, r_bits in zip(below_e, de, below_r):
        den += plogp[e]
        if r_bits:
            r = r_bits.bit_count()
            pr = r / scale
            per = (e_bits & r_bits).bit_count() / scale
            if per > 0.0:
                num += per * math.log(per / (e / scale * pr))
            den += plogp[r]
    if den == 0.0:
        return 0.0
    return max(-2.0 * num / den, 0.0)


def _nmi_identical(exact: Hierarchy, recon: Hierarchy) -> bool:
    """Whether a pair with a defined NMI is identical (scoring exactly 1);
    raises for different tags, fewer than 2 tags or two edgeless sides."""
    _check_same_tags(exact, recon)
    if exact.n_tags < 2:
        raise ValueError("NMI needs at least 2 tags")
    if not exact.n_edges and not recon.n_edges:
        raise ValueError("undefined NMI: both hierarchies are edgeless")
    return exact == recon


def nmi(exact: Hierarchy, recon: Hierarchy) -> float:
    """Normalized mutual information of the two descendant-set structures.

    With p_e(i) = |D_e(i)|/(N-1), p_r(i) = |D_r(i)|/(N-1) and p_er(i) the
    normalized overlap, the score is

        -2 * sum_i p_er * ln(p_er / (p_e * p_r))
        -------------------------------------------
        sum_i p_e * ln(p_e)  +  sum_i p_r * ln(p_r)

    with 0*ln(0) = 0, clamped at 0. Identical hierarchies score exactly 1;
    a pair of edgeless hierarchies has no defined score and raises. The
    counts are bit counts of descendant bitsets, for forests and DAGs alike.
    """
    if _nmi_identical(exact, recon):
        return 1.0
    return _nmi_from_bits(_reference(exact), _below(recon._children, recon._order))


def partition_nmi(exact: Hierarchy, recon: Hierarchy) -> float:
    """Community-comparison NMI over descendant communities.

    Maps each tag to the community formed by its descendants (the tag itself
    excluded) in either hierarchy and compares corresponding communities with
    the standard count-based community NMI, sizes normalized by N - 1. This
    is an arithmetic cross-check of :func:`nmi` computed from integer
    community counts instead of probabilities.
    """
    if _nmi_identical(exact, recon):
        return 1.0
    communities_e = descendant_table(exact)
    communities_r = descendant_table(recon)
    total = exact.n_tags - 1
    num = 0.0
    for t in exact.tags:
        n_ij = len(communities_e[t] & communities_r[t])
        if n_ij:
            n_i = len(communities_e[t])
            n_j = len(communities_r[t])
            num += n_ij * math.log(n_ij * total / (n_i * n_j))
    den = 0.0
    for communities in (communities_e, communities_r):
        for c in communities.values():
            if c:
                den += len(c) * math.log(len(c) / total)
    if den == 0.0:
        return 0.0
    return max(-2.0 * num / den, 0.0)


@dataclass(frozen=True)
class DecayCurve:
    fractions: tuple[float, ...]
    values: tuple[float, ...]
    runs: int

    def to_text(self) -> str:
        lines = [f"{f:.10g}\t{v:.10g}" for f, v in zip(self.fractions, self.values)]
        return "\n".join(lines) + "\n"


def _isotonic_non_increasing(values: list[float]) -> list[float]:
    # pool-adjacent-violators, equal weights
    blocks: list[list[float]] = []
    for v in values:
        blocks.append([v, 1.0])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] < blocks[-1][0] / blocks[-1][1]:
            s, c = blocks.pop()
            blocks[-1][0] += s
            blocks[-1][1] += c
    out: list[float] = []
    for s, c in blocks:
        out.extend([s / c] * int(c))
    return out


DEFAULT_GRID = tuple(i / 20 for i in range(21))


def decay_curve(
    exact: Hierarchy,
    order: str = "random",
    runs: int = 10,
    grid: tuple[float, ...] | None = None,
    seed: int = 0,
) -> DecayCurve:
    """Mean NMI against rewired copies of `exact`, per rewiring fraction.

    Each (fraction, run) pair is a seeded cell with its own derived stream,
    so the curve is reproducible bit-for-bit for a fixed seed. The
    per-fraction means are made non-increasing by isotonic regression.

    Each cell equals ``nmi(exact, rewire(exact, f, order, rng))`` with the
    cell's stream, computed without building a rewired hierarchy: the
    rewiring kernel works on the tree's parent list, each cell takes the
    descendant bitsets of its rewired list, the link order is prepared once
    per curve and the exact side's scoring tables are kept on `exact`.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    fs = DEFAULT_GRID if grid is None else tuple(grid)
    if not fs or any(not 0.0 <= f <= 1.0 for f in fs) or list(fs) != sorted(fs):
        raise ValueError("grid must be ascending fractions within [0, 1]")
    parent, links = _rewire_plan(exact, order)
    if len(parent) < 2:
        raise ValueError("NMI needs at least 2 tags")
    reference = _reference(exact)
    means = []
    for fi, f in enumerate(fs):
        total = 0.0  # a plain loop: the builtin sum is compensated from 3.12 on
        for run in range(runs):
            rng = random.Random(derive_seed(seed, "rewire", fi, run))
            rewired = _rewire_parents(parent, links, f, rng, order == "random")
            if rewired == parent:
                total += 1.0
            else:
                total += _nmi_from_bits(reference, _parent_list_below(rewired))
        means.append(total / runs)
    return DecayCurve(fs, tuple(_isotonic_non_increasing(means)), runs)


def lmi(i_er: float, curve: DecayCurve) -> float:
    """Level of meaningful information: 1 - f* with I(f*) = i_er.

    f* is read off the monotone decay curve by piecewise-linear inverse
    interpolation (first crossing). Scores at or above the curve's start map
    to f* = 0 (LMI 1); scores below the curve's value at f = 1 clamp to
    f* = 1 (LMI 0). A NaN score or curve value crosses nowhere, and raises.
    """
    fs, vs = curve.fractions, curve.values
    if not fs:
        raise ValueError("empty decay curve")
    if math.isnan(i_er):
        raise ValueError("cannot read the LMI of a NaN score")
    for f, v in zip(fs, vs):
        if math.isnan(v):
            raise ValueError(f"decay curve value at fraction {f:.10g} is NaN")
    if i_er >= vs[0]:
        return 1.0
    if i_er < vs[-1]:
        return 0.0
    k = 0  # vs[0] > i_er >= vs[-1], so the first crossing is found
    while i_er < vs[k + 1]:
        k += 1
    t = (vs[k] - i_er) / (vs[k] - vs[k + 1])
    return 1.0 - (fs[k] + t * (fs[k + 1] - fs[k]))


@dataclass(frozen=True)
class QualityReport:
    ratios: LinkRatios
    nmi: float
    lmi: float | None
    n_tags: int
    m_r: int

    def to_text(self) -> str:
        rows = [
            ("r_E", f"{self.ratios.exact:.10g}"),
            ("r_A", f"{self.ratios.acceptable:.10g}"),
            ("r_I", f"{self.ratios.inverted:.10g}"),
            ("r_U", f"{self.ratios.unrelated:.10g}"),
            ("r_M", f"{self.ratios.missing:.10g}"),
            ("nmi", f"{self.nmi:.10g}"),
        ]
        if self.lmi is not None:
            rows.append(("lmi", f"{self.lmi:.10g}"))
        rows.append(("N", str(self.n_tags)))
        rows.append(("M_r", str(self.m_r)))
        return "\n".join(f"{k}\t{v}" for k, v in rows) + "\n"


def evaluate_hierarchies(exact: Hierarchy, recon: Hierarchy) -> QualityReport:
    """The link ratios and the NMI of `recon` against `exact`, without an LMI.

    The LMI reads the NMI off the exact hierarchy's decay curve:
    ``replace(report, lmi=lmi(report.nmi, decay_curve(exact)))``, with
    `dataclasses.replace` and any of :func:`decay_curve`'s settings.
    """
    ratios = link_ratios(exact, recon)
    return QualityReport(ratios, nmi(exact, recon), None, exact.n_tags, recon.n_edges)
