"""Quality metrics for reconstructed hierarchies against an exact reference.

Link ratios classify every reconstructed link by where its endpoints sit in
the exact hierarchy; the NMI compares per-tag descendant sets; the decay
curve calibrates NMI against controlled rewiring of the exact hierarchy and
yields the level of meaningful information (LMI).
"""
from __future__ import annotations

import math
import random
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


def _below(children: list[list[int]], order: list[int], bits: list[int]) -> list[int]:
    """Descendant bitsets: per position v, the int whose bit j is set iff
    position j lies below v. `order` lists every parent before its children
    and `bits[j]` is ``1 << j``."""
    below = [0] * len(children)
    for v in reversed(order):
        acc = 0
        for c in children[v]:
            acc |= below[c] | bits[c]
        below[v] = acc
    return below


def _parent_list_below(parent: list[int], bits: list[int]) -> list[int]:
    """:func:`_below` of a forest given as a parent list (-1 for a root)."""
    children: list[list[int]] = [[] for _ in parent]
    order: list[int] = []
    for c, p in enumerate(parent):
        (children[p] if p >= 0 else order).append(c)
    for v in order:  # grows while it is read: a breadth-first order
        order.extend(children[v])
    return _below(children, order, bits)


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
    below = _below(exact._children, exact._order, [1 << i for i in range(n)])
    m_r = recon.n_edges
    norm = max(n - 1, m_r)
    n_acceptable = n_inverted = n_unrelated = 0
    for u, vs in enumerate(recon._children):
        for v in vs:
            if below[u] >> v & 1:
                n_acceptable += 1
            elif below[v] >> u & 1:
                n_inverted += 1
            else:
                n_unrelated += 1
    n_missing = (n - 1 - m_r) if m_r < n - 1 else 0
    n_exact = sum(
        len(set(e).intersection(r)) for e, r in zip(exact._children, recon._children) if e and r
    )
    return LinkRatios(
        n_exact / norm,
        n_acceptable / norm,
        n_inverted / norm,
        n_unrelated / norm,
        n_missing / norm,
    )


def _nmi_from_counts(de: list[int], dr: list[int], both: list[int]) -> float:
    """The NMI formula over per-tag descendant counts, in tag order."""
    num = den = 0.0
    scale = len(de) - 1
    for e, r, er in zip(de, dr, both):
        pe = e / scale
        pr = r / scale
        per = er / scale
        if per > 0.0:
            num += per * math.log(per / (pe * pr))
        if pe > 0.0:
            den += pe * math.log(pe)
        if pr > 0.0:
            den += pr * math.log(pr)
    if den == 0.0:
        return 0.0
    return max(-2.0 * num / den, 0.0)


def _nmi_from_bits(below_e: list[int], de: list[int], below_r: list[int]) -> float:
    """:func:`_nmi_from_counts` over descendant bitsets, with |D_e| as `de`."""
    return _nmi_from_counts(
        de,
        [r.bit_count() for r in below_r],
        [(e & r).bit_count() for e, r in zip(below_e, below_r)],
    )


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
    _check_same_tags(exact, recon)
    n = exact.n_tags
    if n < 2:
        raise ValueError("NMI needs at least 2 tags")
    if not exact.n_edges and not recon.n_edges:
        raise ValueError("undefined NMI: both hierarchies are edgeless")
    if exact == recon:
        return 1.0
    bits = [1 << i for i in range(n)]
    below_e = _below(exact._children, exact._order, bits)
    below_r = _below(recon._children, recon._order, bits)
    return _nmi_from_bits(below_e, [e.bit_count() for e in below_e], below_r)


def partition_nmi(exact: Hierarchy, recon: Hierarchy) -> float:
    """Community-comparison NMI over descendant communities.

    Maps each tag to the community formed by its descendants (the tag itself
    excluded) in either hierarchy and compares corresponding communities with
    the standard count-based community NMI, sizes normalized by N - 1. This
    is an arithmetic cross-check of :func:`nmi` computed from integer
    community counts instead of probabilities.
    """
    _check_same_tags(exact, recon)
    n = exact.n_tags
    if n < 2:
        raise ValueError("NMI needs at least 2 tags")
    if not exact.n_edges and not recon.n_edges:
        raise ValueError("undefined NMI: both hierarchies are edgeless")
    if exact == recon:
        return 1.0
    communities_e = {t: frozenset(s) for t, s in descendant_table(exact).items()}
    communities_r = {t: frozenset(s) for t, s in descendant_table(recon).items()}
    total = n - 1
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
    descendant bitsets of its rewired list, and the exact side's bitsets and
    the link order are prepared once per curve.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    fs = DEFAULT_GRID if grid is None else tuple(grid)
    if not fs or any(not 0.0 <= f <= 1.0 for f in fs) or list(fs) != sorted(fs):
        raise ValueError("grid must be ascending fractions within [0, 1]")
    parent, links = _rewire_plan(exact, order)
    if len(parent) < 2:
        raise ValueError("NMI needs at least 2 tags")
    bits = [1 << i for i in range(len(parent))]
    below_e = _below(exact._children, exact._order, bits)
    de = [e.bit_count() for e in below_e]
    means = []
    for fi, f in enumerate(fs):
        total = 0.0  # a plain loop: the builtin sum is compensated from 3.12 on
        for run in range(runs):
            rng = random.Random(derive_seed(seed, "rewire", fi, run))
            rewired = _rewire_parents(parent, links, f, rng, order == "random")
            if rewired == parent:
                total += 1.0
            else:
                total += _nmi_from_bits(below_e, de, _parent_list_below(rewired, bits))
        means.append(total / runs)
    return DecayCurve(fs, tuple(_isotonic_non_increasing(means)), runs)


def lmi(i_er: float, curve: DecayCurve) -> float:
    """Level of meaningful information: 1 - f* with I(f*) = i_er.

    f* is read off the monotone decay curve by piecewise-linear inverse
    interpolation (first crossing). Scores at or above the curve's start map
    to f* = 0 (LMI 1); scores below the curve's value at f = 1 clamp to
    f* = 1 (LMI 0).
    """
    fs, vs = curve.fractions, curve.values
    if not fs:
        raise ValueError("empty decay curve")
    if i_er >= vs[0]:
        return 1.0
    if i_er < vs[-1]:
        return 0.0
    f_star = fs[-1]
    for k in range(len(fs) - 1):
        if i_er >= vs[k + 1]:
            t = (vs[k] - i_er) / (vs[k] - vs[k + 1])
            f_star = fs[k] + t * (fs[k + 1] - fs[k])
            break
    return 1.0 - f_star


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


def evaluate_hierarchies(
    exact: Hierarchy,
    recon: Hierarchy,
    with_lmi: bool = False,
    curve_order: str = "random",
    curve_runs: int = 10,
    curve_grid: tuple[float, ...] | None = None,
    seed: int = 0,
) -> QualityReport:
    ratios = link_ratios(exact, recon)
    score = nmi(exact, recon)
    level = None
    if with_lmi:
        curve = decay_curve(exact, order=curve_order, runs=curve_runs, grid=curve_grid, seed=seed)
        level = lmi(score, curve)
    return QualityReport(ratios, score, level, exact.n_tags, recon.n_edges)
