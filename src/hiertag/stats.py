"""Statistical kernels for tag co-occurrence networks.

For a corpus of Q objects where tag i appears on Q_i of them, the number of
objects carrying both i and j under random assignment is hypergeometric:

    mean     <Q_ij> = Q_i * Q_j / Q
    variance sigma2 = (Q_i Q_j / Q) * ((Q - Q_i) / Q) * ((Q - Q_j) / (Q - 1))

and the z-score of an observed count is (Q_ij - <Q_ij>) / sigma. Degenerate
pairs (a tag on zero or on all objects) have sigma = 0 and score 0 by
convention.

`z_scores` evaluates the same formula over arrays, e.g. over all stored
counts of a co-occurrence network's CSR arrays at once. It is bit-identical
to `z_from_counts` while every product Q_i * Q_j is below 2**53 (any corpus
of fewer than 9.4e7 objects): the product is then exact in int64 and in
float64, and every following step is the same IEEE operation in the same
order. The formula is not symmetric in rounding, so z(i, j) and z(j, i) can
differ in the last bit; callers pass the operands in the order the scalar
code used.

Memory: `z_scores` holds three float64 buffers besides its inputs and the
mask of scored counts. It casts each count operand to float64 as it goes,
which below 2**53 gives the same value as the int64 step; the variance,
sigma and z are then formed in place, in the scalar formula's order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .corpus import CooccurrenceNetwork


def expected_cooccurrence(q_total: int, q_i: int, q_j: int) -> float:
    if q_total < 1:
        raise ValueError("q_total must be >= 1")
    return q_i * q_j / q_total


def cooccurrence_variance(q_total: int, q_i: int, q_j: int) -> float:
    if q_total < 2:
        raise ValueError("degenerate population: q_total must be >= 2")
    return (q_i * q_j / q_total) * ((q_total - q_i) / q_total) * ((q_total - q_j) / (q_total - 1))


def z_from_counts(q_total: int, q_i: int, q_j: int, q_ij: int) -> float:
    """Z-score of an observed co-occurrence count; 0.0 whenever sigma = 0."""
    if q_i == 0 or q_j == 0 or q_i == q_total or q_j == q_total:
        return 0.0
    return (q_ij - expected_cooccurrence(q_total, q_i, q_j)) / math.sqrt(
        cooccurrence_variance(q_total, q_i, q_j)
    )


def z_scores(q_total: int, q_i: np.ndarray, q_j: np.ndarray, q_ij: np.ndarray) -> np.ndarray:
    """`z_from_counts` elementwise over integer arrays of counts."""
    q_i, q_j, q_ij = (np.asarray(a, dtype=np.int64) for a in (q_i, q_j, q_ij))
    ok = (q_i > 0) & (q_j > 0) & (q_i < q_total) & (q_j < q_total)
    # every count is scored, and the degenerate ones (sigma = 0, or q_total
    # below 2) are replaced afterwards, so their division warnings are moot
    with np.errstate(divide="ignore", invalid="ignore"):
        # mean, then the variance mean * ((Q - Q_i) / Q) * ((Q - Q_j) / (Q - 1))
        # multiplied left to right (a product is the same in either operand
        # order), then sigma and z, in three buffers. Each count goes to
        # float64 first: below 2**53 every count, difference and product is
        # then exact or rounds once, as it is in int64
        mean = np.multiply(q_i, q_j, dtype=np.float64)
        mean /= q_total
        sigma = np.subtract(q_total, q_i, dtype=np.float64)
        sigma /= q_total
        sigma *= mean
        tail = np.subtract(q_total, q_j, dtype=np.float64)
        tail /= q_total - 1
        sigma *= tail
        np.sqrt(sigma, out=sigma)
        z = np.subtract(q_ij, mean, out=mean)
        z /= sigma
    z[~ok] = 0.0
    return z


def in_link_entropy(weights: Iterable[float]) -> float:
    """Shannon entropy (natural log) of a normalized weight list; [] -> 0.0."""
    ws = list(weights)
    if not ws:
        return 0.0
    if any(w <= 0 for w in ws):
        raise ValueError("in-link weights must be positive")
    # summed left to right: the builtin sum of floats is compensated from
    # Python 3.12 on and would round differently
    total = float(reduce(add, ws))
    return -reduce(add, ((w / total) * math.log(w / total) for w in ws))


# power-iteration rounds of eigenvector centrality
CENTRALITY_ITERATIONS = 100


@dataclass(frozen=True)
class CentralityVector:
    scores: np.ndarray
    iterations: int


def eigenvector_centrality(
    network: "CooccurrenceNetwork", iterations: int = CENTRALITY_ITERATIONS
) -> CentralityVector:
    """Power iteration on the weighted co-occurrence adjacency.

    Starts from the strength vector (sum of incident weights), multiplies by
    the network's CSR counts (as float64, adding each row's products in
    stored order, ascending column, from 0.0) and renormalizes by the plain
    sum, for exactly `iterations` rounds. An all-zero weight matrix yields
    the uniform vector 1/N; tags isolated from the component carrying the
    dominant eigenvalue converge to 0.
    """
    n = network.n_tags
    if n == 0:
        raise ValueError("empty network")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if not len(network.weights):
        return CentralityVector(np.full(n, 1.0 / n), 0)
    rows, cols, w = network.rows, network.indices, network.weights.astype(np.float64)
    x = np.bincount(rows, weights=w, minlength=n)
    x /= x.sum()
    for _ in range(iterations):
        # bincount adds in array order, so each row from 0.0 in stored order;
        # np.add.reduceat would add a long row pairwise
        x = np.bincount(rows, weights=w * x[cols], minlength=n)
        x /= x.sum()
    return CentralityVector(x, iterations)
