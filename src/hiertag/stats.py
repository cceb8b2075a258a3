"""Statistical kernels for tag co-occurrence networks.

For a corpus of Q objects where tag i appears on Q_i of them, the number of
objects carrying both i and j under random assignment is hypergeometric:

    mean     <Q_ij> = Q_i * Q_j / Q
    variance sigma2 = (Q_i Q_j / Q) * ((Q - Q_i) / Q) * ((Q - Q_j) / (Q - 1))

and the z-score of an observed count is (Q_ij - <Q_ij>) / sigma. Degenerate
pairs (a tag on zero or on all objects) have sigma = 0 and score 0 by
convention.

`z_scores` evaluates the same formula over arrays, e.g. over all stored
counts of a co-occurrence network's CSR matrix at once. It is bit-identical
to `z_from_counts` while every product Q_i * Q_j is below 2**53 (any corpus
of fewer than 9.4e7 objects): the product is then exact in int64 and in
float64, and every following step is the same IEEE operation in the same
order. The formula is not symmetric in rounding, so z(i, j) and z(j, i) can
differ in the last bit; callers pass the operands in the order the scalar
code used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Iterable

import numpy as np
from scipy import sparse

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
    z = np.zeros(len(q_ij))
    ok = (q_i > 0) & (q_j > 0) & (q_i < q_total) & (q_j < q_total)
    q_i, q_j, q_ij = q_i[ok], q_j[ok], q_ij[ok]
    mean = q_i * q_j / q_total
    variance = mean * ((q_total - q_i) / q_total) * ((q_total - q_j) / (q_total - 1))
    z[ok] = (q_ij - mean) / np.sqrt(variance)
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


@dataclass(frozen=True)
class CentralityVector:
    scores: np.ndarray
    iterations: int


def eigenvector_centrality(
    network: "CooccurrenceNetwork", iterations: int = 100
) -> CentralityVector:
    """Power iteration on the weighted co-occurrence adjacency.

    Starts from the strength vector (sum of incident weights), multiplies by
    the network's CSR count matrix (as float64, summing each row in
    ascending column order) and renormalizes by the plain sum, for exactly
    `iterations` rounds. An all-zero weight matrix yields the uniform vector
    1/N; tags isolated from the component carrying the dominant eigenvalue
    converge to 0.
    """
    n = network.n_tags
    if n == 0:
        raise ValueError("empty network")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if not len(network.weights):
        return CentralityVector(np.full(n, 1.0 / n), 0)
    mat = sparse.csr_matrix(
        (network.weights.astype(np.float64), network.indices, network.indptr), shape=(n, n)
    )
    x = np.asarray(mat.sum(axis=1)).ravel()
    x /= x.sum()
    for _ in range(iterations):
        x = mat @ x
        x /= x.sum()
    return CentralityVector(x, iterations)
