"""Synthetic benchmark corpora generated from a pre-defined hierarchy.

Each object draws its first tag from a frequency profile; every further tag
either follows an undirected random walk started at that first tag (with
probability p_random_walk) or is an independent profile draw. The tag list
collapses to a set. Generation is seeded and splits into fixed-size chunks,
each a seeded cell with its own derived substream, so the objects of a fixed
seed are byte-identical and a shorter run is a prefix of a longer one.
"""
from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, pairwise
from typing import Iterator

import numpy as np

from .corpus import TagCorpus, _corpus
from .hierarchy import Hierarchy
from .seeds import derive_seed

CHUNK_OBJECTS = 2048


def parse_count_distribution(text: str) -> tuple:
    """Parse a tags-per-object descriptor: "fixed:3" or "poisson:3.0"."""
    kind, _, arg = text.partition(":")
    if kind == "fixed":
        k = int(arg)
        if k < 1:
            raise ValueError("fixed tag count must be >= 1")
        # every object draws k positions, held a chunk of objects at a time;
        # the bound is the scale of the largest Poisson mean's draws (about 745)
        if k > 1000:
            raise ValueError(f"fixed tag count is too large: {k} > 1000")
        return ("fixed", k)
    if kind == "poisson":
        lam = float(arg)
        if not lam > 0:
            raise ValueError("poisson mean must be > 0")
        # an object redraws until its count is at least 1, about 1/mean draws:
        # a thousand at the floor, and below about 1.7e-16 they never end
        if lam < 1e-3:
            raise ValueError(f"poisson mean is too small: {lam!r} < 0.001")
        # Knuth's draw stops once a product of uniforms falls to exp(-mean);
        # where that underflows, every mean would draw about 745 tags
        if math.exp(-lam) < sys.float_info.min:
            raise ValueError(f"poisson mean is too large: {lam!r} > 708.39")
        return ("poisson", lam)
    raise ValueError(f"unknown tags-per-object distribution {text!r}")


def parse_walk_length(text: str) -> tuple:
    """Parse a walk-length descriptor: "uniform:1:3"."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "uniform":
        raise ValueError(f"unknown walk-length distribution {text!r}")
    lo, hi = int(parts[1]), int(parts[2])
    if not 1 <= lo <= hi:
        raise ValueError("walk length bounds must satisfy 1 <= lo <= hi")
    # every step of a walk is a draw; the bound is fixed:K's
    if hi > 1000:
        raise ValueError(f"walk length is too large: {hi} > 1000")
    return ("uniform", lo, hi)


def parse_profile(text: str) -> tuple:
    """Parse a frequency-profile descriptor: "linear-depth" or "power-law:2.0"."""
    kind, _, arg = text.partition(":")
    if kind == "linear-depth":
        return ("linear-depth",)
    if kind == "power-law":
        exponent = float(arg) if arg else 2.0
        if not exponent > 0:
            raise ValueError("power-law exponent must be > 0")
        return ("power-law", exponent)
    raise ValueError(f"unknown frequency profile {text!r}")


@dataclass(frozen=True)
class BenchmarkConfig:
    object_count: int
    p_random_walk: float
    tags_per_object: tuple = ("poisson", 3.0)
    walk_length: tuple = ("uniform", 1, 3)
    frequency_profile: tuple = ("linear-depth",)
    seed: int = 0

    def __post_init__(self):
        if self.object_count < 1:
            raise ValueError("object_count must be >= 1")
        if not 0.0 <= self.p_random_walk <= 1.0:
            raise ValueError("p_random_walk must be in [0, 1]")
        # each descriptor's text form ("poisson:3.0") goes through its parser,
        # so a descriptor and its command-line option obey the same rules, and
        # the parsed form is kept: ("power-law",) becomes ("power-law", 2.0)
        for name, parse in (
            ("tags_per_object", parse_count_distribution),
            ("walk_length", parse_walk_length),
            ("frequency_profile", parse_profile),
        ):
            object.__setattr__(self, name, parse(":".join(map(str, getattr(self, name)))))


def frequency_profile(
    h: Hierarchy, kind: tuple, rng: random.Random | None = None
) -> dict[str, float]:
    """Per-tag sampling weights (not normalized).

    linear-depth: weight d_max - depth + 1, so roots are heaviest and the
    deepest level has weight 1. power-law: Zipf-like weights rank**-exponent
    assigned to tags by a random permutation, independent of depth (needs
    `rng`).
    """
    if kind[0] == "linear-depth":
        depth = h.depths()
        d_max = max(depth.values())
        return {t: float(d_max - depth[t] + 1) for t in h.tags}
    if kind[0] == "power-law":
        if rng is None:
            raise ValueError("power-law profile needs a seeded rng for the permutation")
        exponent = kind[1]
        weights = [(r + 1) ** -exponent for r in range(h.n_tags)]
        order = list(range(h.n_tags))
        rng.shuffle(order)
        return {h.tags[i]: weights[r] for r, i in enumerate(order)}
    raise ValueError(f"unknown frequency profile kind {kind!r}")


def _make_chunk(
    cum: list[float],
    walk: list[tuple[tuple[int, ...], int, int]],
    config: BenchmarkConfig,
    chunk_index: int,
    count: int,
) -> tuple[list[int], np.ndarray]:
    """Every drawn position back to back, repeats included, and each object's draw count."""
    rng = random.Random(derive_seed(config.seed, "objects", chunk_index))
    # bounded draws inline CPython's `_randbelow_with_getrandbits(m)`, the draw
    # behind `randrange(m)` and `randint(lo, lo + m - 1) - lo`: take m's bit
    # length in bits and draw again while the result is >= m. The stream is
    # the same (tests/test_benchmark.py checks it against `randrange`),
    # without a Python frame per draw
    random_, getrandbits = rng.random, rng.getrandbits
    # bisecting all but the last bound gives min(bisect_right(cum, x), last)
    # in one call: a draw that rounds up to the total still picks the last tag
    total, head = cum[-1], cum[:-1]
    kind, k = config.tags_per_object
    fixed, limit = kind == "fixed", math.exp(-k)
    w_lo, w_span = config.walk_length[1], config.walk_length[2] - config.walk_length[1] + 1
    w_bits = w_span.bit_length()
    p_rw = config.p_random_walk
    flat, sizes = [], []
    append = flat.append
    for _ in range(count):
        if fixed:
            n_t = k
        else:
            # Knuth's Poisson draw, repeated until it gives at least one tag
            n_t = 0
            while n_t < 1:
                n_t, p = 0, random_()
                while p > limit:
                    n_t += 1
                    p *= random_()
        sizes.append(n_t)
        first = bisect_right(head, random_() * total)
        append(first)
        for _ in range(n_t - 1):
            if random_() < p_rw:
                steps = getrandbits(w_bits)
                while steps >= w_span:
                    steps = getrandbits(w_bits)
                cur = first
                for _ in range(w_lo + steps):
                    nb, m, bits = walk[cur]
                    if m:
                        r = getrandbits(bits)
                        while r >= m:
                            r = getrandbits(bits)
                        cur = nb[r]
                append(cur)
            else:
                append(bisect_right(head, random_() * total))
    return flat, np.array(sizes, dtype=np.int64)


def _chunks(h: Hierarchy, config: BenchmarkConfig) -> Iterator[tuple[list[int], np.ndarray]]:
    """`_make_chunk` blocks in generation order; `h` is checked here, before any draw."""
    if not h.tags:
        raise ValueError("hierarchy has no tags")
    profile = frequency_profile(
        h, config.frequency_profile, rng=random.Random(derive_seed(config.seed, "profile"))
    )
    cum = list(accumulate(profile[t] for t in h.tags))
    # per position: its neighbours, their count and the count's bit length
    walk = [(nb, len(nb), len(nb).bit_length()) for nb in h.undirected_neighbors()]
    return (
        _make_chunk(cum, walk, config, ci, min(CHUNK_OBJECTS, config.object_count - start))
        for ci, start in enumerate(range(0, config.object_count, CHUNK_OBJECTS))
    )


def iter_object_tags(h: Hierarchy, config: BenchmarkConfig) -> Iterator[list[str]]:
    """Objects in generation order, as lists of distinct tag names."""
    return (
        [h.tags[i] for i in dict.fromkeys(flat[a:b])]
        for flat, sizes in _chunks(h, config)
        for a, b in pairwise(accumulate(sizes.tolist(), initial=0))
    )


def generate(h: Hierarchy, config: BenchmarkConfig) -> TagCorpus:
    """Generate a benchmark corpus from a hierarchy, naming each tag once."""
    # positions intern in first-appearance order, the order their names would
    corpus = _corpus(_chunks(h, config))
    return replace(corpus, names=tuple(h.tags[p] for p in corpus.names))
