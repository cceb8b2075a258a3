"""A fixed calibration kernel that measures how fast the host runs right now.

The kernel is frozen benchmark code, not package code, so a change to
hiertag never changes its cost. It does the same kind of pure-Python work
as the package's hot paths: it counts tag co-occurrences into a dict of
dicts, runs breadth-first searches over the result and sorts tags by
frequency. Timed between a workload's steps, it slows down with the host
as they do, so the ratio of the two mean times cancels the host's speed.
"""
from __future__ import annotations

import random
import time
from collections import defaultdict

TAGS = 600
OBJECTS = 3_000
SEARCHES = 10
# at most one sample per this much time, so that the samples spread evenly
# over the run whatever the lengths of the steps they fall between
EVERY_S = 0.25


def kernel_input(seed: int = 12345) -> list[list[str]]:
    """Tag lists with a skewed tag frequency, 1 to 5 tags each."""
    rng = random.Random(seed)
    names = [f"tag{i}" for i in range(TAGS)]
    return [
        [names[min(int(rng.expovariate(1 / 120)), TAGS - 1)] for _ in range(1 + rng.randrange(5))]
        for _ in range(OBJECTS)
    ]


def kernel(objects: list[list[str]]) -> int:
    adj: defaultdict[str, defaultdict[str, int]] = defaultdict(lambda: defaultdict(int))
    freq: defaultdict[str, int] = defaultdict(int)
    for tags in objects:
        uniq = sorted(set(tags))
        for t in uniq:
            freq[t] += 1
        for i, a in enumerate(uniq):
            for b in uniq[i + 1 :]:
                adj[a][b] += 1
                adj[b][a] += 1
    order = sorted(freq, key=lambda t: (-freq[t], t))
    reached = 0
    for source in order[:SEARCHES]:
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reached += len(seen)
    return reached


class Calibration:
    """Times the kernel on demand and keeps every time."""

    def __init__(self) -> None:
        self.objects = kernel_input()
        self.expected = kernel(self.objects)
        self.times: list[float] = []
        self.last = -EVERY_S

    def sample(self) -> None:
        t0 = time.perf_counter()
        reached = kernel(self.objects)
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        if reached != self.expected:
            raise RuntimeError("calibration kernel gave a different result")

    def sample_when_due(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()
