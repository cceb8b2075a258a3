"""Span and counter recording for the traced benchmark run.

Spans are kept in memory as (name, seconds) pairs and aggregated when the
run ends. The traced run calls each public sub-step of the pipeline itself,
so a step that a larger call recomputes internally (prune_network inside
extract_b, say) is timed on its own, and the larger call's self time is its
span minus those child spans.
"""
from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_name(name: str) -> str:
    """Return `name` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and has at most 64 letters, digits,
    '_', '.' and '-'.
    """
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit


class Tracer:
    """Accumulates span durations, counters and gauges for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float]] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, time.perf_counter() - start))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        """Add work done, e.g. bytes read or cells computed."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a size, e.g. tags or pairs; the last value wins."""
        self.gauges[name] = value

    def total(self, name: str) -> float:
        return sum(d for n, d in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, _ in self.spans if n == name)

    def per_call(self, name: str) -> float:
        n = self.calls(name)
        return self.total(name) / n if n else 0.0

    def self_time(self, parent: str, children: Iterable[str]) -> float:
        return self_time(self.total(parent), [self.total(c) for c in children])


def self_time(parent_s: float, children_s: Iterable[float]) -> float:
    """A span's self time: its duration minus the time of its child spans.

    Not clamped at zero, so timer noise that makes children outlast the
    parent stays visible instead of reading as an exact 0.
    """
    return parent_s - sum(children_s)
