"""In-memory spans and the statistics the benchmark reports.

A span records one call into a layer: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it began
(its parent) and the instance it belongs to. Spans stay in a list until the
run ends. A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

# Candidate percentiles for the tail latency, highest first. The reported one
# is the highest that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one traced pass over a corpus."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.instance = ""
        self._open: list[int] = []
        self._pending: list[tuple] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        record = Span(name, self._clock(), 0.0,
                      self._open[-1] if self._open else None, self.instance)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def count_later(self, counter, *args) -> None:
        """Queue ``counter(self, *args)`` for settle(), outside every span."""
        self._pending.append((counter, args))

    def settle(self) -> None:
        pending, self._pending = self._pending, []
        for counter, args in pending:
            counter(self, *args)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(index, ())]
        out.append(span.duration - _covered(clipped))
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def nearest_rank(ordered: list[float], percentile: float) -> int:
    """Index of the nearest-rank percentile in an ascending list."""
    return max(0, math.ceil(percentile * len(ordered) / 100.0) - 1)


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the tail latency.

    The percentile is the highest candidate with at least TAIL_MIN_BEYOND
    samples ranked above it; with too few samples for any, the median.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no latency samples")
    for percentile in TAIL_PERCENTILES:
        index = nearest_rank(ordered, percentile)
        beyond = len(ordered) - 1 - index
        if beyond >= TAIL_MIN_BEYOND:
            break
    return percentile, ordered[index], beyond


def median_of_instances(samples: list[float], per_pass: int) -> float:
    """The median over a corpus's instances of each instance's median sample.

    ``samples`` are whole passes, each with one sample per instance in
    corpus order. When two instances of about the same cost sit at the
    middle of the corpus, a pooled median, or a pass's median, is the
    smaller of their noisy samples and reads low by however much the
    machine jitters. An instance's median is steady, and so is the median
    over instances.
    """
    return statistics.median(statistics.median(samples[i::per_pass])
                             for i in range(per_pass))


def passes_for_tail(per_pass: int) -> int:
    """Fewest whole passes whose samples give the highest tail percentile.

    A run makes at least this many passes, so the percentile behind the
    tail latency depends on the corpus alone and not on how many passes a
    slower or faster program fits into the run.
    """
    passes = 1
    while tail_latency([0.0] * (per_pass * passes))[0] != TAIL_PERCENTILES[0]:
        passes += 1
    return passes


# The CPU speed of a shared machine can drift by half or more within a
# minute, and every call slows or speeds up with it. A fixed exact-rational
# computation, timed right before each call, tracks that drift; dividing by
# its median over a pass rescales the pass to a machine on which the
# reference takes REFERENCE_S seconds.
REFERENCE_S = 0.001


def _reference_computation() -> None:
    """Gauss-Jordan elimination of a fixed 6x6 rational matrix."""
    n = 6
    rows = [[Fraction((i * 3 + j * 5) % 11 + 1, (i + 2 * j) % 7 + 1) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_computation()
    return time.perf_counter() - start


def speed_scale(reference_samples: list[float]) -> float:
    """Factor taking times measured alongside these samples to reference speed."""
    return REFERENCE_S / statistics.median(reference_samples)
