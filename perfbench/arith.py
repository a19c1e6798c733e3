"""The benchmark's own arithmetic: percentiles, spreads, self times, latency.

Pure functions over plain data, so ``test_arith.py`` can pin each rule on
hand-built inputs a few elements long.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence

#: Percentiles considered for the tail, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``values`` (0 < p ≤ 100)."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``-th percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile with ≥ ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it: the sample cannot support any tail claim.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(values), p) >= MIN_BEYOND:
            best = (p, nearest_rank(values, p))
    return best


# ----------------------------------------------------------------------
# Spans → per-layer self time
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.

    ``spans`` holds ``(name, start, end, parent)`` rows, ``parent``
    being the index of the enclosing span or ``-1``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        result.append((end - start) - covered((s, e) for s, e in inner if e > s))
    return result


def layer_seconds(
    spans: Sequence[Sequence],
    hot_calls: Mapping[tuple[str, str | None], int] | None = None,
    sampled: Mapping[str, Sequence[int]] | None = None,
    span_cost: float = 0.0,
) -> dict[str, float]:
    """Self seconds per span name, with untimed calls of hot boundaries estimated.

    The hottest boundaries are counted on every call but timed on only
    some (see the tracer).  ``hot_calls`` maps ``(name, parent name)`` to
    every call's count, and ``sampled`` a hot name to the indexes of its
    spans that form a uniform sample of its calls; without one, all its
    spans are used.  Each untimed call is charged the sample's mean self
    time, less ``span_cost`` — what timing an empty call reads, which
    would otherwise be multiplied by a million calls — and that estimate
    is taken out of the parent's self time, which holds the untimed call.
    """
    own = self_times(spans)
    totals: dict[str, float] = {}
    timed: dict[tuple[str, str | None], int] = {}
    by_name: dict[str, list[int]] = {}
    for index, (row, seconds) in enumerate(zip(spans, own)):
        name, parent = row[0], row[3]
        totals[name] = totals.get(name, 0.0) + seconds
        key = (name, spans[parent][0] if parent >= 0 else None)
        timed[key] = timed.get(key, 0) + 1
        by_name.setdefault(name, []).append(index)
    for (name, parent_name), calls in (hot_calls or {}).items():
        untimed = calls - timed.get((name, parent_name), 0)
        pool = (sampled or {}).get(name) or by_name.get(name)
        if untimed <= 0 or not pool:
            continue
        mean = max(0.0, sum(own[i] for i in pool) / len(pool) - span_cost)
        totals[name] = totals.get(name, 0.0) + untimed * mean
        if parent_name is not None:
            totals[parent_name] = totals.get(parent_name, 0.0) - untimed * mean
    return totals


# ----------------------------------------------------------------------
# Transactions → first decision, latency, failed share
# ----------------------------------------------------------------------
def first_decided_round(
    decisions: Iterable[tuple[int, Hashable]],
    parent_of: Callable[[Hashable], Hashable | None],
    payload_of: Callable[[Hashable], Iterable[Hashable]],
) -> dict[Hashable, int]:
    """Transaction id → round of the first decision whose log contains it.

    ``decisions`` are ``(round, tip)`` pairs; ``tip`` ``None`` is the
    empty log.  Each block is visited once: decisions are taken in round
    order, so a block first reached from a decision at round ``d`` is in
    no log decided before ``d``, and its ancestors were all reached by
    then too.
    """
    first: dict[Hashable, int] = {}
    seen: set[Hashable] = set()
    for round_number, tip in sorted(decisions, key=lambda d: d[0]):
        block = tip
        while block is not None and block not in seen:
            seen.add(block)
            for tx in payload_of(block):
                first.setdefault(tx, round_number)
            block = parent_of(block)
    return first


def tx_outcomes(
    arrivals: Mapping[Hashable, int],
    first_decided: Mapping[Hashable, int],
    rounds: int,
    limit_rounds: int,
) -> tuple[int, int, list[int]]:
    """``(attempted, failed, latencies in rounds)`` for one run.

    A transaction is attempted when it arrived early enough that a
    decision ``limit_rounds`` later still falls inside the run; it
    fails when no decision includes it within that limit.  Latencies
    are those of the attempted transactions that did not fail.
    """
    attempted = failed = 0
    latencies: list[int] = []
    for tx, arrived in arrivals.items():
        if arrived + limit_rounds > rounds - 1:
            continue
        attempted += 1
        decided = first_decided.get(tx)
        if decided is None or decided - arrived > limit_rounds:
            failed += 1
        else:
            latencies.append(decided - arrived)
    return attempted, failed, latencies


def ratio(part: float, whole: float) -> float:
    """``part / whole``, and 0 for an empty whole (nothing happened)."""
    return part / whole if whole else 0.0
