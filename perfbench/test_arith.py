"""Tiny-scale tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import pytest
from arith import (
    covered,
    first_decided_round,
    layer_seconds,
    nearest_rank,
    ratio,
    self_times,
    tail_percentile,
    tx_outcomes,
)


# ----------------------------------------------------------------------
# Percentile with at least ten samples beyond it
# ----------------------------------------------------------------------
def test_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert nearest_rank(values, 50) == 3
    assert nearest_rank(values, 100) == 5
    assert nearest_rank(values, 1) == 1


def test_tail_percentile_needs_ten_beyond():
    # 19 samples: the median has 9 above it, too few for any claim.
    assert tail_percentile(list(range(19))) is None
    # 20 samples: the median has exactly 10 above it.
    assert tail_percentile(list(range(20))) == (50.0, 9)


def test_tail_percentile_picks_highest_supported():
    values = list(range(1, 141))  # ~140 transactions, as in one deploy run pair
    # p90 leaves 14 beyond; p95 leaves 7, which is not enough.
    assert tail_percentile(values) == (90.0, 126)
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990)


# ----------------------------------------------------------------------
# Self time with nested spans
# ----------------------------------------------------------------------
def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_self_time_subtracts_children_only_once():
    spans = [
        ("receive", 0.0, 10.0, -1),
        ("record", 1.0, 3.0, 0),
        ("offer", 4.0, 6.0, 0),
        ("add", 4.5, 5.5, 2),  # grandchild: charged to offer, not receive
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_seconds_sums_self_time_per_name():
    spans = [
        ("send", 0.0, 4.0, -1),
        ("grade", 1.0, 2.0, 0),
        ("send", 5.0, 7.0, -1),
        ("grade", 5.5, 6.0, 2),
    ]
    assert layer_seconds(spans) == {"send": 4.5, "grade": 1.5}


def test_layer_seconds_estimates_sampled_hot_calls():
    # Four offers ran under "receive"; one was timed (1 s of self time).
    spans = [("receive", 0.0, 10.0, -1), ("offer", 2.0, 3.0, 0)]
    hot = {("offer", "receive"): 4}
    seconds = layer_seconds(spans, hot)
    assert seconds["offer"] == pytest.approx(4.0)
    # The three untimed offers (3 s) leave the receive span's self time.
    assert seconds["receive"] == pytest.approx(10.0 - 1.0 - 3.0)


def test_layer_seconds_leaves_out_span_cost():
    # The timed offer read 1 s, of which 0.25 s is the cost of timing it.
    spans = [("receive", 0.0, 10.0, -1), ("offer", 2.0, 3.0, 0)]
    seconds = layer_seconds(spans, {("offer", "receive"): 4}, span_cost=0.25)
    assert seconds["offer"] == pytest.approx(1.0 + 3 * 0.75)
    assert seconds["receive"] == pytest.approx(9.0 - 3 * 0.75)


def test_layer_seconds_estimates_from_the_uniform_sample_only():
    # Two offers under "receive" were timed in full (1 s each), then the
    # uniform sample timed one more (3 s); 6 of the 9 calls went untimed.
    spans = [
        ("receive", 0.0, 20.0, -1),
        ("offer", 1.0, 2.0, 0),
        ("offer", 3.0, 4.0, 0),
        ("offer", 5.0, 8.0, 0),
    ]
    seconds = layer_seconds(spans, {("offer", "receive"): 9}, sampled={"offer": [3]})
    assert seconds["offer"] == pytest.approx(5.0 + 6 * 3.0)
    assert seconds["receive"] == pytest.approx(15.0 - 6 * 3.0)


def test_layer_seconds_all_calls_timed_needs_no_estimate():
    spans = [("receive", 0.0, 10.0, -1), ("offer", 2.0, 3.0, 0)]
    assert layer_seconds(spans, {("offer", "receive"): 1}) == {"receive": 9.0, "offer": 1.0}


def test_layer_seconds_hot_calls_at_top_level():
    spans = [("offer", 0.0, 2.0, -1)]
    seconds = layer_seconds(spans, {("offer", None): 3})
    assert seconds == {"offer": pytest.approx(6.0)}


# ----------------------------------------------------------------------
# Transaction-latency attribution on a hand-built trace
# ----------------------------------------------------------------------
def _chain():
    # genesis <- a(t1) <- b(t2, t3) <- c(t4);  a <- x(t5) is a fork.
    parent = {"g": None, "a": "g", "b": "a", "c": "b", "x": "a"}
    payload = {"g": [], "a": ["t1"], "b": ["t2", "t3"], "c": ["t4"], "x": ["t5"]}
    return parent.__getitem__, payload.__getitem__


def test_first_decided_round_takes_earliest_decision():
    parent_of, payload_of = _chain()
    # Decisions out of order: a later deep decision must not override
    # the earlier, shallower one that already included t1.
    decisions = [(9, "c"), (5, "a"), (7, "b"), (5, "a"), (3, None)]
    first = first_decided_round(decisions, parent_of, payload_of)
    assert first == {"t1": 5, "t2": 7, "t3": 7, "t4": 9}


def test_tx_outcomes_limits_and_eligibility():
    arrivals = {"t1": 0, "t2": 1, "t3": 2, "t4": 6, "t5": 1}
    first = {"t1": 4, "t2": 9, "t3": 5}  # t5 never decided
    # 10 rounds, limit 4: arrivals after round 5 cannot be judged (t4).
    attempted, failed, latencies = tx_outcomes(arrivals, first, rounds=10, limit_rounds=4)
    assert attempted == 4
    assert failed == 2  # t2 took 8 rounds, t5 was never decided
    assert sorted(latencies) == [3, 4]


# ----------------------------------------------------------------------
# Failed-share ratios
# ----------------------------------------------------------------------
def test_ratio():
    assert ratio(2, 8) == 0.25
    assert ratio(0, 0) == 0.0
