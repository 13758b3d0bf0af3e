"""Unit tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmath import (  # noqa: E402
    UOP_CACHE_FIELDS,
    digest_mismatches,
    document_digest,
    min_samples,
    percentile,
    quartiles,
    reconcile,
    relative_spread,
    self_times,
    stats_digest,
    tail_percentile,
    worse_by,
)


# -- percentiles -------------------------------------------------------
def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert min_samples(90) == 100
    assert min_samples(50) == 20


def test_p90_of_a_hundred_is_the_ninetieth_with_ten_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == (90, 10)
    assert tail_percentile(values, 90) == (90, 100)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert tail_percentile(values, 50) == (3.0, 100)


def test_tail_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(list(range(99)), 90)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 9.9, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert relative_spread(values) == (q3 - q1) / q2


def test_worse_by_respects_direction():
    assert worse_by(100.0, 80.0, "higher") == pytest.approx(0.2)
    assert worse_by(1.0, 1.2, "lower") == pytest.approx(0.2)
    assert worse_by(1.0, 0.9, "lower") == pytest.approx(-0.1)


# -- self times --------------------------------------------------------
def test_self_time_is_span_minus_children():
    spans = [
        (None, 0.0, 10.0, 0),          # the pass
        ("stage", 1.0, 5.0, 1),
        ("golden", 2.0, 3.0, 2),
        ("golden", 3.5, 4.0, 2),
        ("stage", 6.0, 9.0, 1),
    ]
    seconds = self_times(spans)
    assert seconds["golden"] == pytest.approx(1.5)
    assert seconds["stage"] == pytest.approx(4.0 - 1.5 + 3.0)
    assert seconds["unattributed"] == pytest.approx(10.0 - 7.0)


def test_overlapping_spans_are_credited_once_by_priority():
    spans = [
        (None, 0.0, 10.0, 0),
        ("simulate", 1.0, 6.0, 1),      # worker 1
        ("simulate", 2.0, 8.0, 1),      # worker 2, overlapping
        ("put", 5.0, 9.0, 1),           # parent, overlapping both
    ]
    seconds = self_times(spans, priority=("simulate", "put"))
    assert seconds["simulate"] == pytest.approx(7.0)
    assert seconds["put"] == pytest.approx(1.0)
    assert seconds["unattributed"] == pytest.approx(2.0)
    assert sum(seconds.values()) == pytest.approx(10.0)


# -- reconciliation ----------------------------------------------------
def test_reconcile_accepts_a_partition_of_the_wall():
    spans = [(None, 0.0, 4.0, 0), ("a", 0.5, 1.5, 1), ("b", 1.0, 3.0, 2)]
    seconds = self_times(spans)
    assert abs(reconcile(seconds, 4.0)) < 1e-12


def test_reconcile_rejects_missing_time():
    with pytest.raises(ValueError, match="traced wall"):
        reconcile({"a": 1.0, "unattributed": 2.0}, 4.0)


# -- digests -----------------------------------------------------------
PAYLOAD = {
    "cycles": 1000, "committed": 800, "renamed": 3000,
    "uop_cache_hits": 2900, "uop_cache_misses": 20, "uop_cache_evictions": 0,
    "decode_counts": {"compress": 20}, "uop_cache_hits_by_class": {"int": 2900},
    "per_instance_committed": {"0": 800},
}


def test_stats_digest_ignores_only_the_uop_cache_counters():
    moved = dict(PAYLOAD, uop_cache_hits=1, decode_counts={"compress": 99})
    assert stats_digest(moved) == stats_digest(PAYLOAD)
    assert set(PAYLOAD) & UOP_CACHE_FIELDS
    assert stats_digest(dict(PAYLOAD, cycles=1001)) != stats_digest(PAYLOAD)


def test_document_digest_ignores_the_same_counters_in_a_result_document():
    document = {
        "cycles": 1000, "committed": 800,
        "uop_cache": {"hits": 2900, "misses": 20},
        "decant": {"uop_cache_hits_by_class": {"int": 2900}, "reused_by_class": {"int": 3}},
    }
    moved = dict(document, uop_cache={"hits": 5},
                 decant={"uop_cache_hits_by_class": {}, "reused_by_class": {"int": 3}})
    assert document_digest(moved) == document_digest(document)
    reuse_moved = dict(document, decant={"uop_cache_hits_by_class": {"int": 2900},
                                         "reused_by_class": {"int": 4}})
    assert document_digest(reuse_moved) != document_digest(document)


def test_digest_mismatches_names_each_difference():
    expected = {"compress": "aaa", "gcc": "bbb"}
    observed = [("compress", "aaa"), ("gcc", "ccc"), ("go", "ddd")]
    problems = digest_mismatches(expected, observed)
    assert problems == ["gcc: digest ccc != expected bbb", "go: no committed digest"]
    assert digest_mismatches(expected, [("compress", "aaa")]) == []
