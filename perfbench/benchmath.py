"""The benchmark's own arithmetic: percentiles, spreads, self times, digests.

Everything here is pure (no clock, no simulator import) so the unit
tests in ``perfbench/tests`` can pin it down exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10

#: SimStats fields exempt from the digest.  These are the decoded-uop
#: cache counters that batch parity already exempts (the same set as
#: ``UOP_CACHE_FIELDS`` in ``tools/bench_batch_sweep.py``): a lockstep
#: sibling may warm the shared decode store first, which moves them
#: without changing the simulated machine.
UOP_CACHE_FIELDS = frozenset(
    {
        "uop_cache_hits",
        "uop_cache_misses",
        "uop_cache_evictions",
        "decode_counts",
        "uop_cache_hits_by_class",
    }
)


# ----------------------------------------------------------------------
# Percentiles and spreads
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the number of
    samples strictly beyond it (ranked after it).

    The nearest rank is ``ceil(q / 100 * n)``; p90 of 100 samples is the
    90th smallest, with 10 samples beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the ``q``-th percentile has ``beyond``
    samples past it (100 for p90 with the ten-sample rule)."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < beyond:
        n += 1
    return n


def tail_percentile(values: Sequence[float], q: float,
                    beyond: int = MIN_BEYOND) -> Tuple[float, int]:
    """:func:`percentile` that refuses to report a tail it cannot back:
    raises ``ValueError`` when fewer than ``beyond`` samples lie past it.
    Returns ``(value, sample_count)``."""
    value, past = percentile(values, q)
    if past < beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {past} beyond it; "
            f"need {beyond} (at least {min_samples(q, beyond)} samples)"
        )
    return value, len(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def worse_by(parent: float, child: float, better: str) -> float:
    """How much ``child`` is worse than ``parent``, as a share of
    ``parent`` (negative when it is better)."""
    if parent == 0:
        return 0.0 if child == parent else math.inf
    change = (child - parent) / abs(parent)
    return -change if better == "higher" else change


# ----------------------------------------------------------------------
# Spans → self times
# ----------------------------------------------------------------------
#: One span: (layer, start, end, depth).  ``layer`` None marks a
#: structural span (a pass, an operation) whose own time is unattributed.
Span = Tuple[Optional[str], float, float, int]


def self_times(spans: Iterable[Span], priority: Sequence[str] = (),
               unattributed: str = "unattributed") -> Dict[str, float]:
    """Split the wall time the spans cover into per-layer self times.

    Each instant belongs to exactly one span: the deepest one active
    then, and among equally deep spans of different layers the one
    whose layer comes first in ``priority``.  A layer's self time is
    the total of the instants it owns.  For properly nested spans on
    one thread this is the classic rule, a span's duration minus its
    children's; where spans overlap (two worker processes or threads),
    the overlap is credited once, so self times always partition the
    covered wall.  Instants owned by structural spans (layer ``None``)
    go to ``unattributed``.
    """
    rank = {name: index for index, name in enumerate(priority)}
    events: List[Tuple[float, int, int]] = []
    span_list = [span for span in spans if span[2] > span[1]]
    for index, (_, start, end, _) in enumerate(span_list):
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()

    def owner_key(index: int) -> Tuple[int, int]:
        layer, _, _, depth = span_list[index]
        return (-depth, rank.get(layer, len(rank)) if layer is not None else len(rank) + 1)

    totals: Dict[str, float] = {}
    active: Dict[int, Tuple[int, int]] = {}
    previous: Optional[float] = None
    for time, kind, index in events:
        if active and previous is not None and time > previous:
            owner = min(active, key=active.__getitem__)
            layer = span_list[owner][0]
            name = unattributed if layer is None else layer
            totals[name] = totals.get(name, 0.0) + (time - previous)
        previous = time
        if kind == 1:
            active[index] = owner_key(index)
        else:
            active.pop(index, None)
    return totals


def reconcile(layer_seconds: Mapping[str, float], wall: float,
              tolerance: float = 1e-9) -> float:
    """Check that per-layer self times add up to ``wall``.

    Returns the residual (sum minus wall); raises ``ValueError`` when it
    exceeds ``tolerance`` relative to the wall.
    """
    residual = math.fsum(layer_seconds.values()) - wall
    if abs(residual) > tolerance * max(1.0, abs(wall)):
        raise ValueError(
            f"layer self times sum to {math.fsum(layer_seconds.values()):.9f}s "
            f"but the traced wall is {wall:.9f}s"
        )
    return residual


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------
def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def stats_digest(stats_payload: Mapping) -> str:
    """Digest of a ``SimStats`` payload (``repro.exec.jobs.stats_to_payload``)
    without the decoded-uop-cache counters."""
    return _digest(
        {name: value for name, value in stats_payload.items()
         if name not in UOP_CACHE_FIELDS}
    )


def document_digest(stats_document: Mapping) -> str:
    """Digest of a service result's ``stats`` document
    (``repro.stats.export.stats_to_dict``) without the same counters:
    its ``uop_cache`` block and ``decant.uop_cache_hits_by_class``."""
    document = {name: value for name, value in stats_document.items()
                if name != "uop_cache"}
    decant = dict(document.get("decant", {}))
    decant.pop("uop_cache_hits_by_class", None)
    document["decant"] = decant
    return _digest(document)


def digest_mismatches(expected: Mapping[str, str],
                      observed: Iterable[Tuple[str, str]]) -> List[str]:
    """Describe every observed ``(key, digest)`` that differs from the
    committed table or has no entry in it; empty when all match."""
    problems = []
    for key, digest in observed:
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no committed digest")
        elif want != digest:
            problems.append(f"{key}: digest {digest} != expected {want}")
    return problems
