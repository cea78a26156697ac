"""Pure helpers of the benchmark: percentiles, digests, accuracy.

Kept free of any import of the program, so the benchmark's self-tests
exercise them without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Table 1 of the paper: the six values it reports, as
#: ``(category, method, column) -> value``.  Saved power is in percent
#: of the fixed-60 Hz baseline, display quality in percent.  The same
#: numbers are quoted in the docstring of ``repro.experiments.table1``.
PAPER_TABLE1: Tuple[Tuple[str, str, str, float], ...] = (
    ("general", "section", "saved_power_percent", 18.6),
    ("game", "section", "saved_power_percent", 27.0),
    ("general", "section", "display_quality_percent", 74.1),
    ("general", "section+boost", "display_quality_percent", 95.7),
    ("game", "section", "display_quality_percent", 88.5),
    ("game", "section+boost", "display_quality_percent", 96.0),
)


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """0-based rank of the highest sample with ``beyond`` samples above
    it in a sorted list of ``n``, or None when ``n <= beyond``."""
    if n <= beyond:
        return None
    return n - beyond - 1


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Optional[float]:
    """The percentile :func:`tail_rank` reports, e.g. 90.0 for n=100."""
    rank = tail_rank(n, beyond)
    if rank is None:
        return None
    return 100.0 * (rank + 1) / n


def latency_summary(samples: Sequence[float],
                    beyond: int = TAIL_BEYOND) -> Mapping[str, Any]:
    """Median and tail of one set of latency samples, with n."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latency samples")
    rank = tail_rank(n, beyond)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": ordered[rank] if rank is not None else None,
        "tail_percentile": tail_percentile(n, beyond),
    }


def session_times(start: float, stamps: Sequence[float], *,
                  pooled: bool = False,
                  burst_gap_s: float = 2e-4) -> List[float]:
    """Host seconds per session from one batch's progress timestamps.

    A serial batch reports each session as it finishes, so the gap
    before a callback is that session's time.  Cache hits resolve in a
    burst: callbacks less than ``burst_gap_s`` apart belong to the
    burst of the callback before them, and the burst's time is shared
    evenly among its sessions.  A pool reports whole chunks whenever
    they complete, in input order, so a pooled batch's wall time is
    shared evenly among all of its sessions.
    """
    if pooled and stamps:
        return [(stamps[-1] - start) / len(stamps)] * len(stamps)
    times: List[float] = []
    previous = start
    burst: List[float] = []
    for stamp in stamps:
        gap = stamp - previous
        if burst and gap < burst_gap_s:
            burst.append(gap)
        else:
            if burst:
                times.extend([sum(burst) / len(burst)] * len(burst))
            burst = [gap]
        previous = stamp
    if burst:
        times.extend([sum(burst) / len(burst)] * len(burst))
    return times


def unit_digest(unit: Any) -> str:
    """Short digest of one output unit (a session summary, a cell)."""
    text = json.dumps(unit, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def count_mismatches(expected: Optional[Sequence[str]],
                     actual: Sequence[str]) -> int:
    """Output units of ``actual`` that differ from ``expected``.

    ``expected=None`` means there is nothing to compare against.  A
    length mismatch counts every unit without a partner as failed.
    """
    if expected is None:
        return 0
    mismatched = sum(1 for want, got in zip(expected, actual)
                     if want != got)
    return mismatched + abs(len(expected) - len(actual))


def table1_err_pp(simulated: Mapping[Tuple[str, str, str], float],
                  reference: Iterable[Tuple[str, str, str, float]]
                  = PAPER_TABLE1) -> float:
    """Mean absolute difference, in percentage points, between the
    simulated Table 1 cells and the values the paper reports."""
    diffs: List[float] = []
    for category, method, column, paper in reference:
        diffs.append(abs(simulated[(category, method, column)] - paper))
    return sum(diffs) / len(diffs)
