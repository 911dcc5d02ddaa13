"""Timing loop and summary statistics shared by every workload."""

import statistics
import time

# a tail figure needs this many passes beyond it to mean anything
TAIL_PASSES = 10


def high_percentile(values):
    """The highest percentile of ``values`` with at least `TAIL_PASSES`
    samples above it.

    Returns ``(value, percentile, rule_met)``.  The percentile uses the
    linear convention, where the k-th smallest of n values sits at
    100*k/(n-1).  With `TAIL_PASSES` or fewer values no percentile meets the
    rule; the smallest value is returned, ``rule_met`` is false, and the
    caller records that along with the sample count.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 1 - TAIL_PASSES, 0)
    percentile = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], percentile, n > TAIL_PASSES


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def timed_passes(run_pass, seconds, deadline, min_passes=1):
    """Run the whole passes that fit in ``seconds``.

    ``run_pass(index)`` does one pass and returns its time.  Another pass
    starts only while the time left is at least the last pass's time, so
    a run does not overrun by a pass; at least ``min_passes`` run, and
    after the monotonic ``deadline`` no more than that.  Returns the pass
    times and the wall time of the loop.
    """
    times = []
    start = time.perf_counter()
    while len(times) < min_passes or (
            time.perf_counter() - start + times[-1] <= seconds
            and time.monotonic() < deadline):
        times.append(run_pass(len(times)))
    return times, time.perf_counter() - start
