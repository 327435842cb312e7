"""Order statistics for timing samples."""

import statistics

TAIL_BEYOND = 10


def summarize(samples):
    """Median, sample count, and the highest percentile that still has at
    least TAIL_BEYOND samples above it (None when there are too few).

    The tail is reported as (percent, value): for 30 samples it is the
    20th smallest, the 66.7th percentile, with 10 samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    tail = None
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        tail = (100.0 * rank / n, ordered[rank - 1])
    return {"n": n, "p50": statistics.median(ordered), "tail": tail}
