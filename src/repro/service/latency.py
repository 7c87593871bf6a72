"""Exact latency percentiles over simulated-cycle samples.

The service's SLO metrics are computed from the *complete* sample set of a
run (no reservoir, no streaming sketch): sweeps are bounded, samples are
integers (cycles), and exactness is what makes the summary artifact
bit-identical across reruns — the acceptance criterion of the whole
subsystem.  Percentiles use the nearest-rank method (``ceil(q/100 * n)``),
which needs no interpolation and therefore never produces a value that was
not observed.
"""

import math


def percentile(samples, q):
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``samples``.

    Returns ``None`` on an empty sample set; with a single sample every
    percentile is that sample.  ``samples`` need not be sorted.
    """
    if not 0 < q <= 100:
        raise ValueError("percentile q must be in (0, 100], got %r" % q)
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q / 100.0 * n)
    return sorted(samples)[rank - 1]


def summarize(samples, percentiles=(50, 95, 99)):
    """The latency block of the service summary: count/mean/extremes/pXX.

    ``mean`` is rounded to 3 decimals (a fixed, platform-independent
    rounding) so the JSON artifact is stable; everything else is an
    observed integer sample or ``None`` on the empty window.
    """
    n = len(samples)
    block = {
        "count": n,
        "min": min(samples) if samples else None,
        "max": max(samples) if samples else None,
        "mean": round(sum(samples) / n, 3) if n else None,
    }
    for q in percentiles:
        block["p%g" % q] = percentile(samples, q)
    return block
