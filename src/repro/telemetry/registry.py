"""Hierarchical metric registry: counters, gauges and histograms.

The registry is the single sink every layer of the simulator reports into
when telemetry is enabled: the scheduler (``sm.3.warp_steps``), the memory
system (``mem.coalesced_txns``), the lock table and every STM runtime
(``stm.hv_sorting.aborts.lock_conflict``).  Names are dot-separated
hierarchies; dashes are normalized to underscores so variant names like
``hv-sorting`` produce stable metric paths.

Three instrument kinds cover the harness's needs:

* :class:`Counter` — a monotonically accumulated event count.  Merging two
  registries *sums* counters, which is what makes the cross-process
  aggregation of ``run_jobs`` sweeps exact: the merged total equals the sum
  of the per-worker totals.
* :class:`Gauge` — a point-in-time value (queue depth, clock value,
  watchdog snapshot field).  Merging keeps the last set value, except for
  names under ``MIN_GAUGE_PREFIXES`` (first-violation cycles) which keep
  the minimum across workers.
* :class:`Histogram` — a power-of-two-bucketed distribution (transaction
  footprint sizes, kernel cycle counts).  Merging sums per-bucket counts.

Everything round-trips through plain JSON (:meth:`MetricRegistry.as_dict` /
:meth:`MetricRegistry.from_dict`), which is how worker processes ship their
registries back to the parent.
"""

import json

#: Gauge-name prefixes merged with min() instead of last-writer-wins:
#: "cycle of the first X" only aggregates meaningfully as the earliest.
MIN_GAUGE_PREFIXES = ("sanitizer.first_violation.",)


def metric_name(*parts):
    """Join name ``parts`` into a dotted path, normalizing dashes.

    ``metric_name("stm", "hv-sorting", "aborts")`` ->
    ``"stm.hv_sorting.aborts"``.  Empty/None parts are dropped.
    """
    return ".".join(
        str(part).replace("-", "_") for part in parts if part not in (None, "")
    )


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def add(self, amount=1):
        self.value += amount


class Gauge:
    """A point-in-time value; ``None`` until first set."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=None):
        self.name = name
        self.value = value

    def set(self, value):
        self.value = value


class Histogram:
    """A power-of-two-bucketed distribution of observed values.

    Bucket ``k`` (k >= 1) counts observations with ``2**(k-1) <= value <
    2**k``; bucket 0 counts values <= 0.  Exact enough for footprint-size
    and cycle-count distributions while staying mergeable and tiny.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    @staticmethod
    def bucket_of(value):
        """Bucket index of ``value`` (0 for non-positive values)."""
        if value <= 0:
            return 0
        return int(value).bit_length()

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = self.bucket_of(value)
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1

    def merge(self, other):
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        buckets = self.buckets
        for bucket, count in other.buckets.items():
            buckets[bucket] = buckets.get(bucket, 0) + count

    def as_dict(self):
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            # JSON object keys are strings; from_dict converts them back
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, name, data):
        histogram = cls(name)
        histogram.count = data.get("count", 0)
        histogram.total = data.get("total", 0)
        histogram.min = data.get("min")
        histogram.max = data.get("max")
        histogram.buckets = {
            int(k): v for k, v in data.get("buckets", {}).items()
        }
        return histogram


class MetricRegistry:
    """Get-or-create registry of named counters, gauges and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            self._counters[name] = counter = Counter(name)
        return counter

    def gauge(self, name):
        gauge = self._gauges.get(name)
        if gauge is None:
            self._gauges[name] = gauge = Gauge(name)
        return gauge

    def histogram(self, name):
        histogram = self._histograms.get(name)
        if histogram is None:
            self._histograms[name] = histogram = Histogram(name)
        return histogram

    # convenience one-shot forms
    def add(self, name, amount=1):
        self.counter(name).add(amount)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Bulk reporting
    # ------------------------------------------------------------------
    def absorb_counters(self, prefix, counters):
        """Merge a :class:`repro.common.stats.Counters` bag (or a plain
        mapping) under ``prefix``: the bag's dotted names are appended to
        the prefix, dashes normalized (``aborts.lock-conflict`` under
        ``stm.hv-sorting`` becomes ``stm.hv_sorting.aborts.lock_conflict``).
        """
        items = counters.as_dict() if hasattr(counters, "as_dict") else dict(counters)
        for name, value in items.items():
            self.add(metric_name(prefix, name), value)

    def merge(self, other):
        """Accumulate another registry: counters sum, gauges keep the
        incoming value when set, histograms merge bucket-wise.

        Gauges under ``MIN_GAUGE_PREFIXES`` (first-violation cycles) take
        the *minimum* of both sides instead: "earliest detection" is the
        only merge that means anything across workers.
        """
        for name, counter in other._counters.items():
            self.counter(name).add(counter.value)
        for name, gauge in other._gauges.items():
            if gauge.value is not None:
                mine = self.gauge(name)
                if (mine.value is not None
                        and name.startswith(MIN_GAUGE_PREFIXES)
                        and mine.value <= gauge.value):
                    continue
                mine.set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def counters_dict(self):
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges_dict(self):
        return {name: g.value for name, g in sorted(self._gauges.items())}

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self):
        return {
            "counters": self.counters_dict(),
            "gauges": self.gauges_dict(),
            "histograms": {
                name: h.as_dict() for name, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data):
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).add(value)
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, payload in data.get("histograms", {}).items():
            registry._histograms[name] = Histogram.from_dict(name, payload)
        return registry

    def write_json(self, path):
        """Write the registry to ``path`` as JSON; returns the path.

        The write is atomic (temp file + ``os.replace``): a killed process
        never leaves a truncated registry behind.
        """
        from repro.common.fsio import atomic_write_json

        return atomic_write_json(path, self.as_dict())
