"""Labelled counters, gauges and quantile histograms for the pipeline.

A :class:`MetricsRegistry` interns :class:`Counter`, :class:`Gauge` and
:class:`Histogram` instruments by ``(name, labels)``; hot loops hold the instrument object
itself (one dict lookup per *loop*, one integer add per *event*).  The
registry renders to a machine-readable snapshot via :meth:`to_dict` /
:meth:`to_json` — consumed by the run-report subsystem
(:mod:`repro.observe.report`), the benchmark harnesses and the
``python -m repro coverage`` report — and to the Prometheus text
exposition format via :meth:`to_prometheus`, so a long-running service
can serve its live stats with one call.

:class:`Histogram` is a fixed log-bucket sketch (DDSketch-style): every
sample lands in the bucket ``(GAMMA**(i-1), GAMMA**i]``, so
:meth:`Histogram.quantile` answers p50/p90/p99 with bounded *relative*
error (:data:`QUANTILE_RELATIVE_ERROR`, ~4.8% for the default
``GAMMA = 1.1``) from O(log(max/min)) integers.  Bucket counts add under
merging, so K per-worker snapshots folded through
:meth:`MetricsRegistry.merge_snapshot` give exactly the same quantile
estimates as one combined stream.

Label values are coerced to ``str`` when the instrument is interned:
``labels={"n": 1}`` and ``labels={"n": "1"}`` address the **same**
instrument by design (snapshots travel through JSON, where non-string
scalars would otherwise round-trip into a second instrument).  Callers
that need distinct instruments must use distinct strings.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "GAMMA",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QUANTILE_RELATIVE_ERROR",
]

_LabelKey = Tuple[Tuple[str, str], ...]

#: log-bucket growth factor of the histogram sketch
GAMMA = 1.1
#: documented bound on the relative error of :meth:`Histogram.quantile`:
#: the bucket representative ``2*GAMMA**i/(GAMMA+1)`` is within
#: ``(GAMMA-1)/(GAMMA+1)`` of every value in bucket ``i``
QUANTILE_RELATIVE_ERROR = (GAMMA - 1.0) / (GAMMA + 1.0)

_INV_LOG_GAMMA = 1.0 / math.log(GAMMA)
#: representative factor: the mid-point estimate for bucket ``i`` is
#: ``GAMMA**i * 2/(GAMMA+1)``
_REP_FACTOR = 2.0 / (GAMMA + 1.0)


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    """Canonical interning key: sorted pairs with str-coerced values.

    The coercion means ``{"n": 1}`` and ``{"n": "1"}`` collide into one
    instrument — intentional, see the module docstring.
    """
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _bucket_index(value: float) -> int:
    """The sketch bucket for a positive value: ``(γ^(i-1), γ^i]``."""
    return math.ceil(math.log(value) * _INV_LOG_GAMMA - 1e-9)


def _bucket_value(index: int) -> float:
    """The representative (mid-point) estimate for bucket ``index``."""
    return (GAMMA ** index) * _REP_FACTOR


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """A settable level instrument (queue depth, open connections).

    Unlike a :class:`Counter`, a gauge goes both ways: :meth:`set`
    pins it to an absolute level, :meth:`inc`/:meth:`dec` adjust it.
    Under :meth:`MetricsRegistry.merge_snapshot` gauge levels *add* —
    the natural reading for the fabric's per-worker snapshots, where
    the merged value is the fleet-wide level (sum of per-process queue
    depths), not any single process's.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Pin the gauge to an absolute level."""
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        """Raise the level by ``n`` (default 1)."""
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        """Lower the level by ``n`` (default 1)."""
        self.value -= n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


class Histogram:
    """A log-bucket quantile sketch plus exact count/total/min/max.

    Samples land in sparse integer buckets keyed by
    ``ceil(log_GAMMA(|value|))`` (positive and negative values in
    separate maps, exact zeros counted apart), so the sketch supports:

    * :meth:`quantile` with relative error bounded by
      :data:`QUANTILE_RELATIVE_ERROR` (estimates are additionally
      clamped to the exact observed ``[min, max]``);
    * exact lossless merging — adding two sketches' buckets gives the
      sketch of the concatenated streams (see
      :meth:`MetricsRegistry.merge_snapshot`).
    """

    __slots__ = (
        "name", "labels", "count", "total", "min", "max",
        "buckets", "neg_buckets", "zeros",
    )

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: sparse bucket counts for positive samples
        self.buckets: Dict[int, int] = {}
        #: sparse bucket counts for the magnitudes of negative samples
        self.neg_buckets: Dict[int, int] = {}
        #: exact-zero sample count
        self.zeros = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0.0:
            i = _bucket_index(value)
            self.buckets[i] = self.buckets.get(i, 0) + 1
        elif value < 0.0:
            i = _bucket_index(-value)
            self.neg_buckets[i] = self.neg_buckets.get(i, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of the stream.

        Walks the sketch in value order (negative buckets descending,
        zeros, positive buckets ascending) to the sample of rank
        ``q * (count - 1)`` and returns that bucket's mid-point
        representative, clamped to the observed ``[min, max]`` — so the
        estimate is within :data:`QUANTILE_RELATIVE_ERROR` of the true
        quantile.  ``q = 0`` / ``q = 1`` return the exact observed
        ``min`` / ``max``.  Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction out of range: {q}")
        if not self.count:
            return None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        cum = 0
        for i in sorted(self.neg_buckets, reverse=True):
            cum += self.neg_buckets[i]
            if cum > rank:
                return self._clamp(-_bucket_value(i))
        if self.zeros:
            cum += self.zeros
            if cum > rank:
                return self._clamp(0.0)
        for i in sorted(self.buckets):
            cum += self.buckets[i]
            if cum > rank:
                return self._clamp(_bucket_value(i))
        return self.max

    def _clamp(self, value: float) -> float:
        if self.min is not None and value < self.min:
            return self.min
        if self.max is not None and value > self.max:
            return self.max
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Histogram {self.name}{dict(self.labels)} "
            f"n={self.count} mean={self.mean:.3g}>"
        )


class MetricsRegistry:
    """Interns instruments by ``(name, labels)`` and snapshots them."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}

    # -- instruments ---------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = Counter(name, key[1])
            self._counters[key] = c
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = Gauge(name, key[1])
            self._gauges[key] = g
        return g

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = Histogram(name, key[1])
            self._histograms[key] = h
        return h

    # -- queries -------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> int:
        """Current value of a counter, 0 if it was never incremented."""
        c = self._counters.get((name, _label_key(labels)))
        return c.value if c is not None else 0

    def gauge_value(self, name: str, **labels: Any) -> float:
        """Current level of a gauge, 0.0 if it was never touched."""
        g = self._gauges.get((name, _label_key(labels)))
        return g.value if g is not None else 0.0

    def counters(self, name: Optional[str] = None) -> Iterator[Counter]:
        """All counters, optionally filtered by instrument name."""
        for c in self._counters.values():
            if name is None or c.name == name:
                yield c

    def gauges(self, name: Optional[str] = None) -> Iterator[Gauge]:
        """All gauges, optionally filtered by instrument name."""
        for g in self._gauges.values():
            if name is None or g.name == name:
                yield g

    def histograms(self, name: Optional[str] = None) -> Iterator[Histogram]:
        """All histograms, optionally filtered by instrument name."""
        for h in self._histograms.values():
            if name is None or h.name == name:
                yield h

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-ready snapshot: every counter and histogram with labels.

        Histogram entries carry the sparse bucket maps (JSON object keys
        are strings, so bucket indices are stringified) alongside the
        summary stats and p50/p90/p99 conveniences, which makes the
        snapshot both mergeable (:meth:`merge_snapshot`) and directly
        consumable by report tooling.
        """
        counters = [
            {"name": c.name, "labels": dict(c.labels), "value": c.value}
            for c in self._counters.values()
        ]
        gauges = [
            {"name": g.name, "labels": dict(g.labels), "value": g.value}
            for g in self._gauges.values()
        ]
        histograms = [
            {
                "name": h.name,
                "labels": dict(h.labels),
                "count": h.count,
                "total": h.total,
                "min": h.min,
                "max": h.max,
                "mean": h.mean,
                "p50": h.quantile(0.5),
                "p90": h.quantile(0.9),
                "p99": h.quantile(0.99),
                "buckets": {str(i): n for i, n in sorted(h.buckets.items())},
                "neg_buckets": {
                    str(i): n for i, n in sorted(h.neg_buckets.items())
                },
                "zeros": h.zeros,
            }
            for h in self._histograms.values()
        ]
        out: Dict[str, List[Dict[str, Any]]] = {
            "counters": counters,
            "histograms": histograms,
        }
        if gauges:
            # Only present when used — older snapshot consumers (and the
            # checked-in report baseline) predate the key.
            out["gauges"] = gauges
        return out

    def to_json(self, indent: Optional[int] = 1) -> str:
        """:meth:`to_dict`, serialized."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def merge_snapshot(self, snapshot: Dict[str, List[Dict[str, Any]]]) -> None:
        """Fold a :meth:`to_dict` payload into this registry.

        Counters add; histograms combine exactly — bucket counts add, so
        quantiles of the merged sketch equal quantiles of the combined
        sample stream.  This is how the execution fabric aggregates
        per-worker registries back into one sweep-wide registry (workers
        can't share the parent's instruments, so they ship snapshots
        instead).
        """
        for c in snapshot.get("counters", ()):
            self.counter(c["name"], **c["labels"]).inc(c["value"])
        for g in snapshot.get("gauges", ()):
            # Levels add across processes (see the Gauge docstring).
            self.gauge(g["name"], **g["labels"]).inc(g["value"])
        for h in snapshot.get("histograms", ()):
            inst = self.histogram(h["name"], **h["labels"])
            if not h["count"]:
                continue
            inst.count += h["count"]
            inst.total += h["total"]
            if inst.min is None or h["min"] < inst.min:
                inst.min = h["min"]
            if inst.max is None or h["max"] > inst.max:
                inst.max = h["max"]
            for i, n in h["buckets"].items():
                i = int(i)
                inst.buckets[i] = inst.buckets.get(i, 0) + n
            for i, n in h["neg_buckets"].items():
                i = int(i)
                inst.neg_buckets[i] = inst.neg_buckets.get(i, 0) + n
            inst.zeros += h["zeros"]

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Render every instrument in the Prometheus text exposition.

        Counters become ``counter`` samples; histograms become
        ``summary`` families with ``{quantile="0.5|0.9|0.99"}`` samples
        plus ``_sum``/``_count`` — the one-liner a ``/metrics`` stats
        endpoint needs.  Instrument names are prefixed and sanitized to
        the Prometheus grammar; label values are escaped.
        """
        lines: List[str] = []
        seen_types: Dict[str, None] = {}

        def metric_name(name: str) -> str:
            safe = "".join(
                ch if ch.isalnum() or ch == "_" else "_" for ch in name
            )
            return prefix + safe

        def label_str(labels: _LabelKey, extra: str = "") -> str:
            parts = [
                '%s="%s"'
                % (
                    k,
                    v.replace("\\", r"\\").replace('"', r"\"")
                    .replace("\n", r"\n"),
                )
                for k, v in labels
            ]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        for c in self._counters.values():
            name = metric_name(c.name)
            if name not in seen_types:
                seen_types[name] = None
                lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{label_str(c.labels)} {c.value}")
        for g in self._gauges.values():
            name = metric_name(g.name)
            if name not in seen_types:
                seen_types[name] = None
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{label_str(g.labels)} {g.value:g}")
        for h in self._histograms.values():
            name = metric_name(h.name)
            if name not in seen_types:
                seen_types[name] = None
                lines.append(f"# TYPE {name} summary")
            for q in (0.5, 0.9, 0.99):
                est = h.quantile(q)
                if est is None:
                    continue
                qlabel = 'quantile="%s"' % q
                lines.append(
                    f"{name}{label_str(h.labels, qlabel)} {est:g}"
                )
            lines.append(f"{name}_sum{label_str(h.labels)} {h.total:g}")
            lines.append(f"{name}_count{label_str(h.labels)} {h.count}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

