"""Labeled metrics registry: the aggregate counterpart of :mod:`repro.trace`.

The trace layer answers *when* something happened; this layer answers
*how much and how fast*, the way a production scheduler is scraped.  The
design follows the Prometheus client-library data model, implemented on
the stdlib only:

* a :class:`MetricsRegistry` owns named *families*
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`), each declared
  once with a fixed tuple of label *names*;
* ``family.labels(policy="ugpu")`` resolves one *child* keyed by the
  frozen tuple of label values — the hot-path object instrumentation
  holds on to, so an ``inc()`` is one dict-free attribute bump;
* a family declared with no labels acts as its own child (``inc`` /
  ``set`` / ``observe`` directly on it);
* :class:`Histogram` uses fixed, monotonically increasing bucket
  boundaries (Prometheus semantics: ``le`` is an inclusive upper bound,
  with an implicit ``+Inf`` bucket);
* a per-family cardinality guard (:attr:`MetricsRegistry.max_label_sets`)
  refuses runaway label explosions instead of silently eating memory.

Instrumented components never hold a registry directly: they declare
families through their :class:`~repro.obs.Obs` handle, which hands back
a shared no-op metric when it has no registry, keeping the unobserved
path byte-identical and overhead-free.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for cycle-valued quantities (queueing delay,
#: epoch spans): sub-epoch up to the paper's 25M-cycle horizon.
CYCLE_BUCKETS: Tuple[float, ...] = (
    100_000.0, 500_000.0, 1_000_000.0, 2_500_000.0, 5_000_000.0,
    10_000_000.0, 25_000_000.0,
)

#: Default buckets for wall-clock seconds (the exec layer).
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ConfigError(f"invalid metric name {name!r}")
    return name


def _check_labels(names: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(names)
    for label in out:
        if not _LABEL_RE.match(label or ""):
            raise ConfigError(f"invalid label name {label!r}")
        if label.startswith("__") or label == "le":
            raise ConfigError(f"reserved label name {label!r}")
    if len(set(out)) != len(out):
        raise ConfigError(f"duplicate label names in {out!r}")
    return out


class _Child:
    """One (family, label-values) time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter cannot decrease (inc {amount})")
        self.value += amount


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """Fixed-boundary histogram series (cumulative on exposition)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; last slot is the +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ConfigError("cannot observe NaN")
        lo, hi = 0, len(self.bounds)
        # Leftmost bucket whose bound >= value (le is inclusive).
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class MetricFamily:
    """A named metric plus every labeled child it has spawned."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.registry = registry
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            self._default = self._resolve(())

    def _new_child(self):
        raise NotImplementedError

    def _resolve(self, values: Tuple[str, ...]):
        child = self._children.get(values)
        if child is None:
            if len(self._children) >= self.registry.max_label_sets:
                raise ConfigError(
                    f"metric {self.name!r} exceeded the cardinality guard "
                    f"({self.registry.max_label_sets} label sets); "
                    "a label is probably carrying an unbounded value"
                )
            child = self._new_child()
            self._children[values] = child
        return child

    def labels(self, *values, **kwargs):
        """The child for one concrete label-value assignment.

        Accepts positional values in declaration order, or keywords.
        Values are coerced to ``str`` so the key is a frozen tuple of
        strings regardless of the caller's types.
        """
        if kwargs:
            if values:
                raise ConfigError("pass labels positionally or by name, not both")
            try:
                values = tuple(kwargs[name] for name in self.label_names)
            except KeyError as exc:
                raise ConfigError(
                    f"metric {self.name!r} is missing label {exc.args[0]!r}"
                ) from None
            if len(kwargs) != len(self.label_names):
                extra = set(kwargs) - set(self.label_names)
                raise ConfigError(
                    f"metric {self.name!r} got unknown labels {sorted(extra)}"
                )
        if len(values) != len(self.label_names):
            raise ConfigError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {len(values)} values"
            )
        return self._resolve(tuple(str(v) for v in values))

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label_values, child) pairs in insertion order."""
        return list(self._children.items())

    # Label-free convenience: the family proxies its single child.
    def _default_child(self):
        if self.label_names:
            raise ConfigError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "resolve a child with .labels(...) first"
            )
        return self._default


class Counter(MetricFamily):
    """A monotonically increasing count."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(MetricFamily):
    """A value that can go up and down (a point-in-time sample)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(MetricFamily):
    """Fixed-bucket distribution (Prometheus cumulative semantics)."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = CYCLE_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigError(f"histogram {name!r} needs at least one bucket")
        if any(b >= n for b, n in zip(bounds, bounds[1:])):
            raise ConfigError(
                f"histogram {name!r} buckets must strictly increase: {bounds}"
            )
        if any(math.isnan(b) for b in bounds):
            raise ConfigError(f"histogram {name!r} buckets cannot be NaN")
        if bounds and math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
            if not bounds:
                raise ConfigError(
                    f"histogram {name!r} needs a finite bucket below +Inf"
                )
        self.buckets = bounds
        super().__init__(registry, name, help, label_names)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count


class MetricsRegistry:
    """The mutable home of every metric family one run produces.

    Families are created idempotently: asking twice for the same name
    returns the same object, provided kind, labels and (for histograms)
    buckets agree — so independent components can share a series without
    coordinating construction order.  ``max_label_sets`` bounds the
    children any one family may spawn (the cardinality guard).

    ``epoch_boundary`` is the sampling hook: the epoch-level runner calls
    it once per simulated epoch, and observers (the CSV sampler, a live
    dashboard) snapshot whatever series they follow.
    """

    def __init__(self, max_label_sets: int = 1024) -> None:
        if max_label_sets < 1:
            raise ConfigError("max_label_sets must be >= 1")
        self.max_label_sets = max_label_sets
        self._families: Dict[str, MetricFamily] = {}
        self._observers: List = []
        self._lock = threading.Lock()
        #: Free-form provenance mapping attached to every export (see
        #: :mod:`repro.telemetry.provenance`).
        self.provenance: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Family constructors
    # ------------------------------------------------------------------
    def _family(self, cls, name: str, help: str,
                label_names: Sequence[str], **kwargs) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != tuple(label_names):
                    raise ConfigError(
                        f"metric {name!r} label mismatch: "
                        f"{existing.label_names} vs {tuple(label_names)}"
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None and tuple(
                    float(b) for b in buckets
                ) != getattr(existing, "buckets", None):
                    raise ConfigError(
                        f"histogram {name!r} bucket mismatch"
                    )
                return existing
            family = cls(self, name, help, label_names, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = CYCLE_BUCKETS) -> Histogram:
        return self._family(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        """Every family, in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def value(self, name: str, **labels) -> float:
        """Convenience: one child's current value (0.0 if never touched).

        For histograms returns the observation count.
        """
        family = self._families.get(name)
        if family is None:
            return 0.0
        values = tuple(str(labels[n]) for n in family.label_names)
        child = family._children.get(values)
        if child is None:
            return 0.0
        if isinstance(child, _HistogramChild):
            return float(child.count)
        return child.value

    # ------------------------------------------------------------------
    # Epoch-boundary sampling
    # ------------------------------------------------------------------
    def add_epoch_observer(self, observer) -> None:
        """``observer(registry, epoch_index, cycle)`` fires per epoch."""
        self._observers.append(observer)

    def epoch_boundary(self, epoch_index: int, cycle: float) -> None:
        for observer in self._observers:
            observer(self, epoch_index, cycle)
