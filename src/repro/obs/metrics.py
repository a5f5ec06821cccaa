"""Typed metrics: counters, gauges, and histograms in one registry.

Every layer of the stack publishes into a :class:`MetricsRegistry` —
the scheduler its job/retry/steal/OOM-split counters, the RPC host its
per-service call counts, the pass pipeline per-pass timings, the
interpreter its step counts.  The legacy stats
surfaces (:class:`~repro.sched.stats.SchedulerStats`,
:class:`~repro.harness.profile.KernelProfile`) are *views* over this
registry, so there is exactly one place a number lives and every report
agrees with every other.

Instruments are keyed by ``(name, labels)``: ``registry.counter("rpc.calls",
service="printf")`` and ``registry.counter("rpc.calls", service="puts")``
are independent series of one logical metric, exactly like Prometheus
label sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Label key/value pairs sorted into a hashable identity.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically non-decreasing total (float so cycle counts fit)."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value that can move in either direction."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the current value by ``delta``."""
        self.value += delta


@dataclass
class Histogram:
    """Streaming distribution summary: count / sum / min / max.

    Deliberately bucket-free: the consumers here want means and extremes
    (batch sizes, span durations), and exact extremes beat approximate
    quantiles for a deterministic simulator.
    """

    name: str
    labels: LabelSet = ()
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    kind = "histogram"

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name + labels."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelSet], Instrument] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (name, _labelset(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name=name, labels=key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{inst.kind}, not {cls.kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name`` for this label set."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name`` for this label set."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram ``name`` for this label set."""
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of a counter/gauge, or ``default`` if absent."""
        inst = self._instruments.get((name, _labelset(labels)))
        return inst.value if inst is not None else default

    def series(self, name: str) -> list[Instrument]:
        """Every instrument (label set) registered under ``name``."""
        return [i for (n, _), i in self._instruments.items() if n == name]

    def snapshot(self) -> list[dict]:
        """JSON-friendly dump of every instrument."""
        out = []
        for inst in self._instruments.values():
            rec = {"name": inst.name, "kind": inst.kind, "labels": dict(inst.labels)}
            if isinstance(inst, Histogram):
                rec.update(
                    count=inst.count,
                    sum=inst.total,
                    min=inst.min if inst.count else None,
                    max=inst.max if inst.count else None,
                    mean=inst.mean,
                )
            else:
                rec["value"] = inst.value
            out.append(rec)
        return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
]
