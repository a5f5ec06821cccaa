"""Deterministic, seed-driven fault injection.

The injector is threaded through the stack the same way the tracer is: a
component holds a reference (``device.faults``, ``rpc_host.faults``,
``scheduler.faults``) and *consults* it at explicit injection points::

    fault = self.faults.fire("rpc.reply", service=name, instance=i)
    if fault is not None:
        ...provoke the failure the spec describes...

The default everywhere is :data:`NO_FAULTS` — mirroring
:data:`~repro.obs.tracer.NULL_TRACER` — whose ``enabled`` flag is False,
so un-chaos'd runs pay a single attribute check and nothing else.

Determinism: firing decisions depend only on the plan (selectors,
``times``/``after`` counters, and per-spec ``random.Random`` streams
seeded from the spec or plan seed) and on the *order of consultations*.
The whole stack is a deterministic simulator, so two identical runs
consult in the same order and inject the identical fault sequence — the
property suite pins this down.

Every fired fault is recorded in :attr:`FaultInjector.events` and
published to the attached observability sinks as a ``faults.injected``
counter sample and an instant event on the ``faults`` trace track.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.errors import DeviceOutOfMemory, DeviceTrap, RPCError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import FaultReport
from repro.obs.tracer import NULL_TRACER

#: Trace track injected-fault instants are recorded on.
FAULT_TRACK = "faults"


# ---------------------------------------------------------------------------
# injected errors
# ---------------------------------------------------------------------------
class InjectedFault:
    """Marker mixin: this error was provoked by a :class:`FaultInjector`.

    The recovery machinery treats injected faults exactly like the real
    thing *except* at the terminal edge: an injected fault that survives
    every recovery attempt is isolated into a :class:`FaultReport` instead
    of crashing the campaign (real faults keep their historical semantics).
    """

    spec: FaultSpec | None = None

    def _mark(self, spec: FaultSpec | None, ctx: dict) -> None:
        self.spec = spec
        self.injected_ctx = dict(ctx)

    @property
    def fault_kind(self) -> str:
        return self.spec.kind if self.spec is not None else "unknown"

    def to_report(self, **extra) -> FaultReport:
        spec = self.spec
        return FaultReport(
            kind=spec.kind if spec else "unknown",
            point=spec.point if spec else "unknown",
            message=str(self),
            error=type(self).__name__,
            **extra,
        )


class InjectedOOM(InjectedFault, DeviceOutOfMemory):
    """An injected launch-scoped allocation failure."""

    def __init__(self, spec: FaultSpec | None = None, **ctx):
        DeviceOutOfMemory.__init__(self, requested=0, free=0, capacity=0)
        self.args = (f"injected device out of memory ({_ctx_str(ctx)})",)
        self._mark(spec, ctx)


class InjectedDeviceLoss(InjectedFault, DeviceTrap):
    """An injected device/worker death (transient from outside)."""

    def __init__(self, spec: FaultSpec | None = None, message: str = "", **ctx):
        DeviceTrap.__init__(self, message or f"injected device loss ({_ctx_str(ctx)})")
        self._mark(spec, ctx)


class InjectedRPCFailure(InjectedFault, RPCError):
    """An injected RPC transport failure (dropped reply); fails the launch
    transiently, like a real wedged service thread would."""

    def __init__(self, spec: FaultSpec | None = None, message: str = "", **ctx):
        RPCError.__init__(self, message or f"injected RPC failure ({_ctx_str(ctx)})")
        self._mark(spec, ctx)


class InstanceFault(InjectedFault, DeviceTrap):
    """An injected per-instance failure (e.g. an RPC timeout).

    :meth:`GPUDevice.launch` catches this *per team*: the faulting team is
    recorded on the launch result and every other team keeps running, so
    the failure surfaces per instance instead of per launch.
    """

    def __init__(self, spec: FaultSpec | None = None, message: str = "", **ctx):
        team = ctx.get("team")
        DeviceTrap.__init__(
            self,
            message or f"injected instance fault ({_ctx_str(ctx)})",
            team=team if isinstance(team, int) else None,
        )
        self.instance = ctx.get("instance")
        self._mark(spec, ctx)


def _ctx_str(ctx: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(ctx.items())) or "unconditional"


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------
@dataclass
class FaultEvent:
    """One injected fault, as recorded in :attr:`FaultInjector.events`."""

    seq: int
    point: str
    kind: str
    spec: str
    ctx: dict = field(default_factory=dict)

    def key(self) -> tuple:
        """Order-stable identity used by the reproducibility tests."""
        return (self.seq, self.point, self.kind, tuple(sorted(
            (k, str(v)) for k, v in self.ctx.items()
        )))


class _Armed:
    """Mutable firing state of one spec: its PRNG and schedule counters."""

    __slots__ = ("spec", "rng", "fired", "skipped")

    def __init__(self, spec: FaultSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        self.fired = 0
        self.skipped = 0


class NullFaultInjector:
    """The inert injector: never fires, costs one attribute check."""

    enabled = False
    events: tuple = ()
    plan = FaultPlan.__new__(FaultPlan)  # empty sentinel, never consulted

    def watches(self, point: str) -> bool:
        return False

    def fire(self, point: str, **ctx):
        return None

    def scoped(self, **ctx):
        return nullcontext()

    def attach_obs(self, obs) -> None:
        pass

    def attach_sinks(self, tracer, metrics) -> None:
        pass


#: Shared inert injector, the default ``faults=`` value everywhere.
NO_FAULTS = NullFaultInjector()


class FaultInjector:
    """Arms a :class:`~repro.faults.plan.FaultPlan` and answers ``fire``.

    One injector serves a whole campaign: the scheduler attaches it to
    every pool device, the loaders hand it to their RPC hosts, and ambient
    context (current job, current device) is layered in with
    :meth:`scoped` so device-level points can match ``job=`` selectors.
    """

    enabled = True

    def __init__(
        self,
        plan: FaultPlan | str,
        *,
        tracer=None,
        metrics=None,
    ):
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._armed = [
            _Armed(spec, spec.seed if spec.seed is not None
                   else plan.seed * 1_000_003 + index * 7919)
            for index, spec in enumerate(plan.specs)
        ]
        self._points = frozenset(spec.point for spec in plan.specs)
        self._ambient: dict = {}
        self.events: list[FaultEvent] = []

    # -- observability plumbing --------------------------------------------
    def attach_obs(self, obs) -> None:
        """Adopt an :class:`~repro.obs.Observability` bundle's sinks
        (no-op for sinks already attached explicitly)."""
        self.attach_sinks(obs.tracer, obs.metrics)

    def attach_sinks(self, tracer, metrics) -> None:
        if self.tracer is NULL_TRACER and tracer is not None:
            self.tracer = tracer
        if self.metrics is None and metrics is not None:
            self.metrics = metrics

    # -- consultation API ---------------------------------------------------
    def watches(self, point: str) -> bool:
        """Whether any armed spec targets ``point`` — lets hot loops (e.g.
        a per-team sweep) skip consultation entirely."""
        return point in self._points

    @contextmanager
    def scoped(self, **ctx):
        """Layer ambient context (job id, device) over nested ``fire``\\ s."""
        saved = self._ambient
        self._ambient = {**saved, **ctx}
        try:
            yield self
        finally:
            self._ambient = saved

    def fire(self, point: str, **ctx) -> FaultSpec | None:
        """Consult the plan at ``point``; returns the spec of the first
        armed fault that fires, or None.  A returned spec has already been
        recorded and published."""
        if point not in self._points:
            return None
        full_ctx = {**self._ambient, **ctx} if self._ambient else ctx
        for armed in self._armed:
            spec = armed.spec
            if spec.point != point:
                continue
            if not self._matches(spec, full_ctx):
                continue
            times = spec.times
            if times is not None and armed.fired >= times:
                continue
            if armed.skipped < spec.after:
                armed.skipped += 1
                continue
            rate = spec.rate
            if rate is not None and armed.rng.random() >= rate:
                continue
            armed.fired += 1
            self._record(point, spec, full_ctx)
            return spec
        return None

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _matches(spec: FaultSpec, ctx: dict) -> bool:
        for key in ("device", "job", "team", "instance", "service"):
            want = spec.selector(key)
            if want is None or want == "*":
                continue
            got = ctx.get(key)
            if got is not None and str(got) == want:
                continue
            if key == "device":
                alt = ctx.get("device_index")
                if alt is not None and str(alt) == want:
                    continue
            if key == "instance":
                span = ctx.get("instance_range")
                if span is not None:
                    try:
                        if int(want) in span:
                            continue
                    except ValueError:
                        pass
            return False
        return True

    def _record(self, point: str, spec: FaultSpec, ctx: dict) -> None:
        clean = {
            k: v for k, v in ctx.items() if k != "instance_range"
        }
        event = FaultEvent(
            seq=len(self.events),
            point=point,
            kind=spec.kind,
            spec=spec.format(),
            ctx=clean,
        )
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.counter(
                "faults.injected", kind=spec.kind, point=point
            ).inc()
        if self.tracer.enabled:
            self.tracer.instant(
                f"inject {spec.kind}",
                track=FAULT_TRACK,
                cat="fault",
                args={"point": point, **{k: str(v) for k, v in clean.items()}},
            )


__all__ = [
    "FAULT_TRACK",
    "FaultEvent",
    "FaultInjector",
    "InjectedDeviceLoss",
    "InjectedFault",
    "InjectedOOM",
    "InjectedRPCFailure",
    "InstanceFault",
    "NO_FAULTS",
    "NullFaultInjector",
]
