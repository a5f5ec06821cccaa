"""The device pool: a set of simulated GPUs the scheduler dispatches onto.

Each :class:`PoolWorker` wraps one :class:`~repro.gpu.device.GPUDevice`
with a per-device simulated clock (the device's accumulated busy cycles)
and a cache of compiled :class:`~repro.host.ensemble_loader.EnsembleLoader`
instances, keyed by program, so a job touching several devices compiles
once per device, not once per batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.config import DEFAULT_DEVICE, DEFAULT_SIM, DeviceConfig, SimConfig
from repro.errors import SchedulerError
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.jobs import Job

#: Builds the per-device loader for a job.  Replaceable in tests to inject
#: faults or wrap loaders with instrumentation.
LoaderFactory = Callable[[Any, GPUDevice, dict], EnsembleLoader]


def _default_loader_factory(program, device: GPUDevice, opts: dict) -> EnsembleLoader:
    return EnsembleLoader(program, device, **opts)


class PoolWorker:
    """One device plus its simulated clock and loader cache."""

    def __init__(self, index: int, device: GPUDevice, factory: LoaderFactory):
        self.index = index
        self.device = device
        self.factory = factory
        self.busy_cycles = 0.0
        #: Consecutive injected faults on this device; reset by any
        #: successful launch.  At the scheduler's quarantine threshold the
        #: worker is taken out of rotation and its queue redistributed.
        self.fault_streak = 0
        self.quarantined = False
        #: Shared :class:`~repro.compilecache.ExecutableCache`, when the
        #: scheduler attached one; handed to every loader this worker
        #: builds so compilation happens once per pool, not per device.
        self.cache = None
        self._loaders: dict[tuple, EnsembleLoader] = {}

    @property
    def label(self) -> str:
        return self.device.label

    def loader_for(self, job: "Job") -> EnsembleLoader:
        key = (id(job.program), repr(sorted(job.loader_opts.items(), key=repr)))
        loader = self._loaders.get(key)
        if loader is None:
            opts = dict(job.loader_opts)
            if self.cache is not None:
                # Injected at factory-call time (never into the job's own
                # opts) so the loader-cache key stays identity-stable.
                opts.setdefault("cache", self.cache)
            loader = self.factory(job.program, self.device, opts)
            self._loaders[key] = loader
        return loader

    def close(self) -> None:
        for loader in self._loaders.values():
            loader.close()
        self._loaders.clear()


class DevicePool:
    """A fixed set of workers, one per device.

    Construct from an explicit device list, or from a count (``size=K``)
    to get ``K`` identically configured devices labelled ``pool0..K-1``.
    """

    def __init__(
        self,
        devices: Sequence[GPUDevice] | int,
        *,
        config: DeviceConfig = DEFAULT_DEVICE,
        sim: SimConfig = DEFAULT_SIM,
        loader_factory: LoaderFactory = _default_loader_factory,
    ):
        if isinstance(devices, int):
            if devices < 1:
                raise SchedulerError("a device pool needs at least one device")
            devices = [
                GPUDevice(config, sim, label=f"pool{i}") for i in range(devices)
            ]
        else:
            devices = list(devices)
            if not devices:
                raise SchedulerError("a device pool needs at least one device")
            labels = [d.label for d in devices]
            if len(set(labels)) != len(labels):
                raise SchedulerError(
                    f"device labels must be unique, got {labels}"
                )
        self.workers = [
            PoolWorker(i, dev, loader_factory) for i, dev in enumerate(devices)
        ]

    def attach_obs(self, obs) -> None:
        """Point every device at an :class:`~repro.obs.Observability`
        bundle so launches emit spans/counters into the shared tracer and
        registry.  Called by the scheduler; idempotent."""
        for w in self.workers:
            w.device.tracer = obs.tracer
            w.device.metrics = obs.metrics

    def attach_cache(self, cache) -> None:
        """Share one :class:`~repro.compilecache.ExecutableCache` across
        every worker's loaders.  Called by the scheduler; idempotent."""
        for w in self.workers:
            w.cache = cache

    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    @property
    def labels(self) -> list[str]:
        return [w.label for w in self.workers]

    @property
    def healthy(self) -> list[PoolWorker]:
        """Workers still in rotation (not quarantined)."""
        return [w for w in self.workers if not w.quarantined]

    def close(self) -> None:
        """Release every cached loader's device resources."""
        for w in self.workers:
            w.close()


__all__ = ["DevicePool", "PoolWorker", "LoaderFactory"]
