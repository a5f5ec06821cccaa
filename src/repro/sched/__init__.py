"""Multi-device ensemble scheduling.

The paper's §3 argues one application instance cannot saturate one GPU;
one level up, one GPU cannot saturate a campaign.  This package is the
scheduling layer the paper's related work gestures at ([3,4]): a
:class:`DevicePool` of simulated GPUs, a :class:`Scheduler` that shards
submitted jobs across the pool with work stealing, OOM bisection, bounded
retries and step-budget deadlines, and a :class:`SchedulerStats` surface
— a read view over the :mod:`repro.obs` metrics registry — reporting
per-device utilization in simulated time.  The scheduler is the one
campaign engine: a one-device pool runs a job as consecutive launches cut
by :class:`BisectionPolicy`, as wide as the device heap allows.  Pass
``obs=repro.obs.Observability.enabled()`` to record the campaign as a
Chrome-traceable timeline.

Quick start::

    from repro.host import LaunchSpec
    from repro.sched import DevicePool, Scheduler

    pool = DevicePool(4)                      # four simulated GPUs
    sched = Scheduler(pool)
    fut = sched.submit(app.build_program(),
                       LaunchSpec("campaign.args", thread_limit=128))
    result = fut.result()                     # drives the pool
    print(sched.stats.utilization())
"""

from repro.sched.jobs import (
    BatchRecord,
    Job,
    JobFuture,
    JobResult,
    JobState,
    JobTicket,
)
from repro.sched.pool import DevicePool, PoolWorker
from repro.sched.scheduler import BisectionPolicy, Scheduler, launch_chunk
from repro.sched.stats import DeviceStats, SchedulerStats

__all__ = [
    "BatchRecord",
    "BisectionPolicy",
    "launch_chunk",
    "DevicePool",
    "PoolWorker",
    "Scheduler",
    "SchedulerStats",
    "DeviceStats",
    "Job",
    "JobFuture",
    "JobResult",
    "JobState",
    "JobTicket",
]
