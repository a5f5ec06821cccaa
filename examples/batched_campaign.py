#!/usr/bin/env python
"""Run an ensemble campaign larger than device memory allows.

The paper's Page-Rank experiment stops at 4 instances because the graphs
exhaust the device heap (§4.3).  A campaign does not have to stop there:
a :class:`repro.sched.Scheduler` over a one-device pool probes the
feasible batch size (halving on ``DeviceOutOfMemory``) and streams the
whole workload through in memory-sized waves — the ensemble-toolkit-style
layer the paper's related work points toward.

Run:  python examples/batched_campaign.py
"""

from repro import LaunchSpec
from repro.apps import pagerank
from repro.sched import DevicePool, Scheduler

#: 12 Page-Rank configurations (different seeds) of ~0.3 MiB each...
CAMPAIGN = [["-n", "4096", "-d", "8", "-i", "1", "-s", str(s)] for s in range(1, 13)]
#: ...against a heap that only fits a handful at a time.
HEAP_BYTES = 1536 * 1024


def run() -> None:
    sched = Scheduler(DevicePool(1))
    result = sched.run_campaign(
        pagerank.build_program(),
        LaunchSpec(CAMPAIGN, thread_limit=32),
        loader_opts={"heap_bytes": HEAP_BYTES},
    )

    print(
        f"campaign of {len(CAMPAIGN)} instances against a "
        f"{HEAP_BYTES // 1024} KiB heap:"
    )
    for batch in result.batches:
        print(
            f"  batch @instance {batch.first_instance:2d}: {batch.size} instances, "
            f"{batch.cycles:,.0f} cycles"
        )
    print(
        f"OOM retries while probing: {result.oom_splits}; "
        f"final batch size: {max(b.size for b in result.batches)}"
    )
    print(f"all {len(result.instances)} instances succeeded: {result.all_succeeded}")
    print(f"total simulated cycles: {result.total_cycles:,.0f}")
    print("\nsample output:", result.instances[-1].stdout.strip())


if __name__ == "__main__":
    run()
