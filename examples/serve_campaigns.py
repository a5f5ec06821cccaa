#!/usr/bin/env python
"""Ensemble-as-a-service: two tenants share one campaign server.

The one-shot CLI owns its scheduler for the lifetime of a single
campaign; :mod:`repro.serve` turns the same scheduler into a shared
front door.  This demo hosts a :class:`~repro.serve.CampaignServer` on a
background thread, submits two pagerank campaigns from two tenants
through the blessed :class:`~repro.serve.client.Client`, streams both
results back over a real socket, and then proves the serve layer is
*transparent*: each served result is bitwise-identical to running the
same spec straight through ``Scheduler.run_campaign``.

Run:  python examples/serve_campaigns.py
Exits non-zero if the served results diverge from the one-shot path.
"""

from repro import LaunchSpec
from repro.apps import pagerank
from repro.config import DEFAULT_DEVICE
from repro.sched import DevicePool, Scheduler
from repro.serve.client import Client
from repro.serve.harness import ServerThread

#: Two different pagerank campaigns, one per tenant.
CAMPAIGNS = {
    "alice": [["-n", "2048", "-d", "8", "-i", "1", "-s", str(s)] for s in range(1, 5)],
    "bob": [["-n", "1024", "-d", "8", "-i", "2", "-s", str(s)] for s in range(5, 9)],
}
HEAP_BYTES = 1536 * 1024


def spec_for(instances) -> LaunchSpec:
    return LaunchSpec([list(a) for a in instances], thread_limit=32)


def fingerprint(result):
    return [(o.index, o.args, o.exit_code, o.stdout) for o in result.instances]


def one_shot(instances):
    """The pre-serve path: a private scheduler per campaign."""
    pool = DevicePool(2, config=DEFAULT_DEVICE)
    try:
        sched = Scheduler(pool)
        return sched.run_campaign(
            pagerank.build_program(),
            spec_for(instances),
            loader_opts={"heap_bytes": HEAP_BYTES},
        )
    finally:
        pool.close()


def run() -> int:
    with ServerThread(devices=2) as server:
        with Client(server.address) as client:
            jobs = {
                tenant: client.submit(
                    "pagerank",
                    spec_for(instances),
                    tenant=tenant,
                    loader_opts={"heap_bytes": HEAP_BYTES},
                )
                for tenant, instances in CAMPAIGNS.items()
            }
            served = {tenant: job.result() for tenant, job in jobs.items()}
            metrics = client.metrics()

    divergent = 0
    for tenant, instances in CAMPAIGNS.items():
        result = served[tenant]
        baseline = one_shot(instances)
        same = fingerprint(result) == fingerprint(baseline)
        divergent += 0 if same else 1
        print(
            f"{tenant}: {len(result.instances)} instances, "
            f"{'all ok' if result.all_succeeded else 'FAILURES'}, "
            f"bitwise vs one-shot: {'identical' if same else 'DIVERGED'}"
        )

    srv = metrics["server"]
    print(
        f"server: {srv['completed']} jobs completed on "
        f"{len(srv['devices'])} devices, utilization "
        + ", ".join(
            f"{label}={frac:.2f}" for label, frac in srv["utilization"].items()
        )
    )
    if divergent:
        print(f"FAIL: {divergent} served campaign(s) diverged")
        return 1
    print("serve layer is transparent: streamed results match one-shot runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
