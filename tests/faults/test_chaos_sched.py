"""Chaos: scheduler-layer injection points (``sched.dispatch``) plus the
campaign-level degradation guarantees — worker death recovers, poisoned
instances fail alone, deadlines degrade, repeatedly faulting devices are
quarantined, and a multi-device campaign under a device-loss plan never
crashes wholesale.
"""

import pytest

from repro.faults import FAULT_EXIT
from repro.host.launch import LaunchSpec
from repro.obs import Observability
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

SMALL = ["-n", "256", "-d", "8", "-i", "1"]
HEAP = 1536 * 1024


def lines(n):
    return [SMALL + ["-s", str(s)] for s in range(1, n + 1)]


def spec(workload):
    return LaunchSpec(workload, thread_limit=32)


def run_campaign(prog, plan, *, devices=2, n=6, retries=2, **sched_kw):
    pool = DevicePool(devices, config=SMALL_DEVICE)
    sched = Scheduler(pool, faults=plan, default_retries=retries, **sched_kw)
    fut = sched.submit(
        prog, spec(lines(n)), loader_opts={"heap_bytes": HEAP}
    )
    result = fut.result()
    summary = sched.stats.summary()
    pool.close()
    return result, summary, pool


class TestWorkerDeath:
    def test_death_recovers_via_retry(self, pagerank_prog, chaos_seed):
        result, stats, _ = run_campaign(
            pagerank_prog, f"worker_death:times=2:seed={chaos_seed}"
        )
        assert result.all_succeeded
        assert not result.degraded
        assert result.retries == 2
        assert stats["faults_injected"] == 2
        assert stats["faults_recovered"] == 2
        assert stats["faults_isolated"] == 0

    def test_unrecoverable_death_isolates_not_crashes(self, pagerank_prog):
        # One device, always dying: retries exhaust, but the campaign must
        # resolve with per-instance reports, never a raised error.
        result, stats, _ = run_campaign(
            pagerank_prog, "worker_death:rate=1.0", devices=1, n=2, retries=1
        )
        assert all(o.exit_code == FAULT_EXIT for o in result.instances)
        assert result.degraded
        assert all(
            r.kind == "worker_death" for r in result.fault_reports
        )
        assert stats["faults_isolated"] == 2
        assert stats["jobs_completed"] == 1
        assert stats["jobs_failed"] == 0


class TestPoison:
    def test_poisoned_instance_fails_alone(self, pagerank_prog):
        result, stats, _ = run_campaign(
            pagerank_prog, "poison:instance=3:times=1"
        )
        codes = [o.exit_code for o in result.instances]
        assert codes[3] == FAULT_EXIT
        assert all(c == 0 for i, c in enumerate(codes) if i != 3)
        report = result.fault_reports[0]
        assert report.kind == "poison"
        assert report.instances == [3]
        assert report.job_id == result.job_id
        assert stats["faults_isolated"] == 1

    def test_wildcard_poison_takes_the_chunk(self, pagerank_prog):
        result, _, _ = run_campaign(
            pagerank_prog, "poison:times=1", devices=1, n=4
        )
        # An unselective poison consumes the dispatched shard; the rest of
        # the campaign still completes.
        assert result.degraded
        faulted = [o for o in result.instances if o.exit_code == FAULT_EXIT]
        assert faulted
        assert len(result.instances) == 4


class TestDeadline:
    def test_injected_deadline_degrades_pending_work(self, pagerank_prog):
        result, stats, _ = run_campaign(
            pagerank_prog,
            "deadline:job=*:times=1:after=1",
            devices=1,
            chunk_size=3,
        )
        # One shard ran before the deadline fired; everything still
        # pending was isolated, and the job completed degraded.
        done = [o for o in result.instances if o.exit_code == 0]
        cut = [o for o in result.instances if o.exit_code == FAULT_EXIT]
        assert done and cut
        assert len(done) + len(cut) == 6
        assert any(r.kind == "deadline" for r in result.fault_reports)
        assert stats["jobs_failed"] == 0


class TestQuarantine:
    def test_streaky_device_is_quarantined(self, pagerank_prog):
        result, stats, pool = run_campaign(
            pagerank_prog,
            "worker_death:device=pool0:rate=1.0",
            devices=4,
            n=12,
            retries=8,
        )
        assert result.all_succeeded
        assert stats["quarantines"] == 1
        assert stats["devices"]["pool0"]["quarantines"] == 1
        assert pool.workers[0].quarantined
        assert [w.quarantined for w in pool.workers[1:]] == [False] * 3

    def test_last_device_is_never_quarantined(self, pagerank_prog):
        result, stats, pool = run_campaign(
            pagerank_prog,
            "worker_death:times=4",
            devices=1,
            n=4,
            retries=8,
        )
        assert result.all_succeeded
        assert stats["quarantines"] == 0
        assert not pool.workers[0].quarantined


class TestAcceptanceCampaign:
    def test_four_device_campaign_survives_device_loss_plan(
        self, pagerank_prog, chaos_seed
    ):
        # The ISSUE's acceptance scenario: a 4-device campaign under a
        # device-loss plan completes with every instance either succeeded
        # or individually fault-reported — never a campaign-level crash.
        result, stats, _ = run_campaign(
            pagerank_prog,
            f"worker_death:rate=0.3:seed={chaos_seed};"
            f"rpc_timeout:instance=5:times=1",
            devices=4,
            n=12,
            retries=4,
        )
        assert len(result.instances) == 12
        for o in result.instances:
            assert o.exit_code == 0 or o.fault is not None
        assert stats["jobs_failed"] == 0
        assert stats["jobs_completed"] == 1
        # Whatever fired is accounted for in the obs registry.
        assert stats["faults_injected"] >= 1
        assert (
            stats["faults_recovered"] + stats["faults_isolated"] >= 1
            or stats["faults_injected"] == 0
        )


class TestSpecCarriedPlan:
    def test_launch_spec_plan_arms_the_scheduler(self, pagerank_prog):
        pool = DevicePool(2, config=SMALL_DEVICE)
        obs = Observability()
        sched = Scheduler(pool, default_retries=2, obs=obs)
        workload = LaunchSpec(
            lines(4), thread_limit=32, fault_plan="worker_death:times=1"
        )
        result = sched.submit(
            pagerank_prog, workload, loader_opts={"heap_bytes": HEAP}
        ).result()
        assert result.all_succeeded
        fired = obs.metrics.series("faults.injected")
        assert sum(c.value for c in fired) == 1
        pool.close()

    def test_spec_plan_does_not_leak_into_other_jobs(self, echo_prog):
        # Two jobs queued together on one device: A's plan times out every
        # RPC, B carries no plan and must run clean.
        pool = DevicePool(1, config=SMALL_DEVICE)
        sched = Scheduler(pool)
        echo = [[str(i)] for i in range(4)]
        opts = {"heap_bytes": 1 << 20}
        a = sched.submit(
            echo_prog,
            LaunchSpec(
                echo,
                thread_limit=32,
                collect_timing=False,
                fault_plan="rpc_timeout:rate=1.0",
            ),
            loader_opts=opts,
        )
        b = sched.submit(
            echo_prog,
            LaunchSpec(echo, thread_limit=32, collect_timing=False),
            loader_opts=opts,
        )
        assert a.result().return_codes == [FAULT_EXIT] * 4
        assert b.result().return_codes == [0, 1, 2, 3]
        assert not b.result().fault_reports
        pool.close()

    def test_constructor_injector_wins_over_spec(self, pagerank_prog):
        pool = DevicePool(2, config=SMALL_DEVICE)
        sched = Scheduler(pool, faults="worker_death:times=1")
        workload = LaunchSpec(
            lines(2), thread_limit=32, fault_plan="poison:rate=1.0"
        )
        result = sched.submit(
            pagerank_prog, workload, loader_opts={"heap_bytes": HEAP}
        ).result()
        # The campaign-level injector stays armed: no poison ever fires.
        assert all(e.kind == "worker_death" for e in sched.faults.events)
        assert result.all_succeeded
        pool.close()
