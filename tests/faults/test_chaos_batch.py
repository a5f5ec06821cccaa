"""Chaos: device loss and injected OOM on a one-device campaign.

Contract under test: a device loss (``worker_death``) retries the batch
cleanly (the device heap resets per launch); a loss that outlasts the
retry budget isolates that batch's instances and the campaign keeps
going — it never dies wholesale.  A spec-carried plan is armed once per
submitted campaign, so ``times=`` counts across every batch and starts
over for the next campaign on the same scheduler.
"""

from repro.faults import FAULT_EXIT
from repro.host.launch import LaunchSpec
from repro.obs import Observability
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

LINES = [[str(i)] for i in range(6)]


def make_scheduler(**kw):
    return Scheduler(DevicePool(1, config=SMALL_DEVICE), **kw)


def spec(plan=None):
    return LaunchSpec(
        LINES, thread_limit=32, collect_timing=False, fault_plan=plan
    )


def run(sched, prog, plan=None):
    return sched.run_campaign(
        prog, spec(plan), loader_opts={"heap_bytes": 1 << 20}
    )


def injected(obs):
    return sum(c.value for c in obs.metrics.series("faults.injected"))


class TestRecoveredLoss:
    def test_single_loss_retries_and_recovers(self, echo_prog):
        obs = Observability()
        sched = make_scheduler(obs=obs)
        result = run(sched, echo_prog, "worker_death:times=1")
        assert [o.exit_code for o in result.instances] == list(range(6))
        assert result.retries == 1
        assert not result.fault_reports
        recovered = obs.metrics.series("faults.recovered")
        assert sum(c.value for c in recovered) == 1

    def test_outputs_match_unfaulted_run(self, echo_prog):
        base = run(make_scheduler(), echo_prog)
        hit = run(make_scheduler(), echo_prog, "worker_death:times=2")
        assert [o.exit_code for o in hit.instances] == [
            o.exit_code for o in base.instances
        ]
        assert [o.stdout for o in hit.instances] == [
            o.stdout for o in base.instances
        ]


class TestInjectedOOM:
    def test_spec_carried_oom_bisects_and_recovers(self, echo_prog):
        # Regression: the per-batch launches forward the campaign spec, and
        # re-arming its plan each batch restarted the ``times=1`` schedule —
        # the OOM refired on every bisected size down to 1, which is fatal.
        # One campaign-scoped injector must serve every batch.
        obs = Observability()
        sched = make_scheduler(max_batch=2, obs=obs)
        result = run(sched, echo_prog, "oom:times=1")
        assert [o.exit_code for o in result.instances] == list(range(6))
        assert result.oom_splits == 1
        assert injected(obs) == 1
        recovered = obs.metrics.series("faults.recovered")
        assert sum(c.value for c in recovered) == 1
        assert any(("kind", "oom") in c.labels for c in recovered)

    def test_next_run_rearms_a_fresh_plan(self, echo_prog):
        # ...while a *new* campaign re-arms the spec plan, so its schedule
        # counters start over per campaign.
        obs = Observability()
        sched = make_scheduler(max_batch=2, obs=obs)
        first = run(sched, echo_prog, "oom:times=1")
        fired_first = injected(obs)
        second = run(sched, echo_prog, "oom:times=1")
        assert first.oom_splits == 1
        assert second.oom_splits == 1
        assert fired_first == 1
        assert injected(obs) == 2
        assert [o.exit_code for o in second.instances] == list(range(6))


class TestPersistentLoss:
    def test_stuck_batch_is_isolated_not_fatal(self, echo_prog):
        obs = Observability()
        sched = make_scheduler(max_batch=2, default_retries=1, obs=obs)
        # A retried batch goes to the back of the queue: the first three
        # losses hit batches [0,1], [2,3] and [4,5]; the fourth hits [0,1]
        # again, past its one retry.  Only those two instances are
        # isolated; the other batches recover.
        result = run(sched, echo_prog, "worker_death:times=4")
        codes = [o.exit_code for o in result.instances]
        assert codes == [FAULT_EXIT, FAULT_EXIT, 2, 3, 4, 5]
        assert result.retries == 4
        assert len(result.fault_reports) == 1
        (report,) = result.fault_reports
        assert report.kind == "worker_death"
        assert report.instances == [0, 1]
        assert report.attempts == 2
        isolated = obs.metrics.series("faults.isolated")
        assert sum(c.value for c in isolated) == 2

    def test_degraded_campaign_is_not_all_succeeded(self, echo_prog):
        sched = make_scheduler(max_batch=3, default_retries=1)
        result = run(sched, echo_prog, "worker_death:times=3")
        assert not result.all_succeeded
        assert result.degraded
        survivors = [o for o in result.instances if o.fault is None]
        assert len(survivors) == 3
