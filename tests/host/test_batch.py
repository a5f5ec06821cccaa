"""Batched campaigns on one device: running past the device-memory wall."""

import pytest

from repro.apps import pagerank
from repro.errors import DeviceOutOfMemory, SchedulerError
from repro.host.launch import LaunchSpec
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

#: ~0.3 MiB per instance against a 1.5 MiB heap -> 4 fit, 8 do not.
WORKLOAD = ["-n", "4096", "-d", "8", "-i", "1"]
HEAP = 1536 * 1024


@pytest.fixture(scope="module")
def program():
    return pagerank.build_program()


def lines(n):
    return [WORKLOAD + ["-s", str(s)] for s in range(1, n + 1)]


def spec(n):
    return LaunchSpec(lines(n), thread_limit=32)


def run(program, n, *, heap_bytes=HEAP, **sched_kw):
    sched = Scheduler(DevicePool(1, config=SMALL_DEVICE), **sched_kw)
    return sched.run_campaign(
        program, spec(n), loader_opts={"heap_bytes": heap_bytes}
    )


def max_batch_size(result):
    return max(b.size for b in result.batches)


class TestBatching:
    def test_oversized_campaign_completes(self, program):
        result = run(program, 10)
        assert len(result.instances) == 10
        assert result.all_succeeded
        assert result.oom_splits >= 1  # 10 at once had to shrink
        assert max_batch_size(result) <= 5
        assert sum(b.size for b in result.batches) == 10

    def test_instance_indices_global(self, program):
        result = run(program, 6)
        assert [o.index for o in result.instances] == list(range(6))
        # per-instance stdout still attached
        assert "PageRank total rank" in result.instances[5].stdout

    def test_fits_in_one_batch_when_possible(self, program):
        result = run(program, 2)
        assert len(result.batches) == 1
        assert result.oom_splits == 0

    def test_max_batch_cap_respected(self, program):
        result = run(program, 5, max_batch=2)
        assert max_batch_size(result) <= 2
        assert len(result.batches) == 3

    def test_total_cycles_aggregates(self, program):
        result = run(program, 6)
        assert result.total_cycles is not None
        assert result.total_cycles >= sum(
            b.cycles for b in result.batches
        ) * 0.999

    def test_single_instance_too_big_raises(self, program):
        with pytest.raises(DeviceOutOfMemory):
            run(program, 3, heap_bytes=128 * 1024)

    def test_empty_campaign_rejected(self, program):
        sched = Scheduler(DevicePool(1, config=SMALL_DEVICE))
        with pytest.raises(SchedulerError):
            sched.submit(program, LaunchSpec([], thread_limit=32))
