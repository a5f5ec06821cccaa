"""A one-device Scheduler runs a campaign as the widest launches that fit.

``fixtures/runner_layouts.json`` holds 13 page-rank campaigns as the
former single-device batch runner laid them out: each launch's
``(first_instance, size, cycles)``, the total cycles, the OOM count and
every instance's outcome.  A one-device pool must reproduce each of them
bit for bit.
"""

import json
from pathlib import Path

import pytest

from repro.apps import pagerank
from repro.config import DeviceConfig
from repro.host.launch import LaunchSpec
from repro.sched import DevicePool, Scheduler

WORKLOAD = ["-n", "4096", "-d", "8", "-i", "1"]
#: Room for the 64 MiB-heap cases; cycles do not depend on arena size.
DEVICE = DeviceConfig(global_mem_bytes=96 * 1024 * 1024)
CASES = json.loads(
    (Path(__file__).parent / "fixtures" / "runner_layouts.json").read_text()
)


def case_id(case):
    return (
        f"n{case['instances']}-heap{case['heap_bytes'] >> 10}k"
        f"-mb{case['max_batch']}-static{int(case['static_packing'])}"
        f"-timed{int(case['timed'])}"
    )


@pytest.fixture(scope="module")
def program():
    return pagerank.build_program()


def run(program, n, heap_bytes, *, timed=True, **sched_kw):
    sched = Scheduler(DevicePool(1, config=DEVICE), **sched_kw)
    return sched.run_campaign(
        program,
        LaunchSpec(
            [WORKLOAD + ["-s", str(s)] for s in range(1, n + 1)],
            thread_limit=32,
            collect_timing=timed,
        ),
        loader_opts={"heap_bytes": heap_bytes},
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reproduces_runner_layout(program, case):
    result = run(
        program,
        case["instances"],
        case["heap_bytes"],
        timed=case["timed"],
        max_batch=case["max_batch"],
        static_packing=case["static_packing"],
    )
    assert [
        [b.first_instance, b.size, b.cycles] for b in result.batches
    ] == case["batches"]
    assert result.total_cycles == case["total_cycles"]
    assert result.oom_splits == case["oom_retries"]
    assert [
        [o.index, o.exit_code, o.stdout] for o in result.instances
    ] == case["outcomes"]


def test_remainder_does_not_cap_later_launches(program):
    # Regression: a successful launch used to cap the device at its own
    # size, so a one-instance remainder of a cut chunk left every later
    # launch one instance wide (3, 3, then eight launches of 1).
    result = run(program, 14, 1536 * 1024, timed=False)
    assert [(b.first_instance, b.size) for b in result.batches] == [
        (0, 3),
        (3, 3),
        (6, 3),
        (9, 3),
        (12, 2),
    ]
    assert result.all_succeeded
