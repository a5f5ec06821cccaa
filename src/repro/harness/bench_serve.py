"""Tracked server-path benchmark: repro.serve vs the direct scheduler.

The served path adds a socket hop, NDJSON framing, fair-share admission,
and the asyncio pump on top of the scheduler; this harness measures what
that costs.  One workload — ``campaigns`` pagerank ensembles of
``instances`` SMALL instances each, spread round-robin over three
tenants on a two-device pool — runs twice per repeat:

* **direct** — ``Scheduler.submit`` + ``JobFuture.result`` in-process,
* **served** — the same submissions through a :class:`~repro.serve.
  harness.ServerThread` and the blessed :class:`~repro.serve.client.
  Client`, streamed back over the socket.

Recorded per path: wall time (min over interleaved repeats, so load
drifts hit both paths equally), submissions/sec, instances/sec, and the
scheduler's per-device occupancy (``stats.utilization()``) — the
fraction of the step-clock makespan each device spent busy.

The regression gate (``check_regression``) uses **machine-independent
quantities only**:

* served-path *occupancy* is deterministic for a fixed workload (the
  pump admits in fair-share order and the simulation is single-threaded)
  and must not drop more than ``tolerance`` below the baseline: a drop
  means the admission loop started starving devices;
* the *overhead ratio* (served wall / direct wall) must not grow more
  than ``2 * tolerance`` relatively above the baseline: absolute wall
  times swing between hosts, but the interleaved ratio is stable, and a
  jump means the serve layer itself got slower.  The doubled tolerance
  absorbs socket-latency jitter on loaded CI boxes.

Both runs also cross-check bitwise: every served result must fingerprint
identically to its direct twin, or the bench aborts — a throughput
number for a wrong answer is worse than useless.

Run as a module::

    python -m repro.harness.bench_serve --out BENCH_serve.json
    python -m repro.harness.bench_serve --check BENCH_serve.json --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from repro.config import DEFAULT_DEVICE
from repro.sched import DevicePool, Scheduler

#: Schema version of the JSON report (bump on incompatible change).
SCHEMA = 1

#: The workload: the standard cheap pagerank ensemble from the test
#: tree, small enough that the serve layer's fixed costs are visible.
APP = "pagerank"
SMALL = ["-n", "256", "-d", "8", "-i", "1"]
HEAP = 1536 * 1024
THREAD_LIMIT = 32
TENANTS = ("alice", "bob", "carol")
DEVICES = 2

#: Full-size and --quick campaign counts.
CAMPAIGNS = 6
QUICK_CAMPAIGNS = 3
INSTANCES = 2

PATHS = ("direct", "served")


@dataclass
class ServeBenchRecord:
    """One (path) measurement over the whole campaign set."""

    path: str  #: "direct" or "served"
    campaigns: int
    instances_total: int
    devices: int
    wall_s: float  #: best wall time (min over interleaved repeats)
    submissions_per_sec: float
    instances_per_sec: float
    occupancy: dict  #: device label -> utilization fraction
    mean_occupancy: float


@dataclass
class ServeBenchReport:
    """Full report: per-path records plus the derived overhead ratio."""

    schema: int
    config: dict
    records: list[ServeBenchRecord] = field(default_factory=list)
    #: Compile wall of the bench workload, cold (fresh executable cache)
    #: vs warm (same cache again) — see ``bench.measure_compile_walls``.
    compile_wall_s: dict = field(default_factory=dict)

    def record(self, path: str) -> ServeBenchRecord:
        for r in self.records:
            if r.path == path:
                return r
        raise KeyError(path)

    def overhead(self) -> float:
        """Served wall over direct wall for the same workload; 1.0 would
        mean the serve layer is free."""
        direct = self.record("direct").wall_s
        if direct == 0:
            return 0.0
        return self.record("served").wall_s / direct

    def summary(self) -> dict:
        summary = {
            "wall_s": {
                p: round(self.record(p).wall_s, 4) for p in PATHS
            },
            "submissions_per_sec": round(
                self.record("served").submissions_per_sec, 2
            ),
            "overhead": round(self.overhead(), 3),
            "served_mean_occupancy": round(
                self.record("served").mean_occupancy, 3
            ),
        }
        if self.compile_wall_s:
            summary["compile_wall_s"] = self.compile_wall_s
        return summary

    def to_json(self) -> str:
        data = {
            "schema": self.schema,
            "config": self.config,
            "records": [asdict(r) for r in self.records],
            "compile_wall_s": self.compile_wall_s,
            "summary": self.summary(),
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ServeBenchReport":
        data = json.loads(text)
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"bench_serve schema mismatch: baseline has "
                f"{data.get('schema')!r}, this harness writes {SCHEMA}"
            )
        return cls(
            schema=data["schema"],
            config=data["config"],
            records=[ServeBenchRecord(**r) for r in data["records"]],
            compile_wall_s=data.get("compile_wall_s", {}),
        )


# ---------------------------------------------------------------------------
# workload runners
# ---------------------------------------------------------------------------
def _specs(campaigns: int):
    from repro.host.launch import LaunchSpec

    return [
        LaunchSpec(
            [list(SMALL) for _ in range(INSTANCES)],
            thread_limit=THREAD_LIMIT,
            collect_timing=False,
        )
        for _ in range(campaigns)
    ]


def _fingerprint(result):
    return [
        (o.index, o.args, o.exit_code, o.stdout) for o in result.instances
    ]


def _run_direct(campaigns: int):
    """The in-process baseline: same scheduler configuration the server
    builds (default retries), no serve layer."""
    from repro.apps import pagerank

    pool = DevicePool(DEVICES, config=DEFAULT_DEVICE)
    sched = Scheduler(pool)
    program = pagerank.build_program()
    try:
        t0 = time.perf_counter()
        futures = [
            sched.submit(
                program,
                spec,
                loader_opts={"heap_bytes": HEAP},
                tenant=TENANTS[i % len(TENANTS)],
            )
            for i, spec in enumerate(_specs(campaigns))
        ]
        results = [f.result() for f in futures]
        wall = time.perf_counter() - t0
        occupancy = dict(sched.stats.utilization())
    finally:
        pool.close()
    return wall, occupancy, [_fingerprint(r) for r in results]


def _run_served(campaigns: int):
    """The same submissions through a real socket and the blessed client."""
    from repro.serve.client import Client
    from repro.serve.harness import ServerThread

    with ServerThread(devices=DEVICES) as server:
        with Client(server.address) as client:
            t0 = time.perf_counter()
            jobs = [
                client.submit(
                    APP,
                    spec,
                    tenant=TENANTS[i % len(TENANTS)],
                    loader_opts={"heap_bytes": HEAP},
                )
                for i, spec in enumerate(_specs(campaigns))
            ]
            results = [j.result() for j in jobs]
            wall = time.perf_counter() - t0
        occupancy = dict(server.server.scheduler.stats.utilization())
    return wall, occupancy, [_fingerprint(r) for r in results]


_RUNNERS = {"direct": _run_direct, "served": _run_served}


def run_bench(campaigns: int = CAMPAIGNS, repeats: int = 2) -> ServeBenchReport:
    """Interleave direct/served runs so background load drifts cancel in
    the overhead ratio; keep the best wall per path and the occupancy of
    the final run (occupancy is deterministic, so any run's will do)."""
    best: dict[str, float] = {p: float("inf") for p in PATHS}
    occupancy: dict[str, dict] = {}
    prints: dict[str, list] = {}
    for _ in range(max(1, repeats)):
        for path in PATHS:
            wall, occ, fps = _RUNNERS[path](campaigns)
            best[path] = min(best[path], wall)
            occupancy[path] = occ
            prints[path] = fps
    if prints["direct"] != prints["served"]:
        raise AssertionError(
            "served results diverged from the direct scheduler path; "
            "refusing to record throughput for wrong answers"
        )
    report = ServeBenchReport(
        schema=SCHEMA,
        config={
            "app": APP,
            "args": SMALL,
            "campaigns": campaigns,
            "instances": INSTANCES,
            "devices": DEVICES,
            "tenants": list(TENANTS),
            "thread_limit": THREAD_LIMIT,
            "repeats": repeats,
        },
    )
    total = campaigns * INSTANCES
    for path in PATHS:
        wall = best[path]
        occ = occupancy[path]
        report.records.append(
            ServeBenchRecord(
                path=path,
                campaigns=campaigns,
                instances_total=total,
                devices=DEVICES,
                wall_s=wall,
                submissions_per_sec=campaigns / wall if wall else 0.0,
                instances_per_sec=total / wall if wall else 0.0,
                occupancy=occ,
                mean_occupancy=(
                    sum(occ.values()) / len(occ) if occ else 0.0
                ),
            )
        )
    from repro.harness.bench import measure_compile_walls

    report.compile_wall_s = measure_compile_walls((APP,), (1,))
    return report


# ---------------------------------------------------------------------------
# regression gate — machine-independent quantities only
# ---------------------------------------------------------------------------
def check_regression(
    current: ServeBenchReport,
    baseline: ServeBenchReport,
    tolerance: float = 0.10,
) -> list[str]:
    """Return a list of human-readable failures (empty = pass)."""
    failures: list[str] = []

    cur_occ = current.record("served").mean_occupancy
    base_occ = baseline.record("served").mean_occupancy
    if cur_occ < base_occ - tolerance:
        failures.append(
            f"served-path occupancy regressed: {cur_occ:.3f} vs baseline "
            f"{base_occ:.3f} (tolerance {tolerance:.2f}) — the admission "
            f"loop is starving devices"
        )

    cur_ov, base_ov = current.overhead(), baseline.overhead()
    limit = base_ov * (1.0 + 2.0 * tolerance)
    if base_ov > 0 and cur_ov > limit:
        failures.append(
            f"serve overhead regressed: served/direct wall ratio "
            f"{cur_ov:.3f} vs baseline {base_ov:.3f} "
            f"(limit {limit:.3f})"
        )

    cw = current.compile_wall_s
    if cw.get("cold"):
        ratio = cw["warm"] / cw["cold"]
        if ratio >= 0.20:
            failures.append(
                f"warm compile wall is {ratio:.0%} of cold (gate: < 20%) "
                "— the executable cache is not earning its keep"
            )
    return failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    """CLI: run the bench, optionally write/compare the JSON report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.bench_serve",
        description="Benchmark the repro.serve path against the direct "
        "scheduler and gate on machine-independent ratios.",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the JSON report to FILE"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed baseline report; exit 1 on "
        "regression",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: {QUICK_CAMPAIGNS} campaigns, 1 repeat",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="occupancy slack (absolute) and half the relative overhead "
        "slack (default 0.10)",
    )
    args = parser.parse_args(argv)

    campaigns = QUICK_CAMPAIGNS if args.quick else CAMPAIGNS
    repeats = 1 if args.quick else args.repeats
    report = run_bench(campaigns=campaigns, repeats=repeats)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as fh:
            baseline = ServeBenchReport.from_json(fh.read())
        failures = check_regression(
            report, baseline, tolerance=args.tolerance
        )
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
