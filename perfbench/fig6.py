"""``fig6_sweep``: a slice of the paper's Figure-6 sweep, closed loop.

One launch at a time through ``EnsembleLoader.run_ensemble`` on the
compiled backend: every point is launched untimed, then timed (timing
model on).  The points keep the paper's two regimes (xsbench:
memory-bound random lookups; amgmk: bandwidth-bound sweeps) at both
thread limits, with N=1 (the S(N) baseline) and the paper's headline
N=64.  A pass (one round over every point) is repeated within a run and
each launch's wall is taken as its median over the rounds, so a stretch
of slow host time moves one sample rather than the figure.  To fit three
rounds into one run, the paper's N=16 at T=32 is trimmed to N=2 and
xsbench's N=64 at T=1024 to N=8 (paper_data has S(N) for both); amgmk
keeps N=64.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import nullcontext

from perfbench.oracle import Oracle

NAME = "fig6_sweep"
#: app -> (thread limit, instances) points, in launch order.
POINTS = {
    "xsbench": ((32, 1), (32, 2), (1024, 1), (1024, 8)),
    "amgmk": ((32, 1), (32, 2), (1024, 1), (1024, 64)),
}
BACKEND = "compiled"


class Fig6Sweep:
    """Loaders for both apps plus the seeded instance lines of each point."""

    #: wall of one pass (a round over every point) on a 2-core x86-64
    #: host; a run of --seconds S makes S // PASS_SECONDS passes, at least one
    PASS_SECONDS = 10.0
    #: set-ups measured per run; setup_s is their median
    SETUP_SAMPLES = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.oracle = Oracle()
        self.loaders: dict = {}
        self.lines: dict[tuple, list[list[str]]] = {}
        #: (app, T, N) -> (cycles, steps) of the first pass
        self.sim: dict[tuple, tuple[float, int]] = {}
        self.sim_drift: list[str] = []

    def setup(self) -> None:
        from repro.apps.registry import APPS as REGISTRY
        from repro.gpu.device import GPUDevice
        from repro.harness.figure6 import FIGURE6_WORKLOADS
        from repro.host.ensemble_loader import EnsembleLoader
        from repro.host.launch import LaunchSpec

        rng = random.Random(f"{NAME}:{self.seed}")
        for app, points in POINTS.items():
            wl = FIGURE6_WORKLOADS[app]
            self.loaders[app] = EnsembleLoader(
                REGISTRY[app].build_program(),
                GPUDevice(),
                heap_bytes=wl.heap_bytes,
            )
            for t, n in points:
                seeds = rng.sample(range(1, 1 << 20), n)
                self.lines[(app, t, n)] = [
                    list(wl.args) + ["-s", str(s)] for s in seeds
                ]
            # The first compiled launch pays lowering and codegen.
            self.loaders[app].run_ensemble(
                LaunchSpec(
                    self.lines[(app, 32, 1)],
                    thread_limit=32,
                    collect_timing=False,
                    backend=BACKEND,
                )
            )

    def run_pass(self, index: int, tracer=None) -> dict:
        """Every point untimed then timed; returns the pass record."""
        from repro.host.launch import LaunchSpec

        launches = []
        attempted = failed = 0
        for app, points in POINTS.items():
            for t, n in points:
                point = (app, t, n)
                steps = []
                for timed in (False, True):
                    spec = LaunchSpec(
                        self.lines[point],
                        thread_limit=t,
                        collect_timing=timed,
                        backend=BACKEND,
                    )
                    label = f"{app}/T{t}/N{n}/{'timed' if timed else 'untimed'}"
                    t0 = time.perf_counter()
                    with tracer.request(label) if tracer else nullcontext():
                        run = self.loaders[app].run_ensemble(spec)
                    wall = time.perf_counter() - t0
                    launches.append(
                        dict(label=label, wall=wall, n=n, timed=timed)
                    )
                    for inst in run.instances:
                        attempted += 1
                        if not self.oracle.check_instance(
                            app, inst.args, inst.exit_code, inst.stdout
                        ):
                            failed += 1
                    steps.append(run.launch.interpreter_steps)
                self._record_sim(point, run.cycles, steps)
        return dict(
            wall=sum(x["wall"] for x in launches),
            launches=launches,
            attempted=attempted,
            failed=failed,
        )

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        """The sweep as it runs when every launch takes its median wall
        over the passes: instances per second, and per instance the wall
        of the launch that ran it (its result is ready when that returns)."""
        walls: dict[str, list[float]] = {}
        for p in passes:
            for x in p["launches"]:
                walls.setdefault(x["label"], []).append(x["wall"])
        launches = [
            dict(x, wall=statistics.median(walls[x["label"]]))
            for x in passes[0]["launches"]
        ]
        total = sum(x["wall"] for x in launches)
        return dict(
            throughput=sum(x["n"] for x in launches) / total,
            latencies=[x["wall"] for x in launches for _ in range(x["n"])],
            launch_walls={x["label"]: x["wall"] for x in launches},
            timed_wall=sum(x["wall"] for x in launches if x["timed"]),
            untimed_wall=sum(x["wall"] for x in launches if not x["timed"]),
        )

    def _record_sim(self, point, cycles, steps) -> None:
        untimed_steps, timed_steps = steps
        if untimed_steps != timed_steps:
            self.sim_drift.append(
                f"{point}: untimed {untimed_steps} steps, timed {timed_steps}"
            )
        got = (cycles, timed_steps)
        first = self.sim.setdefault(point, got)
        if got != first:
            self.sim_drift.append(f"{point}: pass record {got} != {first}")

    def sim_record(self) -> list[dict]:
        """Exact simulated statistics per point, with S(N) = T1*N/TN beside
        the digitized paper value (relative error)."""
        from repro.harness.paper_data import PAPER_FIG6

        rows = []
        for app, points in POINTS.items():
            for t, n in points:
                cycles, steps = self.sim[(app, t, n)]
                t1 = self.sim[(app, t, 1)][0]
                speedup = t1 * n / cycles
                paper = 1.0 if n == 1 else PAPER_FIG6[t][app].get(n)
                rows.append(
                    dict(
                        app=app,
                        thread_limit=t,
                        instances=n,
                        cycles=cycles,
                        steps=steps,
                        speedup=speedup,
                        paper_speedup=paper,
                        error=None if paper is None else speedup / paper - 1.0,
                    )
                )
        return rows
