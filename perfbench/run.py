"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` wraps every layer's public entry points, runs one traced
pass (set-up included), restores the originals, runs the same pass
untraced for the overhead figure, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 1 when any output disagrees with its
reference, 2 when the source tree is missing.  See perfbench/README.md.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WORKLOADS = {
    "fig6_sweep": ("perfbench.fig6", "Fig6Sweep"),
    "gp_campaign": ("perfbench.gp_campaign", "GPCampaign"),
    "served_mix": ("perfbench.served", "ServedMix"),
}
SETUP_PROBE_TIMEOUT_S = 60


def _workload(name: str, seed: int):
    import importlib

    modname, cls = WORKLOADS[name]
    return getattr(importlib.import_module(modname), cls)(seed)


def _close(wl) -> None:
    close = getattr(wl, "close", None)
    if close is not None:
        close()


def _percentile(values, q: int) -> float:
    """``q``-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (imports included)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# simulated-statistics record (fig6_sweep)
# ---------------------------------------------------------------------------
def _code_digest() -> str:
    """Digest of the program and of this benchmark (which picks the
    points and seeds the record holds)."""
    h = hashlib.sha256()
    paths = [*(ROOT / "src" / "repro").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_sim_record(workload: str, seed: int, rows: list[dict]) -> list[str]:
    """Compare the exact simulated statistics with an earlier run of the
    same code and seed (stored under perfbench/out), then store them."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"simstats-{workload}-seed{seed}-{_code_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != rows:
            return [f"simulated statistics differ from {path.name}"]
        return []
    path.write_text(json.dumps(rows, indent=1))
    return []


def _print_sim_record(rows: list[dict]) -> None:
    print("simulated statistics (exact; S(N) = T1*N/TN vs paper_data):")
    print(f"  {'app':8s} {'T':>5s} {'N':>3s} {'cycles':>22s} {'steps':>9s} "
          f"{'S(N)':>20s} {'paper':>6s} {'error':>8s}")
    for r in rows:
        paper = "-" if r["paper_speedup"] is None else f"{r['paper_speedup']:.1f}"
        err = "-" if r["error"] is None else f"{r['error']:+.1%}"
        print(f"  {r['app']:8s} {r['thread_limit']:5d} {r['instances']:3d} "
              f"{r['cycles']!r:>22s} {r['steps']:9d} {r['speedup']!r:>20s} "
              f"{paper:>6s} {err:>8s}")


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------
def _measure(wl, workload: str, seed: int, seconds: float):
    wl.setup()
    # This process, then fresh subprocesses, so each pays imports and the
    # process-wide memos cold; setup_s is their median.
    setups = [time.perf_counter() - T_PROCESS]
    setups += [_setup_probe(workload, seed) for _ in range(wl.SETUP_SAMPLES - 1)]
    # A fixed pass count per workload keeps every run doing the same work;
    # a count decided by elapsed time flipped between one and two passes
    # and moved peak RSS by a quarter.
    count = max(1, int(seconds // wl.PASS_SECONDS))
    t0 = time.perf_counter()
    passes = []
    for i in range(count):
        # Every pass starts from a collected heap: left to the collector's
        # own timing, the cyclic garbage of earlier fig6 passes moved peak
        # RSS by a tenth between runs.
        gc.collect()
        passes.append(wl.run_pass(i))
    summary = wl.summarize(passes)
    latencies = summary["latencies"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (_peak_rss_mib(), "MiB"),
        "throughput_per_s": (summary["throughput"], "1/s"),
        "latency_p50_s": (_percentile(latencies, 50), "s"),
    }
    problems = []
    print(f"{workload} seed {seed}: {len(passes)} pass(es) in "
          f"{time.perf_counter() - t0:.2f} s; set-up samples "
          + " ".join(f"{s:.3f}" for s in setups))
    _print_metrics(workload, metrics, passes, summary)
    if workload == "served_mix":
        from perfbench.served import RATE

        open_loop = [x for p in passes for x in p["open_loop"]]
        p50, p90 = _percentile(open_loop, 50), _percentile(open_loop, 90)
        lag_p90 = _percentile([x for p in passes for x in p["lags"]], 90)
        print(f"  phase A (open loop, {len(open_loop)} jobs at {RATE} jobs/s): "
              f"latency p50 {p50:.4f} s, p90 {p90:.4f} s; generator lag p90 "
              f"{lag_p90:.4f} s")
        print("  phase B backlog rates (jobs/s): " + " ".join(
            f"{x:.1f}" for p in passes for x in p["burst_rates"]))
        if lag_p90 >= p50:
            # the gated figures come from the backlogs; only these
            # open-loop latencies are void
            print("  phase A INVALID: the generator's lag reached its p50 latency")
    if workload == "fig6_sweep":
        print("  launch wall (median over passes): " + ", ".join(
            f"{label} {w:.3f} s" for label, w in summary["launch_walls"].items()))
        rows = wl.sim_record()
        _print_sim_record(rows)
        problems += wl.sim_drift + _check_sim_record(workload, seed, rows)
    return metrics, passes, problems


def _print_metrics(workload: str, metrics: dict, passes: list, summary: dict) -> None:
    """The JSON metrics, then the workload-specific named figures of the
    benchmark doc (n/a where a workload does not exercise them)."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fig6 = workload == "fig6_sweep"
    gp = workload == "gp_campaign"
    served = workload == "served_mix"
    named = dict(metrics)
    named.update({
        # printed, not gated: on fig6 it is the wall of a single launch
        # kind (the timed N=64 one) and spread by a fifth over ten runs
        "latency_p90_s": (_percentile(summary["latencies"], 90), "s"),
        "timed_wall_s": (summary["timed_wall"], "s") if fig6 else None,
        "untimed_wall_s": (summary["untimed_wall"], "s") if fig6 else None,
        "variants_per_s": (summary["throughput"], "1/s") if gp else None,
        "burst_jobs_per_s": (summary["throughput"], "1/s") if served else None,
        "failed_frac": (failed / attempted if attempted else 0.0, f"of {attempted}"),
    })
    for name, got in named.items():
        text = "n/a (not exercised)" if got is None else f"{got[0]:.6g} {got[1]}"
        print(f"  {name:18s} {text}")


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------
def _traced(wl, workload: str):
    from perfbench.spans import Hooks, SpanTable, Tracer

    tracer = Tracer()

    def count_steps(args, result):
        tracer.bump("exec.steps", args[0].steps)

    on_exit = {
        "repro.runtime.interpreter:BlockExecutor.run": count_steps,
        "repro.runtime.compiled:CompiledBlockExecutor.run": count_steps,
        "repro.compilecache.cache:ExecutableCache.get_or_build":
            lambda a, r: tracer.bump("cache.misses" if r.tier == "build" else "cache.hits"),
    }
    if workload == "served_mix":
        def tag_job(args, result):
            seed = result.instances[0].args[-1]
            tracer.tag_last_call(wl.seed_owner.get(seed, "-"))

        on_exit["repro.host.ensemble_loader:EnsembleLoader.run_ensemble"] = tag_job
    hooks = Hooks(tracer, on_exit)
    hooks.install()
    try:
        tracer.window[0] = time.perf_counter()
        wl.setup()
        traced = wl.run_pass(0, tracer)
        tracer.close()
    finally:
        hooks.restore()
    problems = [f"wrapper not restored: {x}" for x in hooks.unrestored()]
    untraced = wl.run_pass(0)
    spans = SpanTable(tracer)
    metrics = _layer_metrics(wl, workload, tracer, spans, traced)
    metrics["trace_overhead_frac"] = (traced["wall"] / untraced["wall"] - 1.0, "frac")
    metrics["unattributed_frac"] = (spans.unattributed_frac(), "frac")

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}.npz"))
    print(f"{workload}: traced pass {traced['wall']:.3f} s, untraced "
          f"{untraced['wall']:.3f} s; {len(spans)} spans written to "
          f"perfbench/out/spans-{workload}.npz")
    if hooks.missing:
        print("  hooks not found in this code: " + ", ".join(hooks.missing))
    _print_ranking("layer self time, whole traced run", spans.self_by_layer())
    if workload == "fig6_sweep":
        timed = spans.self_by_layer(spans.with_rid(lambda r: r.endswith("/timed")))
        _print_ranking("layer self time within the timed launches", timed)
    return metrics, [traced, untraced], problems


def _print_ranking(title: str, by_layer: dict[str, float]) -> None:
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    print(f"  {title}: " + ", ".join(f"{n} {v:.3f} s" for n, v in ranked if v > 0))


def _layer_metrics(wl, workload, tracer, spans, traced) -> dict:
    lookups = spans.calls("ExecutableCache.get_or_build")
    hits = tracer.counts.get("cache.hits", 0)
    steps = tracer.counts.get("exec.steps", 0)
    self_s = spans.self_by_layer()
    queue_waits, rtts, open_loop, lags, occupancy, events = [], [], [], [], 0.0, 0
    if workload == "served_mix":
        # from a phase-A job's due time to the first scheduler step that
        # ran it (backlog waits are long by construction)
        sched = (spans.thread >= 0) & spans.in_layer("sched")
        rid_of = {n: i for i, n in enumerate(tracer.rid_names)}
        for r in traced["records"]:
            if r["phase"] == "A" and r["label"] in rid_of:
                mine = sched & (spans.rid == rid_of[r["label"]])
                if mine.any():
                    queue_waits.append(float(spans.start[mine].min()) - r["due"])
        rtts, events = traced["rtts"], traced["events"]
        open_loop, lags = traced["open_loop"], traced["lags"]
        occupancy = wl.utilization()
    return {
        "frontend.calls": (spans.calls("Program.compile"), "count"),
        "frontend.self_s": (self_s["frontend"], "s"),
        "passes.calls": (spans.calls("compile_for_device", "finalize_executable"), "count"),
        "passes.self_s": (self_s["passes"], "s"),
        "analysis.self_s": (self_s["analysis"], "s"),
        "cache.lookups": (lookups, "count"),
        "cache.hits": (hits, "count"),
        "cache.misses": (tracer.counts.get("cache.misses", 0), "count"),
        "cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "cache.self_s": (self_s["cache"], "s"),
        "lower.self_s": (self_s["lower"], "s"),
        "launch.calls": (spans.calls("GPUDevice.launch"), "count"),
        "launch.self_s": (self_s["launch"], "s"),
        "exec.teams": (spans.calls("BlockExecutor.run"), "count"),
        "exec.steps": (steps, "count"),
        "exec.self_s": (self_s["exec"], "s"),
        "exec.steps_per_s": (steps / self_s["exec"] if self_s["exec"] else 0.0, "1/s"),
        "trace.mem_events": (spans.calls("TraceCollector.on_mem"), "count"),
        "trace.self_s": (self_s["trace"], "s"),
        "timing.kernels": (spans.calls("TimingModel.kernel_time"), "count"),
        "timing.self_s": (self_s["timing"], "s"),
        "loader.runs": (spans.calls("EnsembleLoader.run_ensemble", "Loader.run"), "count"),
        "loader.self_s": (self_s["loader"], "s"),
        "rpc.calls": (spans.calls("RPCHost.handle"), "count"),
        "rpc.self_s": (self_s["rpc"], "s"),
        "sched.steps": (spans.calls("Scheduler.step"), "count"),
        "sched.self_s": (self_s["sched"], "s"),
        "sched.queue_wait_p50_s": (
            statistics.median(queue_waits) if queue_waits else 0.0, "s"),
        "sched.occupancy": (occupancy, "ratio"),
        "wire.docs": (spans.outermost("wire"), "count"),
        "wire.self_s": (self_s["wire"], "s"),
        "serve.submit_rtt_p50_s": (statistics.median(rtts) if rtts else 0.0, "s"),
        "serve.events": (events, "count"),
        "serve.self_s": (self_s["serve"], "s"),
        "serve.open_loop_p50_s": (_percentile(open_loop, 50), "s"),
        "serve.open_loop_p90_s": (_percentile(open_loop, 90), "s"),
        "serve.generator_lag_p90_s": (_percentile(lags, 90), "s"),
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    wl = _workload(args.workload, args.seed)
    try:
        if args.setup_probe:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T_PROCESS}))
            return 0
        if args.trace:
            metrics, passes, problems = _traced(wl, args.workload)
        else:
            metrics, passes, problems = _measure(
                wl, args.workload, args.seed, args.seconds
            )
    finally:
        _close(wl)

    for failure in getattr(wl, "failures", []):
        print(f"FAILED {failure}")
    problems = wl.oracle.mismatches + problems
    for problem in problems:
        print(f"WRONG {problem}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
