"""Ablation: the device LTO pipeline's effect on simulated kernel time.

The paper compiles everything with ``-O3``; this bench quantifies what our
equivalent (constant folding + DCE + LICM + CFG simplification after
mandatory inlining) buys.  Because the timing model charges real issue
cycles per executed instruction, compiler quality shows up directly in
``T1`` — exactly as on real hardware.

Run: ``pytest benchmarks/test_ablation_optimization.py --benchmark-only -s``
"""

import pytest

from repro.apps import xsbench
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE

WORKLOAD = [["-g", "512", "-n", "8", "-l", "128", "-s", "1"]]


def _run():
    out = {}
    for opt_level in (0, 1):
        loader = EnsembleLoader(
            xsbench.build_program(),
            GPUDevice(SMALL_DEVICE),
            heap_bytes=16 * 1024 * 1024,
            opt_level=opt_level,
        )
        res = loader.run_ensemble(LaunchSpec(WORKLOAD, thread_limit=32))
        kernel_size = loader.module.functions["__ensemble_entry"].instruction_count()
        out["O2" if opt_level else "O0"] = {
            "cycles": res.cycles,
            "steps": res.launch.interpreter_steps,
            "static_instructions": kernel_size,
        }
    return out


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=0.001)
def test_optimization_ablation(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    benchmark.extra_info["by_opt_level"] = {
        k: {kk: round(vv, 1) for kk, vv in v.items()} for k, v in rows.items()
    }
    print()
    for level, stats in rows.items():
        print(
            f"{level}: {stats['cycles']:>12,.0f} cycles, "
            f"{stats['steps']:>9,} interpreter steps, "
            f"{stats['static_instructions']:>6,} static instructions"
        )
    o0, o2 = rows["O0"], rows["O2"]
    assert o2["static_instructions"] < o0["static_instructions"]
    assert o2["steps"] < o0["steps"] * 0.9  # LICM et al. cut dynamic work
    assert o2["cycles"] <= o0["cycles"]  # never slower
    print(
        f"optimization: {o0['steps'] / o2['steps']:.2f}x fewer dynamic "
        f"instructions, {o0['cycles'] / o2['cycles']:.3f}x on simulated time "
        "(XSBench is memory-bound: compute savings hide behind memory, as "
        "they would on the A100)"
    )
