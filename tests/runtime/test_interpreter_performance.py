"""Interpreter performance guards.

These pin the *step counts* (deterministic, machine-independent) of known
workloads so regressions in the uniform fast path, the reconvergence-aware
CFG layout, or LICM show up as test failures rather than silently tripling
benchmark wall time."""

import pytest

from repro.apps import rsbench, xsbench
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE


def steps_for(module, args, heap=1 << 22, thread_limit=32):
    loader = EnsembleLoader(
        module.build_program(), GPUDevice(SMALL_DEVICE), heap_bytes=heap
    )
    res = loader.run_ensemble(LaunchSpec([args], thread_limit=thread_limit,
                              collect_timing=False))
    assert res.return_codes == [0]
    return res.launch.interpreter_steps


def test_xsbench_step_budget():
    # measured ~17.5k with LICM + reconvergence-preserving threading;
    # generous headroom, but a lost fast path would be 2-3x over budget
    steps = steps_for(xsbench, ["-g", "256", "-n", "4", "-l", "64", "-s", "1"])
    assert steps < 30_000, f"XSBench step count regressed: {steps}"


def test_rsbench_stays_uniform():
    """RSBench's pole loop has no data-dependent branches: virtually zero
    divergent execution (guards the uniform fast path)."""
    loader = EnsembleLoader(
        rsbench.build_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 22
    )
    res = loader.run_ensemble(LaunchSpec(
        [["-p", "16", "-n", "2", "-l", "64", "-s", "1"]], thread_limit=32
    ))
    trace = res.launch.traces[0]
    assert trace.divergent_instructions < 0.02 * trace.dynamic_instructions


def test_optimization_reduces_steps():
    """The LTO pipeline must keep paying for itself in dynamic work."""
    def run(opt_level):
        loader = EnsembleLoader(
            xsbench.build_program(), GPUDevice(SMALL_DEVICE),
            heap_bytes=1 << 22, opt_level=opt_level,
        )
        res = loader.run_ensemble(LaunchSpec(
            [["-g", "256", "-n", "4", "-l", "64", "-s", "1"]],
            thread_limit=32, collect_timing=False,
        ))
        return res.launch.interpreter_steps

    assert run(1) < run(0) * 0.9
