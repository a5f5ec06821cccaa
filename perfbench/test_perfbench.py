"""Self-tests of the benchmark: the reference oracle catches a wrong value,
the command exits non-zero on it, and the traced run's wrappers are
removed again.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json

from perfbench import fig6, run
from perfbench.oracle import Oracle
from perfbench.spans import Hooks, Tracer, union_length, uncovered_length

STENCIL_ARGS = ["-n", "256", "-i", "2", "-s", "7"]


def _stencil_run():
    from repro.apps.registry import APPS
    from repro.gpu.device import GPUDevice
    from repro.host.ensemble_loader import EnsembleLoader
    from repro.host.launch import LaunchSpec

    loader = EnsembleLoader(
        APPS["stencil"].build_program(), GPUDevice(), heap_bytes=8 << 20
    )
    return loader.run_ensemble(
        LaunchSpec([STENCIL_ARGS], thread_limit=32, collect_timing=False,
                   backend="compiled")
    )


def test_oracle_negative_control():
    inst = _stencil_run().instances[0]
    oracle = Oracle()
    assert oracle.check_instance("stencil", inst.args, inst.exit_code, inst.stdout)
    assert oracle.mismatches == []

    # corrupt one expected value: the same output must now be refused
    key = ("stencil", tuple(inst.args))
    oracle._expected[key] += 1e-6
    assert not oracle.check_instance("stencil", inst.args, inst.exit_code, inst.stdout)
    assert len(oracle.mismatches) == 1 and "reference" in oracle.mismatches[0]


def test_gp_oracle_rejects_wrong_total():
    oracle = Oracle()
    genome = ("add", "x", 1)
    assert oracle.check_gp(genome, 78, "gp total 78\n") == 78
    assert oracle.check_gp(genome, 79, "gp total 79\n") is None
    assert len(oracle.mismatches) == 1


def test_command_exits_nonzero_on_reference_mismatch(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(fig6, "POINTS", {"stencil": ((32, 1),)})
    monkeypatch.setattr(fig6.Fig6Sweep, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    real = Oracle.expected
    monkeypatch.setattr(
        Oracle, "expected", lambda self, app, args: real(self, app, args) + 1.0
    )
    code = run.main(["--workload", "fig6_sweep", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0  # every instance refused


def test_hooks_restore_original_functions():
    from repro.gpu.device import GPUDevice
    from repro.runtime.trace import TraceCollector

    launch = GPUDevice.__dict__["launch"]
    on_mem = TraceCollector.__dict__["on_mem"]
    tracer = Tracer()
    hooks = Hooks(tracer)
    hooks.install()
    try:
        assert GPUDevice.__dict__["launch"] is not launch
        _stencil_run()
    finally:
        hooks.restore()
    assert hooks.missing == []
    assert hooks.unrestored() == []
    assert GPUDevice.__dict__["launch"] is launch
    assert TraceCollector.__dict__["on_mem"] is on_mem
    recorded = tracer.arrays()["start"].size
    assert recorded > 0
    _stencil_run()
    assert tracer.arrays()["start"].size == recorded


def test_interval_arithmetic():
    assert union_length([0, 1, 5], [2, 3, 6], 0, 10) == 4.0
    assert union_length([0], [4], 1, 3) == 2.0
    assert uncovered_length(([0, 5], [4, 8]), ([1], [6])) == 3.0
