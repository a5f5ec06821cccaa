"""The shipped examples must actually run (they are the quickstart docs)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "pi ~= 3.14159265" in out
    assert "all exit codes zero: True" in out


def test_packed_mapping(capsys):
    out = run_example("packed_mapping.py", capsys)
    assert "one-instance-per-team" in out
    assert "packed-4-per-team" in out
    assert "ok=True" in out


def test_xsbench_ensemble(capsys):
    out = run_example("xsbench_ensemble.py", capsys)
    assert "expanded argument file" in out
    assert "S(8) = T1*N/TN" in out
    assert "XSBench checksum" in out


@pytest.mark.slow
def test_pagerank_capacity(capsys):
    out = run_example("pagerank_capacity.py", capsys)
    assert "device out of memory" in out


def test_batched_campaign(capsys):
    out = run_example("batched_campaign.py", capsys)
    assert "campaign of 12 instances against a 1536 KiB heap" in out
    assert "OOM retries while probing: 2; final batch size: 3" in out
    assert "all 12 instances succeeded: True" in out


def test_profiling_example_listed():
    # the slow profiling example is exercised manually; assert it exists
    assert (EXAMPLES / "profiling.py").exists()


def test_trace_ensemble_example(tmp_path, capsys):
    sys.path.insert(0, str(EXAMPLES))
    try:
        import trace_ensemble
    finally:
        sys.path.pop(0)
    trace_ensemble.CAMPAIGN = trace_ensemble.CAMPAIGN[:4]  # keep it quick
    trace_ensemble.run(2, str(tmp_path))
    out = capsys.readouterr().out
    assert "all ok" in out
    assert (tmp_path / "trace.json").exists()
    assert (tmp_path / "metrics.json").exists()
