"""Golden stdout of single-device ``repro-ensemble`` runs.

``fixtures/cli_golden.json`` holds page-rank runs recorded when
``--max-batch`` still went through a separate single-device batch runner,
whose summary line ended in ``(B batches, K oom retries)``.  The
scheduler now runs them and prints its own ``scheduler:`` line instead.
Every other line must match byte for byte, and the scheduler's batch and
OOM-split counts must equal B and K.
"""

import json
import re
from pathlib import Path

import pytest

from repro.host.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "cli_golden.json").read_text()
)
RUNNER_SUFFIX = re.compile(r" \((\d+) batches, (\d+) oom retries\)$")
SCHEDULER_LINE = re.compile(
    r"scheduler: 1 devices, (\d+) batches, (\d+) oom splits, 0 retries, "
    r"utilization pool0=1\.00$"
)


@pytest.fixture(scope="module")
def arg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "pagerank.args"
    path.write_text(
        "".join(f"-n 4096 -d 8 -i 1 -s {s}\n" for s in range(1, 15))
    )
    return str(path)


def expected_lines(stdout):
    """Golden lines with the runner suffix swapped for a scheduler-line
    matcher; returns (lines, (batches, oom_retries) or None)."""
    lines, counts = [], None
    for line in stdout.splitlines():
        m = RUNNER_SUFFIX.search(line)
        if m is not None:
            counts = (int(m.group(1)), int(m.group(2)))
            lines += [line[: m.start()], SCHEDULER_LINE]
        else:
            lines.append(line)
    return lines, counts


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name, arg_file, capsys):
    case = GOLDEN[name]
    code = main([a.replace("{args}", arg_file) for a in case["argv"]])
    assert code == case["exit_code"]
    got = capsys.readouterr().out.splitlines()
    want, counts = expected_lines(case["stdout"])
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if isinstance(want_line, str):
            assert got_line == want_line
        else:
            m = want_line.match(got_line)
            assert m is not None, got_line
            assert (int(m.group(1)), int(m.group(2))) == counts
    assert (counts is None) == (name == "direct")
