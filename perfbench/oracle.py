"""Reference checks that do not depend on the compiler under test.

Every instance checksum is compared against :mod:`repro.apps.reference`
(exact numpy replays of the device arithmetic) for that instance's own
arguments and seed; every GP total against :func:`repro.apps.gp.
reference_total`, a host-side evaluation of the genome.
"""

from __future__ import annotations

import re

#: The printed observable of the registry apps (as in harness.validate).
CHECKSUM_RE = re.compile(r"(?:checksum|total rank) ([-\d.]+)")

#: app -> command-line flag -> keyword of the app's reference function.
REFERENCE_KWARGS = {
    "xsbench": {"-g": "gridpoints", "-n": "nuclides", "-l": "lookups", "-s": "seed"},
    "amgmk": {"-n": "rows", "-i": "iters", "-s": "seed"},
    "stencil": {"-n": "points", "-i": "iters", "-s": "seed"},
    "pagerank": {"-n": "nodes", "-d": "degree", "-i": "iters", "-s": "seed"},
}

#: Relative tolerance of a printed ``%.10f`` checksum (harness.validate's).
REL_TOL = 1e-9


class Oracle:
    """Records every output that disagrees with its reference."""

    def __init__(self):
        self.mismatches: list[str] = []
        self._expected: dict[tuple, float] = {}

    def expected(self, app: str, args: list[str]) -> float:
        """Reference checksum of one instance (memoized per args)."""
        key = (app, tuple(args))
        value = self._expected.get(key)
        if value is None:
            from repro.apps.registry import APPS

            names = REFERENCE_KWARGS[app]
            kwargs = {names[f]: int(v) for f, v in zip(args[::2], args[1::2])}
            value = self._expected[key] = float(APPS[app].reference_fn(**kwargs))
        return value

    def check_instance(self, app: str, args, exit_code: int, stdout: str) -> bool:
        """One ensemble instance: exit code 0 and checksum == reference."""
        expected = self.expected(app, list(args))
        m = CHECKSUM_RE.search(stdout)
        measured = float(m.group(1)) if m else None
        ok = (
            exit_code == 0
            and measured is not None
            and abs(measured - expected) <= REL_TOL * max(1.0, abs(expected))
        )
        if not ok:
            self.mismatches.append(
                f"{app} {' '.join(args)}: exit {exit_code}, printed "
                f"{measured!r}, reference {expected!r}"
            )
        return ok

    def check_gp(self, genome, exit_code: int, stdout: str) -> int | None:
        """One GP variant: printed total == reference total, and the exit
        code is the masked total.  Returns the total when it matches."""
        from repro.apps import gp

        expected = gp.reference_total(genome)
        total = None
        for line in stdout.splitlines():
            if line.startswith("gp total "):
                total = int(line.rsplit(" ", 1)[-1])
        if total == expected and exit_code == expected & gp.EXIT_MASK:
            return total
        self.mismatches.append(
            f"gp {gp.render_expr(genome)}: exit {exit_code}, printed "
            f"{total!r}, reference {expected!r}"
        )
        return None
