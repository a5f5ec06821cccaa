"""Argument-file parsing (§3.2, Figure 5b).

One line per application instance; tokens separated by whitespace.  Two
quality-of-life extensions over the paper's proof of concept (both clearly
optional: a file written for the paper's loader parses identically here):

* blank lines and ``#`` comment lines are skipped,
* single/double quotes group tokens containing spaces (POSIX shell rules).
"""

from __future__ import annotations

import shlex
from pathlib import Path

from repro.errors import ArgFileError


def parse_argument_text(text: str) -> list[list[str]]:
    """Parse argument-file contents into one token list per instance."""
    instances: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = shlex.split(line, posix=True)
        except ValueError as exc:
            raise ArgFileError(f"line {lineno}: {exc}") from exc
        if tokens:
            instances.append(tokens)
    return instances


def parse_argument_file(path: str | Path) -> list[list[str]]:
    """Read and parse an argument file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ArgFileError(f"cannot read argument file {p}: {exc}") from exc
    return parse_argument_text(text)


def resolve_arg_source(arg_source) -> list[list[str]]:
    """Normalize any supported argument source to one token list per instance.

    Accepted shapes (the union of what every launch entry point takes):

    * ``list``/``tuple`` of per-instance token sequences — already parsed;
      tokens are coerced to ``str``,
    * any other iterable of per-instance configs (generators, map objects,
      the derived-config stream of the auto-ensemble frontend) — each
      element is a token sequence, or a ``str`` parsed as one
      argument-file line (shell quoting rules),
    * :class:`~pathlib.Path` — an argument file on disk,
    * ``str`` without a newline that names an existing file — ditto,
    * any other ``str`` — raw argument-file text.

    This is the single resolution point behind
    :class:`~repro.host.launch.LaunchSpec`; loaders, the scheduler, and
    the auto-ensemble frontend all accept the same
    shapes because they all call this.
    """
    if isinstance(arg_source, Path):
        return parse_argument_file(arg_source)
    if isinstance(arg_source, str):
        if "\n" not in arg_source and Path(arg_source).exists():
            return parse_argument_file(arg_source)
        return parse_argument_text(arg_source)
    if hasattr(arg_source, "__iter__"):
        instances = []
        for lineno, line in enumerate(arg_source, start=1):
            if isinstance(line, str):
                try:
                    tokens = shlex.split(line, posix=True)
                except ValueError as exc:
                    raise ArgFileError(f"instance {lineno}: {exc}") from exc
            elif hasattr(line, "__iter__"):
                tokens = [str(t) for t in line]
            else:
                raise ArgFileError(
                    f"instance {lineno}: expected a token sequence or an "
                    f"argument-line string, got {type(line).__name__}"
                )
            instances.append(tokens)
        return instances
    raise ArgFileError(
        f"unsupported argument source {type(arg_source).__name__}"
    )


def write_argument_file(path: str | Path, instances: list[list[str]]) -> None:
    """Write instances back in the file format (round-trips with parse)."""
    lines = []
    for tokens in instances:
        quoted = [shlex.quote(t) for t in tokens]
        lines.append(" ".join(quoted))
    Path(path).write_text("\n".join(lines) + "\n")
