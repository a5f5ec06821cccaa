"""Versioned wire formats: the serialization layer behind ``repro.serve``.

A campaign that crosses a process boundary — a remote submission, a
streamed result, a ticket reclaimed after a reconnect — is described by
*wire documents*: plain JSON objects with two mandatory envelope fields::

    {"kind": "LaunchSpec", "schema_version": 1, ...}

The value types that travel (``LaunchSpec``, ``FaultPlan``,
``FaultReport``, ``InstanceOutcome``, ``BatchRecord``, ``JobResult``,
``JobTicket``, ``Submission``) each carry ``to_wire()`` /
``from_wire()`` built on the helpers here.  The compatibility policy:

* **Readers tolerate unknown fields.**  A newer peer may add fields
  within the same ``schema_version``; readers consume the keys they know
  and ignore the rest, so rolling upgrades do not require lockstep.
* **Readers reject newer schema versions.**  A document whose
  ``schema_version`` exceeds :data:`WIRE_SCHEMA_VERSION` fails with the
  stable error code :data:`E_VERSION` — unknown *fields* are tolerable,
  unknown *semantics* are not.
* **Errors carry stable codes.**  Every failure mode a client can
  program against is named by a code from :data:`ERROR_CODES`; messages
  are for humans and may change, codes may not.

``python -m repro.serve.check`` validates a committed corpus of wire
documents against these rules; see docs/serve.md for the full protocol.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import ReproError

#: Version stamped on every document this process writes.  Bump only on
#: an incompatible change (renamed/retyped field, changed semantics);
#: additive fields ride on the same version.
WIRE_SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# stable error codes
# ---------------------------------------------------------------------------
#: Document malformed: not an object, bad envelope, missing or mistyped field.
E_SCHEMA = "E_SCHEMA"
#: ``schema_version`` newer than this process understands.
E_VERSION = "E_VERSION"
#: Request is well-formed JSON but semantically invalid for the op.
E_BAD_REQUEST = "E_BAD_REQUEST"
#: Request names an op the server does not implement.
E_UNKNOWN_OP = "E_UNKNOWN_OP"
#: Submission names an application not in the server's registry.
E_UNKNOWN_APP = "E_UNKNOWN_APP"
#: Request names a job id the server has no record of.
E_UNKNOWN_JOB = "E_UNKNOWN_JOB"
#: Admission control refused the submission (queue limits reached).
E_ADMISSION = "E_ADMISSION"
#: The server is draining and accepts no new submissions.
E_DRAINING = "E_DRAINING"
#: The job reached a terminal error (the message carries the cause).
E_JOB_FAILED = "E_JOB_FAILED"
#: Anything else; a bug if a client ever programs against it.
E_INTERNAL = "E_INTERNAL"

#: Every stable code, in one place for docs and the corpus checker.
ERROR_CODES = frozenset(
    {
        E_SCHEMA,
        E_VERSION,
        E_BAD_REQUEST,
        E_UNKNOWN_OP,
        E_UNKNOWN_APP,
        E_UNKNOWN_JOB,
        E_ADMISSION,
        E_DRAINING,
        E_JOB_FAILED,
        E_INTERNAL,
    }
)


class WireError(ReproError):
    """A wire document or protocol message was rejected.

    ``code`` is one of :data:`ERROR_CODES` — the stable, programmable
    identity of the failure; the message is advisory.
    """

    def __init__(self, message: str, *, code: str = E_SCHEMA):
        assert code in ERROR_CODES, code
        self.code = code
        super().__init__(message)


# ---------------------------------------------------------------------------
# envelope helpers
# ---------------------------------------------------------------------------
#: Sentinel for required fields in :func:`get_field`.
_REQUIRED = object()


def envelope(kind: str) -> dict:
    """A fresh wire document of ``kind`` with the version stamped."""
    return {"kind": kind, "schema_version": WIRE_SCHEMA_VERSION}


def check_envelope(data: Any, kind: str) -> dict:
    """Validate the two envelope fields; returns ``data`` for chaining."""
    if not isinstance(data, dict):
        raise WireError(
            f"{kind} wire document must be a JSON object, "
            f"got {type(data).__name__}"
        )
    got = data.get("kind")
    if got != kind:
        raise WireError(f"expected wire kind {kind!r}, got {got!r}")
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise WireError(f"{kind}: schema_version must be an integer")
    if version > WIRE_SCHEMA_VERSION:
        raise WireError(
            f"{kind}: schema_version {version} is newer than this "
            f"process understands (max {WIRE_SCHEMA_VERSION})",
            code=E_VERSION,
        )
    return data


def get_field(
    data: dict,
    key: str,
    types,
    default: Any = _REQUIRED,
    *,
    kind: str = "document",
):
    """Typed field access with wire-grade errors.

    ``types`` is a type or tuple accepted for the value.  A missing key
    returns ``default``, or raises :class:`WireError` when no default was
    given.  ``bool`` is never accepted where a number was asked for.
    """
    value = data.get(key)
    if value is None:  # absent and explicit null read the same
        if default is _REQUIRED:
            raise WireError(f"{kind}: missing required field {key!r}")
        return default
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in _astuple(types)
    ):
        raise WireError(
            f"{kind}: field {key!r} must be "
            f"{_typenames(types)}, got {type(value).__name__}"
        )
    return value


def _astuple(types) -> tuple:
    return types if isinstance(types, tuple) else (types,)


def _typenames(types) -> str:
    return "/".join(t.__name__ for t in _astuple(types))


def string_list(data: dict, key: str, *, kind: str) -> list[str]:
    """A required list-of-strings field."""
    raw = get_field(data, key, list, kind=kind)
    out = []
    for item in raw:
        if not isinstance(item, str):
            raise WireError(
                f"{kind}: field {key!r} must hold strings, "
                f"got {type(item).__name__}"
            )
        out.append(item)
    return out


# ---------------------------------------------------------------------------
# canonical form + hashing
# ---------------------------------------------------------------------------
def canonical_json(data: dict) -> str:
    """Deterministic serialization: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def spec_hash(data: dict) -> str:
    """Content hash of a wire document (used as ``JobTicket.spec_hash``).

    Two submissions with the same resolved workload and limits hash
    identically regardless of field order — the key a compile-once cache
    or a dedup layer would use.
    """
    digest = hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
    return f"sha256:{digest[:32]}"


# ---------------------------------------------------------------------------
# dispatch for heterogeneous corpora
# ---------------------------------------------------------------------------
def from_wire_any(data: Any):
    """Parse a wire document of any registered kind (corpus checker)."""
    if not isinstance(data, dict):
        raise WireError("wire document must be a JSON object")
    kind = data.get("kind")
    # Deferred imports: this module is a leaf the value types import.
    if kind == "LaunchSpec":
        from repro.host.launch import LaunchSpec

        return LaunchSpec.from_wire(data)
    if kind == "FaultPlan":
        from repro.faults.plan import FaultPlan

        return FaultPlan.from_wire(data)
    if kind == "FaultReport":
        from repro.faults.report import FaultReport

        return FaultReport.from_wire(data)
    if kind == "InstanceOutcome":
        from repro.host.ensemble_loader import InstanceOutcome

        return InstanceOutcome.from_wire(data)
    if kind == "BatchRecord":
        from repro.sched.jobs import BatchRecord

        return BatchRecord.from_wire(data)
    if kind == "JobResult":
        from repro.sched.jobs import JobResult

        return JobResult.from_wire(data)
    if kind == "JobTicket":
        from repro.sched.jobs import JobTicket

        return JobTicket.from_wire(data)
    if kind == "Submission":
        from repro.serve.protocol import Submission

        return Submission.from_wire(data)
    raise WireError(f"unknown wire kind {kind!r}")


__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ERROR_CODES",
    "E_SCHEMA",
    "E_VERSION",
    "E_BAD_REQUEST",
    "E_UNKNOWN_OP",
    "E_UNKNOWN_APP",
    "E_UNKNOWN_JOB",
    "E_ADMISSION",
    "E_DRAINING",
    "E_JOB_FAILED",
    "E_INTERNAL",
    "WireError",
    "envelope",
    "check_envelope",
    "get_field",
    "string_list",
    "canonical_json",
    "spec_hash",
    "from_wire_any",
]
