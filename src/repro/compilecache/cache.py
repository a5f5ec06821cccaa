"""Content-addressed executable cache with memory and disk tiers.

The key is everything that determines the finalized executable:

* **source hash** — :func:`~repro.compilecache.build.source_fingerprint`
  of the pre-compilation module (printed IR + global initializer bytes),
  or a caller-supplied identity (the GP harness keys by genome);
* **pipeline config** — the loader options that change codegen
  (``team_local_globals``, ``shared_mem_budget``), canonicalized through
  :func:`repro.wire.canonical_json`;
* **opt level** and **backend**;
* the **pass-pipeline fingerprint**
  (:func:`repro.passes.pipeline.pipeline_fingerprint`) — versioned
  invalidation: bump :data:`~repro.passes.pipeline.PIPELINE_VERSION` or
  change the pass list and every old entry silently misses.

``backend`` defaults to ``"*"`` because a finalized module is
backend-portable (the compiled backend lowers lazily per device image);
callers that bake backend-specific artifacts may key per backend.

Lookups hit the in-memory LRU first, then the disk tier (pickled entry
guarded by a magic header and a sha256 checksum — a corrupted or
truncated file is counted, unlinked and recompiled, never served).
Concurrent builds of the same key are deduplicated through an in-flight
future: one thread compiles, the rest wait.  All traffic is counted both
internally (:meth:`ExecutableCache.stats`) and — when a metrics registry
is attached — as ``cache.*`` counters in :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from repro import wire
from repro.errors import ReproError
from repro.frontend.dsl import Program
from repro.ir.module import Module
from repro.passes.pipeline import pipeline_fingerprint

from repro.compilecache.build import (
    DIGEST_META,
    build_executable,
    is_executable,
    source_fingerprint,
)

#: Magic first line of a disk-tier entry; bump with the entry format.
DISK_MAGIC = b"rexe1\n"

#: Default capacity of the in-memory LRU tier.
DEFAULT_MEMORY_ENTRIES = 512


class CacheError(ReproError):
    """A compile-cache request that cannot be satisfied."""


@dataclass(frozen=True)
class CacheKey:
    """Everything that determines a finalized executable, hashed into a
    stable content address via :func:`repro.wire.spec_hash`."""

    source_hash: str
    pipeline: str  #: canonical_json of the codegen-relevant loader opts
    opt_level: int
    backend: str
    fingerprint: str  #: pass-pipeline fingerprint (versioned invalidation)

    def to_wire(self) -> dict:
        return {
            "kind": "CacheKey",
            "source_hash": self.source_hash,
            "pipeline": self.pipeline,
            "opt_level": self.opt_level,
            "backend": self.backend,
            "fingerprint": self.fingerprint,
        }

    def digest(self) -> str:
        return wire.spec_hash(self.to_wire())


class _AnalysisBox:
    """Shared, lazily filled analysis state of one cache entry.

    Footprint + interprocedural facts cost more than the compile itself
    for small programs, and many workloads (the GP campaign, direct
    loaders with explicit heaps) never consult them — so they are
    derived on first demand, once, and memoized for every holder of the
    entry (all tier-tagged copies share one box)."""

    __slots__ = ("footprint", "facts", "safety", "done", "lock")

    def __init__(self, footprint=None, facts=None, safety=None, done=False):
        self.footprint = footprint
        self.facts = facts if facts is not None else {}
        #: per-kernel :class:`~repro.analysis.safety.SafetyCertificate`
        #: map, filled independently of footprint/facts (``None`` until
        #: first demand; an invalid on-disk copy loads back as ``None``).
        self.safety = safety
        self.done = done
        self.lock = threading.Lock()


@dataclass
class CachedExecutable:
    """One cache entry: the finalized module plus everything expensive
    that can be learned from it (footprint / interprocedural facts,
    computed lazily and shared — see :class:`_AnalysisBox`)."""

    key: CacheKey
    digest: str
    module: Module
    box: _AnalysisBox = field(repr=False, default_factory=_AnalysisBox)
    tier: str = "build"  #: where *this* lookup was satisfied

    def _ensure_analysis(self) -> _AnalysisBox:
        box = self.box
        if not box.done:
            with box.lock:
                if not box.done:
                    box.footprint, box.facts = _analyze(self.module)
                    box.done = True
        return box

    @property
    def footprint(self):
        """The module's :class:`~repro.analysis.footprint.
        StaticFootprint` (None when unbounded/underivable); computed on
        first access, then free — this is what pre-seeds the scheduler's
        static batch packing without recompiling."""
        return self._ensure_analysis().footprint

    @property
    def facts(self) -> dict:
        """Interprocedural facts (callgraph, value ranges) of the
        finalized module, lazily derived alongside the footprint."""
        return self._ensure_analysis().facts

    @property
    def safety(self) -> dict:
        """Per-kernel :class:`~repro.analysis.safety.SafetyCertificate`
        map of the finalized module.  Normally this is just the
        certificates stamped at build time; a stale or corrupted copy
        (analyzer version bump, tampered disk entry) is rebuilt here and
        never served as-is."""
        box = self.box
        if box.safety is None:
            with box.lock:
                if box.safety is None:
                    from repro.analysis.safety import certificates_for

                    box.safety = certificates_for(self.module)
        return box.safety


def _resolve_source(program):
    """Normalize a cacheable program into ``(source_hash, builder)``.

    ``program`` may be a :class:`Program`, a pre-compilation
    :class:`Module`, or a zero-argument callable returning either (the
    lazy form — only invoked on a miss, which is what lets a warm cache
    skip the frontend entirely).  Program hashes are memoized on the
    object, so repeated lookups of the same Program also skip the
    frontend after the first.
    """
    if isinstance(program, Program):
        source_hash = getattr(program, "_compilecache_source_hash", None)
        if source_hash is None:
            module = program.compile()
            source_hash = source_fingerprint(module)
            program._compilecache_source_hash = source_hash
            return source_hash, lambda: module
        return source_hash, program.compile
    if isinstance(program, Module):
        if is_executable(program):
            raise CacheError(
                "get_or_build takes a pre-compilation program; "
                f"module {program.name!r} is already a finalized executable"
            )
        return source_fingerprint(program), lambda: program
    raise CacheError(
        f"cannot cache object of type {type(program).__name__}; expected "
        "a Program, a Module, or a callable with an explicit source_hash"
    )


class ExecutableCache:
    """Two-tier compile-once cache; safe for concurrent use."""

    def __init__(
        self,
        cache_dir: str | None = None,
        *,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        metrics=None,
    ):
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.max_memory_entries = max(1, int(max_memory_entries))
        self._metrics = metrics
        self._lock = threading.RLock()
        self._memory: OrderedDict[str, CachedExecutable] = OrderedDict()
        self._inflight: dict[str, Future] = {}
        self._counts = {
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "dedup": 0,
            "evictions": 0,
            "corrupt": 0,
            "stores_memory": 0,
            "stores_disk": 0,
        }
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)

    # -- metrics ------------------------------------------------------------
    def attach_metrics(self, metrics) -> None:
        """Mirror cache traffic into a :mod:`repro.obs` registry (the
        internal tallies in :meth:`stats` count regardless)."""
        self._metrics = metrics

    def _count(self, name: str, counter: str, **tags) -> None:
        with self._lock:
            self._counts[name] += 1
        if self._metrics is not None:
            self._metrics.counter(counter, **tags).inc()

    # -- key scheme ---------------------------------------------------------
    def key_for(
        self,
        source_hash: str,
        *,
        team_local_globals: bool = False,
        shared_mem_budget: int | None = None,
        opt_level: int | None = None,
        backend: str = "*",
    ) -> CacheKey:
        """Build the full cache key for one compile request
        (``opt_level=None`` is the default level 1)."""
        resolved = opt_level if opt_level is not None else 1
        pipeline = wire.canonical_json(
            {
                "team_local_globals": bool(team_local_globals),
                "shared_mem_budget": shared_mem_budget,
            }
        )
        return CacheKey(
            source_hash=source_hash,
            pipeline=pipeline,
            opt_level=resolved,
            backend=backend,
            fingerprint=pipeline_fingerprint(resolved),
        )

    # -- lookup / build -----------------------------------------------------
    def get_or_build(
        self,
        program,
        *,
        team_local_globals: bool = False,
        shared_mem_budget: int | None = None,
        opt_level: int | None = None,
        backend: str = "*",
        source_hash: str | None = None,
        tracer=None,
        metrics=None,
    ) -> CachedExecutable:
        """Return the finalized executable for ``program``, compiling at
        most once per key across all threads of this process (and at
        most once per disk tier across processes).

        ``source_hash`` overrides content hashing with a caller-supplied
        identity; it is *required* when ``program`` is a lazy callable.
        ``tracer``/``metrics`` flow into the compile chain on a miss.
        """
        if callable(program) and not isinstance(program, (Program, Module)):
            if source_hash is None:
                raise CacheError(
                    "a callable program requires an explicit source_hash "
                    "(the cache cannot hash what it has not built)"
                )
            builder = program
        elif source_hash is not None:
            _, builder = _resolve_source_for_override(program)
        else:
            source_hash, builder = _resolve_source(program)

        key = self.key_for(
            source_hash,
            team_local_globals=team_local_globals,
            shared_mem_budget=shared_mem_budget,
            opt_level=opt_level,
            backend=backend,
        )
        digest = key.digest()

        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
                self._count("hits_memory", "cache.hits", tier="memory")
                return replace(entry, tier="memory")
            fut = self._inflight.get(digest)
            owner = fut is None
            if owner:
                fut = Future()
                self._inflight[digest] = fut

        if not owner:
            self._count("dedup", "cache.dedup")
            return replace(fut.result(), tier="dedup")

        try:
            entry = self._load_disk(digest, key)
            if entry is None:
                entry = self._build(key, digest, builder, tracer, metrics)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(digest, None)
            fut.set_exception(exc)
            raise
        with self._lock:
            self._inflight.pop(digest, None)
        fut.set_result(entry)
        return entry

    def peek(self, digest: str) -> CachedExecutable | None:
        """Memory-tier lookup by digest that counts nothing — used by
        loaders given an already-finalized module to recover the stored
        footprint without inflating hit metrics."""
        with self._lock:
            entry = self._memory.get(digest)
            return None if entry is None else replace(entry, tier="memory")

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier, if any, stays)."""
        with self._lock:
            self._memory.clear()

    def stats(self) -> dict:
        """Counter snapshot plus tier occupancy, for the serve metrics
        op and the check CLI."""
        with self._lock:
            counts = dict(self._counts)
            counts["entries_memory"] = len(self._memory)
        hits = counts["hits_memory"] + counts["hits_disk"] + counts["dedup"]
        lookups = hits + counts["misses"]
        counts["hit_rate"] = (hits / lookups) if lookups else None
        counts["cache_dir"] = self.cache_dir
        return counts

    # -- build path ---------------------------------------------------------
    def _build(self, key, digest, builder, tracer, metrics) -> CachedExecutable:
        self._count("misses", "cache.misses")
        module = builder()
        if isinstance(module, Program):
            module = module.compile()
        if not isinstance(module, Module):
            raise CacheError(
                f"program builder returned {type(module).__name__}, "
                "expected a Program or Module"
            )
        config = _pipeline_config(key)
        module = build_executable(
            module,
            team_local_globals=config["team_local_globals"],
            shared_mem_budget=config["shared_mem_budget"],
            opt_level=key.opt_level,
            tracer=tracer,
            metrics=metrics,
        )
        module.metadata[DIGEST_META] = digest
        entry = CachedExecutable(
            key=key, digest=digest, module=module, tier="build"
        )
        self._store_memory(digest, entry)
        self._store_disk(digest, entry)
        return entry

    # -- memory tier --------------------------------------------------------
    def _store_memory(self, digest, entry) -> None:
        with self._lock:
            self._memory[digest] = entry
            self._memory.move_to_end(digest)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self._count("evictions", "cache.evictions", tier="memory")
        self._count("stores_memory", "cache.stores", tier="memory")

    # -- disk tier ----------------------------------------------------------
    def _path(self, digest: str) -> str:
        return os.path.join(self.cache_dir, digest.split(":", 1)[-1] + ".exe")

    def _store_disk(self, digest, entry) -> None:
        if not self.cache_dir:
            return
        try:
            box = entry.box  # persist whatever analysis exists, lazily
            payload = pickle.dumps(
                {
                    "key": entry.key,
                    "digest": digest,
                    "module": entry.module,
                    "analyzed": box.done,
                    "footprint": box.footprint,
                    "facts": box.facts,
                    "safety": box.safety,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            blob = (
                DISK_MAGIC
                + hashlib.sha256(payload).hexdigest().encode("ascii")
                + b"\n"
                + payload
            )
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, prefix=".rexe-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, self._path(digest))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, AttributeError, TypeError):
            return  # disk tier is best-effort; the memory entry stands
        self._count("stores_disk", "cache.stores", tier="disk")

    def _load_disk(self, digest, key) -> CachedExecutable | None:
        if not self.cache_dir:
            return None
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            if not blob.startswith(DISK_MAGIC):
                raise ValueError("bad magic")
            rest = blob[len(DISK_MAGIC):]
            checksum, sep, payload = rest.partition(b"\n")
            if not sep:
                raise ValueError("truncated header")
            if hashlib.sha256(payload).hexdigest().encode("ascii") != checksum:
                raise ValueError("checksum mismatch")
            data = pickle.loads(payload)
            if data.get("digest") != digest:
                raise ValueError("entry digest mismatch")
            module = data["module"]
            if not is_executable(module):
                raise ValueError("entry module is not a finalized executable")
        except BaseException:
            # Corrupted, truncated, or unreadable: evict and recompile.
            # Served stale bytes are the one unforgivable cache failure.
            self._count("corrupt", "cache.corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        entry = CachedExecutable(
            key=key,
            digest=digest,
            module=module,
            box=_AnalysisBox(
                footprint=data.get("footprint"),
                facts=data.get("facts"),
                safety=_valid_safety(data.get("safety")),
                done=bool(data.get("analyzed")),
            ),
            tier="disk",
        )
        self._store_memory(digest, entry)
        self._count("hits_disk", "cache.hits", tier="disk")
        return entry


def _valid_safety(certs):
    """Admit a deserialized certificate map only when it is exactly what
    the current analyzer would produce; anything else loads as ``None``
    and is rebuilt on first demand (never served)."""
    from repro.analysis.safety import ANALYZER_VERSION, SafetyCertificate

    if not isinstance(certs, dict) or not certs:
        return None
    if all(
        isinstance(c, SafetyCertificate)
        and c.analyzer_version == ANALYZER_VERSION
        for c in certs.values()
    ):
        return certs
    return None


def _pipeline_config(key: CacheKey) -> dict:
    import json

    return json.loads(key.pipeline)


def _resolve_source_for_override(program):
    """A Program/Module paired with an explicit source_hash: reuse the
    normal builder but trust the caller's identity."""
    if isinstance(program, Program):
        return None, program.compile
    if isinstance(program, Module):
        if is_executable(program):
            raise CacheError(
                "get_or_build takes a pre-compilation program; "
                f"module {program.name!r} is already a finalized executable"
            )
        return None, lambda: program
    raise CacheError(
        f"cannot cache object of type {type(program).__name__}"
    )


def _analyze(module: Module):
    """Compute the footprint + interprocedural facts stored alongside an
    executable, so schedulers can pack batches without re-deriving them."""
    footprint, facts = None, {}
    try:
        from repro.analysis.footprint import compute_footprint
        from repro.analysis.manager import AnalysisManager

        am = AnalysisManager(module)
        callgraph = am.get("callgraph")
        ranges = am.get("ranges")
        facts = {"callgraph": callgraph, "ranges": ranges}
        footprint = compute_footprint(
            module, callgraph=callgraph, ranges=ranges
        )
    except ReproError:
        pass
    return footprint, facts


__all__ = [
    "CacheError",
    "CacheKey",
    "CachedExecutable",
    "ExecutableCache",
    "DISK_MAGIC",
    "DEFAULT_MEMORY_ENTRIES",
]
