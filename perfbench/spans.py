"""In-memory span tracer and the layer hooks of the traced benchmark run.

The traced run replaces the public entry points of each ``repro`` layer
with thin wrappers that record one span per call: hook name, start, end,
parent span and request id.  Spans live in per-thread typed arrays (a
campaign records about a million of them) and are written out once, when
the run ends.  A layer's self time is the time its spans cover minus the
time their child spans cover, so nested layers are never counted twice.

Nothing is installed outside :meth:`Hooks.install`; :meth:`Hooks.restore`
puts every original function object back and :meth:`Hooks.unrestored`
proves it did.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

CLOCK = time.perf_counter

#: layer -> hook targets ("module:Qualified.name").  A class method is
#: patched on the class; a module function is patched in its module and in
#: every ``repro`` module that imported it by name.
LAYER_HOOKS: dict[str, tuple[str, ...]] = {
    "frontend": ("repro.frontend.dsl:Program.compile",),
    "passes": (
        "repro.passes.pipeline:compile_for_device",
        "repro.passes.pipeline:finalize_executable",
    ),
    "analysis": (
        "repro.analysis.safety:stamp_certificates",
        "repro.analysis.safety:certificates_for",
        "repro.analysis.races:check_races",
        "repro.analysis.footprint:compute_footprint",
    ),
    "cache": ("repro.compilecache.cache:ExecutableCache.get_or_build",),
    "lower": (
        "repro.runtime.machine:lower_kernel",
        "repro.runtime.compiled:compile_kernel",
    ),
    "launch": ("repro.gpu.device:GPUDevice.launch",),
    "exec": (
        "repro.runtime.interpreter:BlockExecutor.run",
        "repro.runtime.compiled:CompiledBlockExecutor.run",
    ),
    "trace": tuple(
        f"repro.runtime.trace:TraceCollector.{name}"
        for name in (
            "begin_uniform",
            "note_uniform",
            "note_uniform_block",
            "end_uniform",
            "on_instr",
            "on_mem",
            "on_parallel_enter",
            "on_parallel_exit",
            "finalize",
        )
    ),
    "timing": ("repro.gpu.timing:TimingModel.kernel_time",),
    "loader": (
        "repro.host.ensemble_loader:EnsembleLoader.run_ensemble",
        "repro.host.loader:Loader.run",
    ),
    "rpc": ("repro.host.rpc_host:RPCHost.handle",),
    "sched": ("repro.sched.scheduler:Scheduler.step",),
    # "wire" is filled in by Hooks.install: every to_wire/from_wire of a
    # repro class, found by scanning the loaded modules.
    "wire": (),
    # "serve" spans are client-side job intervals added by the served
    # workload (Tracer.add_span); there is nothing to patch.
    "serve": (),
}

LAYERS = tuple(LAYER_HOOKS)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Modules imported before patching so that every from-import of a hooked
#: function already exists and is patched too.
PRELOAD = (
    "repro.compilecache",
    "repro.host.ensemble_loader",
    "repro.sched",
    "repro.serve.server",
    "repro.serve.client",
    "repro.serve.harness",
)


class _ThreadLog:
    """One thread's spans and its open-span stack."""

    def __init__(self):
        self.hook = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("i")
        #: indices of the open spans, innermost last
        self.stack: list[int] = []
        self.last_closed = 0
        self.rid_now = 0


class Tracer:
    """Span recorder shared by every hook of one traced run."""

    def __init__(self):
        self.hook_names: list[str] = []
        self.hook_layer = array("i")
        #: per-layer counters bumped by exit callbacks (steps, hits, ...)
        self.counts: dict[str, float] = {}
        self.rid_names = ["-"]
        self._rid_ids = {"-": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        #: client-side spans added after the fact: (hook, start, end, rid)
        self.extra: list[tuple[int, float, float, int]] = []
        self.window = [CLOCK(), None]

    # -- registration -------------------------------------------------
    def hook_id(self, name: str, layer: str) -> int:
        self.hook_names.append(name)
        self.hook_layer.append(_LAYER_ID[layer])
        return len(self.hook_names) - 1

    def rid_id(self, rid) -> int:
        key = str(rid)
        got = self._rid_ids.get(key)
        if got is None:
            with self._lock:
                got = self._rid_ids.setdefault(key, len(self.rid_names))
                if got == len(self.rid_names):
                    self.rid_names.append(key)
        return got

    def log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def bump(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def request(self, rid):
        """Tag spans this thread opens inside the block with ``rid``."""
        log = self.log()
        prev, log.rid_now = log.rid_now, self.rid_id(rid)
        try:
            yield
        finally:
            log.rid_now = prev

    def tag_last_call(self, rid) -> None:
        """Give ``rid`` to the span whose exit callback is running, to its
        descendants, and to its open ancestors that have none.  A server
        thread learns which job a scheduler step ran only from the result
        of the launch inside it."""
        log = self.log()
        rid_id = self.rid_id(rid)
        for j in range(log.last_closed, len(log.rid)):
            log.rid[j] = rid_id
        for idx in log.stack:
            if log.rid[idx] == 0:
                log.rid[idx] = rid_id

    def add_span(self, name: str, start: float, end: float, rid) -> None:
        """Record a span measured outside any hook (client-side jobs)."""
        hook = self._named_hook(name, "serve")
        self.extra.append((hook, start, end, self.rid_id(rid)))

    def _named_hook(self, name: str, layer: str) -> int:
        try:
            return self.hook_names.index(name)
        except ValueError:
            return self.hook_id(name, layer)

    # -- the wrapper --------------------------------------------------
    def wrap(self, fn, hook: int, on_exit=None):
        local = self._local
        new_log = self.log

        def traced(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            stack = log.stack
            idx = len(log.start)
            log.hook.append(hook)
            log.parent.append(stack[-1] if stack else -1)
            log.rid.append(log.rid_now)
            log.end.append(0.0)
            stack.append(idx)
            log.start.append(CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = CLOCK()
                stack.pop()
            if on_exit is not None:
                log.last_closed = idx
                on_exit(args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------
    def close(self) -> None:
        self.window[1] = CLOCK()

    def arrays(self) -> dict[str, np.ndarray]:
        """Every span as flat arrays (threads concatenated, parents
        re-indexed globally; extra spans have no parent)."""
        hooks, starts, ends, parents, rids, threads = [], [], [], [], [], []
        offset = 0
        for t, log in enumerate(self._logs):
            n = len(log.start)
            par = np.frombuffer(log.parent, dtype=np.int32).astype(np.int64)
            hooks.append(np.frombuffer(log.hook, dtype=np.int32))
            starts.append(np.frombuffer(log.start, dtype=np.float64))
            ends.append(np.frombuffer(log.end, dtype=np.float64))
            parents.append(np.where(par >= 0, par + offset, -1))
            rids.append(np.frombuffer(log.rid, dtype=np.int32))
            threads.append(np.full(n, t, dtype=np.int32))
            offset += n
        if self.extra:
            ex = np.array(self.extra, dtype=np.float64)
            hooks.append(ex[:, 0].astype(np.int32))
            starts.append(ex[:, 1])
            ends.append(ex[:, 2])
            parents.append(np.full(len(ex), -1, dtype=np.int64))
            rids.append(ex[:, 3].astype(np.int32))
            threads.append(np.full(len(ex), -1, dtype=np.int32))
        if not starts:
            empty = np.zeros(0)
            return dict(hook=empty, start=empty, end=empty, parent=empty,
                        rid=empty, thread=empty)
        return dict(
            hook=np.concatenate(hooks),
            start=np.concatenate(starts),
            end=np.concatenate(ends),
            parent=np.concatenate(parents),
            rid=np.concatenate(rids),
            thread=np.concatenate(threads),
        )

    def write(self, path: str) -> None:
        """Write every span plus the name tables as one ``.npz``."""
        data = self.arrays()
        np.savez(
            path,
            hook_names=np.array(self.hook_names, dtype=str),
            hook_layer=np.array(self.hook_layer, dtype=np.int32),
            layers=np.array(LAYERS, dtype=str),
            rid_names=np.array(self.rid_names, dtype=str),
            window=np.array(self.window, dtype=np.float64),
            **data,
        )


# ---------------------------------------------------------------------------
# analysis of the recorded spans
# ---------------------------------------------------------------------------
class SpanTable:
    """The spans of one traced run as flat arrays, with the queries the
    per-layer metrics need."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        arr = tracer.arrays()
        self.hook = arr["hook"].astype(np.int64)
        # a span still open when the run ended counts as empty
        self.start, self.end = arr["start"], np.maximum(arr["end"], arr["start"])
        self.parent = arr["parent"].astype(np.int64)
        self.rid, self.thread = arr["rid"], arr["thread"]
        self.layer = np.asarray(tracer.hook_layer, dtype=np.int64)[self.hook]
        self.counts = np.bincount(self.hook, minlength=len(tracer.hook_names))
        dur = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(
            self.parent[nested], weights=dur[nested], minlength=dur.size
        )
        #: each span's own time: its duration minus its children's
        self.self_time = dur - covered

    def __len__(self) -> int:
        return int(self.start.size)

    def calls(self, *suffixes: str) -> int:
        """Calls of every hook whose name ends with one of ``suffixes``."""
        return int(sum(
            c for n, c in zip(self.tracer.hook_names, self.counts)
            if n.endswith(suffixes)
        ))

    def in_layer(self, name: str) -> np.ndarray:
        return self.layer == _LAYER_ID[name]

    def self_by_layer(self, mask=None) -> dict[str, float]:
        """Self time per layer over the hooked spans selected by ``mask``
        (all by default).  Client-side job intervals overlap and have no
        children in their thread, so "serve" is :meth:`serve_self_s`."""
        hooked = self.thread >= 0
        if mask is not None:
            hooked &= mask
        sums = np.bincount(
            self.layer[hooked], weights=self.self_time[hooked], minlength=len(LAYERS)
        )
        out = dict(zip(LAYERS, sums.tolist()))
        out["serve"] = self.serve_self_s() if mask is None else 0.0
        return out

    def with_rid(self, predicate) -> np.ndarray:
        """Mask of spans whose request id satisfies ``predicate``."""
        ok = np.array([predicate(n) for n in self.tracer.rid_names], dtype=bool)
        return ok[self.rid]

    def unattributed_frac(self) -> float:
        """Share of the traced window that no span covers."""
        lo, hi = self.tracer.window
        roots = self.parent < 0
        covered = union_length(self.start[roots], self.end[roots], lo, hi)
        return 1.0 - covered / (hi - lo)

    def outermost(self, name: str) -> int:
        """Spans of layer ``name`` not nested in another span of it."""
        mine = self.in_layer(name)
        parent_layer = np.where(
            self.parent >= 0, self.layer[np.maximum(self.parent, 0)], -1
        )
        return int(np.sum(mine & (parent_layer != _LAYER_ID[name])))

    def serve_self_s(self) -> float:
        """Time some client-side job was outstanding while no span of any
        other layer (in any thread) was running."""
        jobs = self.hook == (
            self.tracer.hook_names.index("serve.job")
            if "serve.job" in self.tracer.hook_names else -1
        )
        others = ~self.in_layer("serve")
        return uncovered_length(
            (self.start[jobs], self.end[jobs]),
            (self.start[others], self.end[others]),
        )


# ---------------------------------------------------------------------------
# interval arithmetic over spans
# ---------------------------------------------------------------------------
def union_length(starts, ends, lo: float, hi: float) -> float:
    """Length of the union of ``[start, end)`` intervals clipped to
    ``[lo, hi)``."""
    s = np.clip(np.asarray(starts, dtype=np.float64), lo, hi)
    e = np.clip(np.asarray(ends, dtype=np.float64), lo, hi)
    if s.size == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    prev_reach = np.concatenate(([lo], reach[:-1]))
    return float(np.sum(np.maximum(0.0, reach - np.maximum(s, prev_reach))))


def uncovered_length(outer, inner) -> float:
    """Length of ``union(outer)`` not covered by ``union(inner)``; both are
    ``(starts, ends)`` pairs."""
    (os_, oe), (is_, ie) = outer, inner
    if len(os_) == 0:
        return 0.0
    lo, hi = float(np.min(os_)), float(np.max(oe))
    both_s = np.concatenate([np.asarray(os_), np.asarray(is_)])
    both_e = np.concatenate([np.asarray(oe), np.asarray(ie)])
    return union_length(both_s, both_e, lo, hi) - union_length(is_, ie, lo, hi)


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------
def _resolve(target: str):
    """``module:Qual.name`` -> (owner object, attribute name, raw value)."""
    modname, qual = target.split(":")
    obj = importlib.import_module(modname)
    *path, name = qual.split(".")
    for part in path:
        obj = getattr(obj, part)
    if isinstance(obj, type):
        for klass in obj.__mro__:
            if name in klass.__dict__:
                return klass, name, klass.__dict__[name]
        raise AttributeError(f"{target}: no attribute {name!r}")
    return obj, name, getattr(obj, name)


def _wire_targets() -> list[str]:
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("repro") or mod is None:
            continue
        for attr, obj in sorted(vars(mod).items()):
            if not isinstance(obj, type) or obj.__module__ != modname:
                continue
            for name in ("to_wire", "from_wire"):
                if name in obj.__dict__:
                    out.append(f"{modname}:{attr}.{name}")
    return out


class Hooks:
    """Installs the layer wrappers on one :class:`Tracer` and undoes it."""

    def __init__(self, tracer: Tracer, on_exit: dict | None = None):
        self.tracer = tracer
        #: hook target -> callback(args, result) run after each call
        self.on_exit = dict(on_exit or {})
        #: (owner, attribute name, original raw value) per patched binding
        self.patched: list[tuple[object, str, object]] = []
        #: targets absent from this version of the code
        self.missing: list[str] = []

    def install(self) -> None:
        for mod in PRELOAD:
            importlib.import_module(mod)
        plan = [
            (layer, t) for layer, targets in LAYER_HOOKS.items() for t in targets
        ]
        plan += [("wire", t) for t in _wire_targets()]
        for layer, target in plan:
            try:
                owner, name, raw = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            hook = self.tracer.hook_id(target.split(":")[1], layer)
            self._patch(owner, name, raw, hook, self.on_exit.get(target))

    def _patch(self, owner, name, raw, hook, on_exit) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.tracer.wrap(raw.__func__, hook, on_exit))
        else:
            wrapped = self.tracer.wrap(raw, hook, on_exit)
        setattr(owner, name, wrapped)
        self.patched.append((owner, name, raw))
        if isinstance(owner, type):
            return
        # from-imports: the same function object bound in other modules
        for modname, mod in list(sys.modules.items()):
            if (
                mod is None
                or mod is owner
                or not modname.startswith("repro")
                or mod.__dict__.get(name) is not raw
            ):
                continue
            setattr(mod, name, wrapped)
            self.patched.append((mod, name, raw))

    def restore(self) -> None:
        for owner, name, raw in reversed(self.patched):
            setattr(owner, name, raw)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        bad = []
        for owner, name, raw in self.patched:
            current = (
                owner.__dict__.get(name) if isinstance(owner, type)
                else getattr(owner, name, None)
            )
            if current is not raw:
                bad.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return bad
