"""Canonical pass pipelines.

``compile_for_device``
    Run on the module produced by ``Program.compile()``: declare-target
    marking, ``main`` -> ``__user_main`` renaming, RPC lowering, verify.
    This is the moral equivalent of "clang -include wrapper.h ... -flto"
    in the paper's Figure 2.

``finalize_executable``
    Run after a loader has linked its kernel into the module: mandatory full
    inlining, then the optimization sweep (constant folding, DCE, CFG
    simplification) iterated to a small fixpoint, then verification.  The
    result is a call-free module ready for the SIMT machine.

Both entry points accept ``analyze=True`` to additionally run the
:mod:`repro.analysis` safety checkers after verification; the findings are
stored in ``module.metadata["diagnostics"]`` and error-severity findings
abort compilation with a :class:`~repro.errors.PassError`.
"""

from __future__ import annotations

import hashlib

from repro.errors import PassError
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.passes.alias_opt import alias_dce_pass
from repro.passes.barrier_elim import redundant_barrier_elim_pass
from repro.passes.cfg_simplify import cfg_simplify_pass
from repro.passes.constfold import constfold_pass
from repro.passes.dce import dce_pass
from repro.passes.declare_target import declare_target_pass
from repro.passes.inliner import inline_all_pass
from repro.passes.licm import licm_pass
from repro.passes.pass_manager import PassManager
from repro.passes.rename_main import rename_main_pass
from repro.passes.rpc_lowering import rpc_lowering_pass

#: Bump on any semantic change to a pass that is not reflected in the
#: pass *names* below (a fixed bug, a sharpened analysis...).  The
#: compile cache folds this into every key, so stale executables from an
#: older pipeline can never be served after an upgrade.
PIPELINE_VERSION = 1

#: Pass names of :func:`compile_for_device`, in run order.
DEVICE_PASS_NAMES: tuple[str, ...] = (
    "declare-target",
    "rename-main",
    "rpc-lowering",
)


def finalize_pass_names(opt_level: int) -> tuple[str, ...]:
    """Pass names :func:`finalize_executable` runs at ``opt_level``, in
    order.  This is the single source of truth: ``finalize_executable``
    builds its :class:`PassManager` from this list, and
    :func:`pipeline_fingerprint` hashes it, so the cached-executable key
    can never drift from the pipeline that actually runs."""
    if opt_level not in (0, 1, 2):
        raise PassError(
            f"unsupported opt_level {opt_level!r} (expected 0, 1 or 2)"
        )
    names = ["rpc-lowering", "inline-all"]
    if opt_level >= 1:
        for round_ in range(2):
            names.append(f"constfold.{round_}")
            names.append(f"dce.{round_}")
            if round_ == 0:
                names.append("licm")
            names.append(f"cfg-simplify.{round_}")
    if opt_level >= 2:
        names += [
            "barrier-elim",
            "alias-dce",
            "licm.ro-loads",
            "dce.2",
            "cfg-simplify.2",
        ]
    return tuple(names)


def pipeline_fingerprint(opt_level: int) -> str:
    """Content fingerprint of the full pass pipeline at ``opt_level``.

    Part of every :class:`~repro.compilecache.CacheKey`: two processes
    agree on a cached executable only if they would have compiled it
    through the same pass sequence at the same :data:`PIPELINE_VERSION`
    — and, because executables carry their safety certificates, the
    same :data:`~repro.analysis.safety.ANALYZER_VERSION` (bumping the
    analyzer makes every stale certificate structurally unreachable).
    """
    from repro.analysis.safety import ANALYZER_VERSION

    text = "|".join(
        (
            f"v{PIPELINE_VERSION}",
            f"safety{ANALYZER_VERSION}",
            ",".join(DEVICE_PASS_NAMES),
            ",".join(finalize_pass_names(opt_level)),
        )
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f"pp{PIPELINE_VERSION}:{digest[:16]}"


def _run_analysis(module: Module, stage: str) -> None:
    """Opt-in ``analyze`` step: run the safety checkers, stash the findings
    in ``module.metadata["diagnostics"]``, and abort on errors."""
    from repro.analysis import Severity, analyze_module

    diags = analyze_module(module)
    module.metadata["diagnostics"] = diags
    errs = [d for d in diags if d.severity >= Severity.ERROR]
    if errs:
        listing = "\n".join(d.format() for d in errs)
        raise PassError(
            f"analysis found {len(errs)} error(s) after {stage}:\n{listing}"
        )


def _run_pipeline(pm: PassManager, module: Module, stage: str, tracer, metrics) -> Module:
    """Run a built pipeline with per-pass spans and pipeline counters."""
    if metrics is not None:
        metrics.counter("pipeline.runs", stage=stage).inc()
        metrics.counter("pipeline.passes", stage=stage).inc(len(pm.passes))
    if tracer is not None and tracer.enabled:
        with tracer.span(stage, track="compiler", cat="pipeline"):
            return pm.run(module, tracer=tracer)
    return pm.run(module)


def compile_for_device(
    module: Module,
    *,
    require_main: bool = True,
    verify: bool = True,
    analyze: bool = False,
    tracer=None,
    metrics=None,
) -> Module:
    """Apply the direct-GPU-compilation front half to a program module.

    ``tracer``/``metrics`` are optional :mod:`repro.obs` sinks: with an
    enabled tracer every pass becomes a span on the ``compiler`` track,
    and pipeline run/pass counts land in the registry.
    """
    pm = PassManager()
    pm.add(declare_target_pass, "declare-target")
    pm.add(lambda m: rename_main_pass(m, require_main=require_main), "rename-main")
    pm.add(rpc_lowering_pass, "rpc-lowering")
    module = _run_pipeline(pm, module, "compile_for_device", tracer, metrics)
    if verify:
        verify_module(module)
    if analyze:
        _run_analysis(module, "compile_for_device")
    return module


def finalize_executable(
    module: Module,
    *,
    verify: bool = True,
    analyze: bool = False,
    tracer=None,
    metrics=None,
    opt_level: int | None = None,
) -> Module:
    """Inline + optimize a linked module into its executable form.

    ``opt_level`` selects the optimization stage:

    * ``0`` — inline only;
    * ``1`` — the classic intraprocedural sweep (constfold/DCE/LICM/CFG
      simplification iterated twice) — the default (``None``);
    * ``2`` — everything in ``1`` plus the interprocedural stage: an
      :class:`~repro.analysis.manager.AnalysisManager` (kept honest by the
      pass manager's fingerprint invalidation) feeds points-to facts into
      :mod:`~repro.passes.barrier_elim`, alias-sharpened dead-store
      elimination, and read-only-global load hoisting, followed by one
      more cleanup round.

    ``tracer``/``metrics`` behave as in :func:`compile_for_device`.
    """
    if opt_level is None:
        opt_level = 1
    if opt_level not in (0, 1, 2):
        raise PassError(f"unsupported opt_level {opt_level!r} (expected 0, 1 or 2)")
    am = None
    if opt_level >= 2:
        from repro.analysis.manager import AnalysisManager

        # The analysis manager caches one points-to solution across the
        # stage; the pass manager re-fingerprints after every pass and
        # recomputes it only when a pass actually mutated a function.
        am = AnalysisManager(module)

    def _resolve(name: str):
        if name == "rpc-lowering":  # idempotent; covers loader code
            return rpc_lowering_pass
        if name == "inline-all":
            return inline_all_pass
        if name == "licm.ro-loads":
            return lambda m: licm_pass(m, am.get("pointsto"))
        if name == "barrier-elim":
            return lambda m: redundant_barrier_elim_pass(
                m, am.get("pointsto"), metrics
            )
        if name == "alias-dce":
            return lambda m: alias_dce_pass(m, am.get("pointsto"), metrics)
        if name == "licm":
            return licm_pass
        base = name.split(".", 1)[0]
        if base == "constfold":
            return constfold_pass
        if base == "dce":
            return dce_pass
        if base == "cfg-simplify":
            return cfg_simplify_pass
        raise PassError(f"finalize_executable: unknown pass name {name!r}")

    # Built from the *name list* so pipeline_fingerprint() — and with it
    # every compile-cache key — is honest by construction.
    pm = PassManager(am=am)
    for name in finalize_pass_names(opt_level):
        pm.add(_resolve(name), name)
    module = _run_pipeline(pm, module, "finalize_executable", tracer, metrics)
    module.metadata["opt_level"] = opt_level
    if am is not None and metrics is not None:
        metrics.counter("analysis.cache.hits").inc(am.hits)
        metrics.counter("analysis.cache.misses").inc(am.misses)
    if verify:
        verify_module(module)
    if analyze:
        _run_analysis(module, "finalize_executable")
    return module
