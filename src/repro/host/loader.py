"""Base loader: the "main wrapper" host entry point of the original direct
GPU compilation framework [26].

Responsibilities (§2.2 of the paper):

* compile + link the user program as device code (declare-target marking,
  ``main`` -> ``__user_main`` renaming, RPC lowering, kernel construction,
  LTO-style finalization),
* load the image onto the device and install the device heap,
* map the program arguments into device memory (``argc``/``argv`` with
  C-style NUL-terminated strings and a NULL-terminated pointer array),
* launch the wrapper kernel and collect the exit code and host-RPC output.

:class:`~repro.host.ensemble_loader.EnsembleLoader` builds on the same
machinery for multi-instance execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.safety import certificates_for
from repro.compilecache.build import (
    DIGEST_META,
    build_executable,
    is_executable,
)
from repro.config import DEFAULT_DEVICE, DEFAULT_SIM
from repro.errors import DeviceOutOfMemory, DeviceTrap, LoaderError
from repro.frontend.dsl import Program
from repro.gpu.device import DeviceImage, GPUDevice, LaunchResult
from repro.gpu.timing import KernelTiming
from repro.host.rpc_host import RPCHost
from repro.ir.module import Module
from repro.runtime.backend import DEFAULT_BACKEND
from repro.runtime.kernel import ENSEMBLE_KERNEL, SINGLE_KERNEL
from repro.runtime.libc import HEAP_CURSOR, HEAP_END


@dataclass
class RunResult:
    """Outcome of a single-instance run."""

    exit_code: int
    stdout: str
    cycles: float | None
    timing: KernelTiming | None
    launch: LaunchResult


@dataclass
class _ArgBlock:
    base: int
    argc_addr: int
    argv_addr: int
    ret_addr: int
    num_instances: int


class Loader:
    """Loads one application onto one simulated device."""

    def __init__(
        self,
        program: Program | Module,
        device: GPUDevice | None = None,
        *,
        heap_bytes: int = 32 * 1024 * 1024,
        stack_bytes: int = 2048,
        team_local_globals: bool = False,
        opt_level: int | None = None,
        allow_unsafe: bool = False,
        cache=None,
    ):
        self.device = device if device is not None else GPUDevice(DEFAULT_DEVICE, DEFAULT_SIM)
        self.heap_bytes = heap_bytes
        self.stack_bytes = stack_bytes
        self.app_name = program.name if isinstance(program, (Program, Module)) else "app"

        obs_kw = dict(tracer=self.device.tracer, metrics=self.device.metrics)
        self._static_footprint = None
        self._cache_entry = None
        if is_executable(program):
            # Already finalized (by the compile cache or a prior loader):
            # its compile options were baked in by the producer, so go
            # straight to image loading.  Recover the stored footprint
            # without counting a hit — the lookup already happened.
            module = program
            if cache is not None:
                digest = module.metadata.get(DIGEST_META)
                entry = cache.peek(digest) if digest else None
                if entry is not None:
                    self._cache_entry = entry
        elif cache is not None:
            entry = cache.get_or_build(
                program,
                team_local_globals=team_local_globals,
                shared_mem_budget=(
                    self.device.config.shared_mem_per_block
                    if team_local_globals
                    else None
                ),
                opt_level=opt_level,
                **obs_kw,
            )
            module = entry.module
            self._cache_entry = entry
        else:
            module = program.compile() if isinstance(program, Program) else program
            module = build_executable(
                module,
                team_local_globals=team_local_globals,
                shared_mem_budget=self.device.config.shared_mem_per_block,
                opt_level=opt_level,
                **obs_kw,
            )
        self.module = module
        self.allow_unsafe = allow_unsafe
        #: kernel name -> statically-disproven sites (the safety analyzer
        #: proved the site faults on every execution).  Computed once per
        #: loader from the stamped certificates; enforced at launch time.
        self.safety_disproven = {
            name: cert.disproven()
            for name, cert in certificates_for(module).items()
            if cert.disproven()
        }
        self.image: DeviceImage = self.device.load_image(module)
        self.heap_addr = self.device.alloc(heap_bytes)

    @property
    def static_footprint(self):
        """Lazily computed :class:`~repro.analysis.footprint.StaticFootprint`
        of the linked module's ``__user_main`` — the per-instance heap
        bound the scheduler's static packing consumes."""
        if self._static_footprint is None:
            if self._cache_entry is not None:
                # One lazy derivation per cache *entry*, shared by every
                # loader of the same executable — not one per loader.
                self._static_footprint = self._cache_entry.footprint
            if self._static_footprint is None:
                from repro.analysis.footprint import compute_footprint

                self._static_footprint = compute_footprint(self.module)
        return self._static_footprint

    # ------------------------------------------------------------------
    # plumbing shared with the ensemble loader
    # ------------------------------------------------------------------
    def _make_rpc_host(self) -> RPCHost:
        """An RPC endpoint wired to the device's observability sinks and
        fault hook."""
        return RPCHost(
            self.device.memory,
            tracer=self.device.tracer,
            metrics=self.device.metrics,
            faults=self.device.faults,
        )

    def _reset_for_run(self) -> None:
        """Fresh-process semantics: re-init globals and the device heap."""
        self.device.reset_image(self.image)
        if HEAP_CURSOR in self.image.symbols:  # absent when libc is unlinked
            mem = self.device.memory
            mem.write_i64(self.image.symbol(HEAP_CURSOR), self.heap_addr)
            mem.write_i64(
                self.image.symbol(HEAP_END), self.heap_addr + self.heap_bytes
            )

    def _marshal_instances(self, instances: list[list[str]]) -> _ArgBlock:
        """Place argc/argv for every instance into one device allocation.

        Layout: ``Argc[NI] | ArgvPtr[NI] | Ret[NI] | per-instance char*
        arrays (NULL-terminated) | string bytes``.
        """
        ni = len(instances)
        if ni == 0:
            raise LoaderError("no instances to marshal")
        header = 3 * ni * 8
        ptr_arrays_off = header
        ptr_arrays_len = sum((len(argv) + 1) * 8 for argv in instances)
        strings_off = ptr_arrays_off + ptr_arrays_len
        encoded = [[a.encode() + b"\x00" for a in argv] for argv in instances]
        strings_len = sum(len(s) for argv in encoded for s in argv)
        total = strings_off + strings_len

        base = self.device.alloc(max(total, 8))
        argc_arr = np.array([len(argv) for argv in instances], dtype=np.int64)
        argvptr_arr = np.zeros(ni, dtype=np.int64)

        # string placement
        str_cursor = base + strings_off
        ptr_cursor = base + ptr_arrays_off
        blob = bytearray(total)
        for i, argv in enumerate(encoded):
            argvptr_arr[i] = ptr_cursor
            ptrs = np.zeros(len(argv) + 1, dtype=np.int64)
            for j, s in enumerate(argv):
                ptrs[j] = str_cursor
                off = str_cursor - base
                blob[off : off + len(s)] = s
                str_cursor += len(s)
            off = ptr_cursor - base
            blob[off : off + ptrs.nbytes] = ptrs.tobytes()
            ptr_cursor += ptrs.nbytes

        blob[0 : ni * 8] = argc_arr.tobytes()
        blob[ni * 8 : 2 * ni * 8] = argvptr_arr.tobytes()
        # Ret[NI] stays zero
        self.device.memory.write_bytes(base, bytes(blob))
        return _ArgBlock(
            base=base,
            argc_addr=base,
            argv_addr=base + ni * 8,
            ret_addr=base + 2 * ni * 8,
            num_instances=ni,
        )

    def _check_launch_safety(self) -> None:
        """Refuse to launch code the safety analyzer disproved.

        A DISPROVEN site faults on *every* execution that reaches it —
        launching is never useful unless the caller explicitly wants the
        dynamic guard to produce the trap (``allow_unsafe=True``; the
        guard always stays armed at such sites, in every safety mode).
        """
        if self.allow_unsafe or not self.safety_disproven:
            return
        parts = []
        for name, proofs in sorted(self.safety_disproven.items()):
            first = proofs[0]
            parts.append(
                f"{name}: {len(proofs)} site(s), e.g. {first.kind} at "
                f"pc {first.pc} ({first.witness})"
            )
        raise LoaderError(
            "refusing to launch: static safety analysis disproved "
            + "; ".join(parts)
            + " — fix the flagged code (run the static-oob/static-trap "
            "lint checkers for line-level diagnostics) or construct the "
            "loader with allow_unsafe=True to keep the dynamic guard"
        )

    def _launch(
        self,
        kernel: str,
        block: _ArgBlock,
        *,
        num_teams: int,
        thread_limit: int,
        instances_per_team: int,
        total_slots: int,
        rpc_host: RPCHost,
        collect_timing: bool,
        max_steps: int,
        backend: str = DEFAULT_BACKEND,
        safety_mode: str = "unchecked",
    ) -> LaunchResult:
        self._check_launch_safety()
        params: tuple = (
            block.num_instances,
            block.argc_addr,
            block.argv_addr,
            block.ret_addr,
            total_slots,
        )
        try:
            return self.device.launch(
                self.image,
                kernel,
                num_teams=num_teams,
                thread_limit=thread_limit,
                params=params,
                instances_per_team=instances_per_team,
                stack_bytes=self.stack_bytes,
                rpc=rpc_host.handle,
                collect_timing=collect_timing,
                max_steps=max_steps,
                backend=backend,
                safety_mode=safety_mode,
            )
        except DeviceTrap as trap:
            if "out of memory" in str(trap):
                raise DeviceOutOfMemory(
                    requested=0,
                    free=0,
                    capacity=self.heap_bytes,
                ) from trap
            raise

    # ------------------------------------------------------------------
    def run(
        self,
        args: "list[str] | LaunchSpec | None" = None,
        *,
        thread_limit: int = 1024,
        collect_timing: bool = True,
        max_steps: int = 200_000_000,
        backend: str = DEFAULT_BACKEND,
        safety_mode: str = "unchecked",
    ) -> RunResult:
        """Run the application once with C-style arguments.

        ``args`` are the argv *tail* (``argv[0]`` is the program name, added
        automatically, exactly like the enhanced loader does in Figure 4).
        A single-instance :class:`~repro.host.launch.LaunchSpec` is also
        accepted, making this entry point uniform with the ensemble and
        scheduler surfaces.
        """
        from repro.host.launch import LaunchSpec

        if isinstance(args, LaunchSpec):
            spec = args
            lines = spec.resolve_instances()
            if len(lines) != 1:
                raise LoaderError(
                    f"Loader.run executes exactly one instance; the spec "
                    f"resolves to {len(lines)} (use EnsembleLoader or the "
                    "scheduler for ensembles)"
                )
            args = lines[0]
            thread_limit = spec.thread_limit
            collect_timing = spec.collect_timing
            max_steps = spec.max_steps
            backend = spec.backend
            safety_mode = spec.safety_mode
        argv = [self.app_name] + list(args or [])
        self._reset_for_run()
        rpc_host = self._make_rpc_host()
        block = self._marshal_instances([argv])
        try:
            launch = self._launch(
                SINGLE_KERNEL,
                block,
                num_teams=1,
                thread_limit=thread_limit,
                instances_per_team=1,
                total_slots=1,
                rpc_host=rpc_host,
                collect_timing=collect_timing,
                max_steps=max_steps,
                backend=backend,
                safety_mode=safety_mode,
            )
            code = int(self.device.memory.read_i64(block.ret_addr))
        finally:
            self.device.free(block.base)
            rpc_host.close()
        return RunResult(
            exit_code=code,
            stdout=rpc_host.all_stdout(),
            cycles=launch.cycles,
            timing=launch.timing,
            launch=launch,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release device resources held by this loader."""
        self.device.free(self.heap_addr)
        self.device.unload_image(self.image)


__all__ = ["Loader", "RunResult", "SINGLE_KERNEL", "ENSEMBLE_KERNEL"]
