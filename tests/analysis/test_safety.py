"""The safety analyzer: per-site certificates, the static-oob /
static-trap checkers, the launch gate, and safety-mode parity."""

import threading

import pytest

from repro.analysis import Severity, analyze_module
from repro.analysis import safety
from repro.analysis.safety import (
    ANALYZER_VERSION,
    SAFETY_META,
    Verdict,
    certificates_for,
    certify_module,
)
from repro.compilecache.build import build_executable
from repro.errors import DeviceTrap, LoaderError
from repro.gpu.device import GPUDevice
from repro.host.loader import Loader
from tests.property.test_opt_equivalence import build_program
from tests.util import SMALL_DEVICE

SAFE = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(64)
    for i in dgpu.parallel_range(64):
        buf[i] = i * 5
    total = malloc_i64(1)
    total[0] = 0
    for j in range(64):
        total[0] = total[0] + buf[j]
    return total[0] & 127
"""

OOB = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    p = malloc_i64(4)
    return p[0 - 999999]
"""

DIV0 = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(8)
    for i in dgpu.parallel_range(8):
        buf[i] = 7 // (i - i)
    return 0
"""


def _module(src, opt_level=2):
    return build_executable(build_program(src).compile(), opt_level=opt_level)


def _loader(src, **kw):
    return Loader(
        build_program(src), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20, **kw
    )


class TestCertificates:
    def test_build_stamps_certificates(self):
        module = _module(SAFE)
        certs = module.metadata[SAFETY_META]
        assert sorted(certs) == ["__ensemble_entry", "__single_entry"]
        for cert in certs.values():
            assert cert.analyzer_version == ANALYZER_VERSION
            assert cert.sites  # at least the buffer loads/stores

    def test_safe_program_has_no_disproven_sites(self):
        for cert in certify_module(_module(SAFE)).values():
            assert cert.disproven() == []

    def test_safe_program_memory_sites_mostly_proven(self):
        cert = certify_module(_module(SAFE))["__single_entry"]
        s = cert.summary()
        assert s["mem_sites"] > 0
        assert s["coverage"] >= 0.6  # the acceptance bar for registry apps

    def test_certificates_for_reuses_stamped_metadata(self):
        module = _module(SAFE)
        assert certificates_for(module) is module.metadata[SAFETY_META]

    def test_stale_analyzer_version_is_recomputed(self):
        module = _module(SAFE)
        stale = module.metadata[SAFETY_META]
        next(iter(stale.values())).analyzer_version = ANALYZER_VERSION + 1
        fresh = certificates_for(module)
        assert fresh is not stale
        assert all(
            c.analyzer_version == ANALYZER_VERSION for c in fresh.values()
        )

    def test_site_proof_dict_shape(self):
        cert = certify_module(_module(SAFE))["__single_entry"]
        for proof in cert.mem_sites():
            d = proof.to_dict()
            assert d["verdict"] in ("PROVEN", "UNPROVEN", "DISPROVEN")
            assert {"null", "align", "bounds"} <= set(d)


class TestCheckers:
    def test_static_oob_flags_constant_oob(self):
        diags = analyze_module(_module(OOB), ["static-oob"])
        errs = [d for d in diags if d.severity is Severity.ERROR]
        assert errs, "constant out-of-bounds access not flagged"
        assert all(d.checker == "static-oob" for d in errs)
        assert "allow_unsafe" in errs[0].hint

    def test_static_trap_flags_constant_div0(self):
        diags = analyze_module(_module(DIV0), ["static-trap"])
        errs = [d for d in diags if d.severity is Severity.ERROR]
        assert errs, "guaranteed division by zero not flagged"
        assert "division by zero" in errs[0].message

    def test_safe_program_lints_clean(self):
        assert analyze_module(_module(SAFE), ["static-oob", "static-trap"]) == []


class TestLaunchGate:
    def test_disproven_site_refuses_launch(self):
        loader = _loader(OOB)
        assert loader.safety_disproven
        with pytest.raises(LoaderError, match="allow_unsafe"):
            loader.run([], thread_limit=8, collect_timing=False)

    def test_allow_unsafe_keeps_the_dynamic_guard(self):
        loader = _loader(OOB, allow_unsafe=True)
        with pytest.raises(DeviceTrap):
            loader.run([], thread_limit=8, collect_timing=False)

    def test_safe_program_launches_without_override(self):
        loader = _loader(SAFE)
        assert loader.safety_disproven == {}
        res = loader.run([], thread_limit=32, collect_timing=False)
        assert res.exit_code == 96  # sum(5i, i<64) & 127


class TestSafetyModes:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_all_modes_agree(self, backend):
        results = set()
        for mode in ("checked", "unchecked", "assert"):
            res = _loader(SAFE).run(
                [],
                thread_limit=32,
                collect_timing=False,
                backend=backend,
                safety_mode=mode,
            )
            results.add((res.exit_code, res.stdout))
        assert len(results) == 1

    def test_unknown_mode_rejected(self):
        from repro.errors import LaunchError

        with pytest.raises(LaunchError, match="safety_mode"):
            _loader(SAFE).run(
                [], thread_limit=8, collect_timing=False, safety_mode="yolo"
            )


class _RacingMemo(dict):
    """A full memo whose iteration snapshots its keys, then waits for a
    second thread to do the same: unsynchronized evictions both pick the
    same oldest key.  The wait times out when a lock keeps the second
    thread out, so a correct memo just runs one eviction after the other."""

    def __init__(self, entries, barrier):
        super().__init__(entries)
        self._barrier = barrier

    def __iter__(self):
        keys = list(super().__iter__())
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return iter(keys)


class _StubAnalyzer:
    def __init__(self, kern, **_):
        self.kern = kern

    def run(self):
        return f"cert:{self.kern}"


class TestCertificateMemo:
    def test_concurrent_evictions_do_not_collide(self, monkeypatch):
        memo = _RacingMemo(
            {"old0": "c0", "old1": "c1"}, threading.Barrier(2, timeout=1.0)
        )
        monkeypatch.setattr(safety, "_CERT_MEMO", memo)
        monkeypatch.setattr(safety, "_CERT_MEMO_MAX", 2)
        monkeypatch.setattr(safety, "_KernelAnalyzer", _StubAnalyzer)
        monkeypatch.setattr(safety, "_kernel_digest", lambda kern, *_: kern)
        errors = []

        def analyze(name):
            try:
                safety.analyze_kernel(name, globals_info={}, wrapper=True)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=analyze, args=(k,)) for k in ("k0", "k1")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert dict(memo) == {"k0": "cert:k0", "k1": "cert:k1"}
