"""Chaos: RPC-layer injection points (``rpc.reply``).

Contract under test: a dropped reply fails the launch transiently (so the
scheduler's retry machinery recovers it), an injected timeout isolates
exactly the targeted instance, a corrupted reply flips exactly the
requested byte, and a duplicated request re-runs the handler — all
deterministically.
"""

import pytest

from repro.errors import RPCError
from repro.faults import FAULT_EXIT, InjectedRPCFailure
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE

LINES = [[str(i)] for i in (7, 8, 9, 10)]


def spec(plan=None, lines=LINES):
    return LaunchSpec(
        lines, thread_limit=32, collect_timing=False, fault_plan=plan
    )


def make_loader(prog):
    return EnsembleLoader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


class TestDrop:
    def test_dropped_reply_fails_launch_transiently(self, echo_prog):
        loader = make_loader(echo_prog)
        with pytest.raises(InjectedRPCFailure) as exc_info:
            loader.run_ensemble(spec("rpc_drop:rate=1.0:times=1"))
        # An RPCError subclass: upstream retry paths treat it like a real
        # wedged service thread.
        assert isinstance(exc_info.value, RPCError)
        # The launch is transient: the same loader immediately recovers.
        again = loader.run_ensemble(spec())
        assert again.return_codes == [7, 8, 9, 10]
        loader.close()

    def test_rate_zero_never_fires(self, echo_prog):
        loader = make_loader(echo_prog)
        res = loader.run_ensemble(spec("rpc_drop:rate=0.0"))
        assert res.return_codes == [7, 8, 9, 10]
        assert not loader.device.faults.events
        loader.close()


class TestTimeout:
    def test_timeout_isolates_one_instance(self, echo_prog):
        loader = make_loader(echo_prog)
        res = loader.run_ensemble(spec("rpc_timeout:instance=2:times=1"))
        codes = [o.exit_code for o in res.instances]
        assert codes == [7, 8, FAULT_EXIT, 10]
        assert len(res.fault_reports) == 1
        report = res.fault_reports[0]
        assert report.kind == "rpc_timeout"
        assert report.instances == [2]
        assert res.instances[2].fault is report
        # The degraded result is queryable but not "all succeeded".
        assert not res.all_succeeded
        loader.close()

    def test_plan_does_not_outlive_its_launch(self, echo_prog):
        loader = make_loader(echo_prog)
        hit = loader.run_ensemble(spec("rpc_timeout:rate=1.0"))
        assert hit.return_codes == [FAULT_EXIT] * 4
        # The next launch's spec carries no plan, so nothing fires.
        again = loader.run_ensemble(spec())
        assert again.return_codes == [7, 8, 9, 10]
        loader.close()

    def test_other_instances_keep_their_output(self, echo_prog):
        loader = make_loader(echo_prog)
        base = loader.run_ensemble(spec())
        hit = loader.run_ensemble(spec("rpc_timeout:instance=1:times=1"))
        for i in (0, 2, 3):
            assert hit.stdout_of(i) == base.stdout_of(i)
        loader.close()


class TestCorrupt:
    def test_corrupt_flips_requested_byte_of_reply(self, reply_prog):
        loader = make_loader(reply_prog)
        base = loader.run_ensemble(spec(lines=[[]]))
        hit = loader.run_ensemble(
            spec("transport_corrupt:byte=0:times=1", lines=[[]])
        )
        # The guest returns printf's reply; byte 0 of it was XOR-flipped.
        assert hit.return_codes[0] == base.return_codes[0] ^ 0xFF
        loader.close()

    def test_corruption_is_deterministic(self, reply_prog):
        loader = make_loader(reply_prog)
        runs = [
            loader.run_ensemble(
                spec("transport_corrupt:byte=1:times=1", lines=[[]])
            ).return_codes
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        loader.close()


class TestDup:
    def test_duplicate_reply_is_reexecuted_on_direct(self, echo_prog):
        # The host re-invokes the handler: printf runs twice, so the
        # duplicated line is visible in the instance's stdout.
        loader = make_loader(echo_prog)
        res = loader.run_ensemble(spec("rpc_dup:service=printf:times=1"))
        dupes = [
            o for o in res.instances
            if o.stdout.count("reporting") == 2
        ]
        assert len(dupes) == 1
        assert res.return_codes == [7, 8, 9, 10]
        loader.close()
