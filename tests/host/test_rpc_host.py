"""Host RPC endpoint: printf formatting, per-instance capture, file I/O."""

import pytest

from repro.errors import DeviceTrap, RPCError
from repro.gpu.memory import GlobalMemory
from repro.host.rpc_host import RPCHost
from repro.runtime.interpreter import RpcLane

BASE = 8192


@pytest.fixture
def host():
    mem = GlobalMemory(1 << 20)
    return RPCHost(mem)


def put_string(host, text, addr=BASE):
    host.memory.write_bytes(addr, text.encode() + b"\x00")
    return addr


def lane(instance=0):
    return RpcLane(team=instance, instance=instance, lane=0)


class TestPrintf:
    def test_plain_integers(self, host):
        fmt = put_string(host, "x=%d y=%ld\n")
        n = host.handle("printf", [fmt, 42, -7], lane())
        assert host.instance_stdout(0) == "x=42 y=-7\n"
        assert n == len("x=42 y=-7\n")

    def test_floats_and_width(self, host):
        fmt = put_string(host, "[%8.3f|%e|%g]")
        host.handle("printf", [fmt, 3.14159, 1234.5, 0.25], lane())
        out = host.instance_stdout(0)
        assert out == "[%8.3f|%e|%g]" % (3.14159, 1234.5, 0.25)
        # %g drops a whole float's trailing ".0"
        fmt = put_string(host, "line %ld of %ld, x=%g\n")
        host.handle("printf", [fmt, 4, 5, 2.0], lane(1))
        assert host.instance_stdout(1) == "line 4 of 5, x=2\n"

    def test_string_argument_reads_device_memory(self, host):
        fmt = put_string(host, "hello %s!")
        arg = put_string(host, "world", addr=BASE + 256)
        host.handle("printf", [fmt, arg], lane())
        assert host.instance_stdout(0) == "hello world!"

    def test_char_hex_percent(self, host):
        fmt = put_string(host, "%c %x %%")
        host.handle("printf", [fmt, 65, 255], lane())
        assert host.instance_stdout(0) == "A ff %"

    def test_unsigned_wraps(self, host):
        fmt = put_string(host, "%u")
        host.handle("printf", [fmt, -1], lane())
        assert host.instance_stdout(0) == str((1 << 64) - 1)

    def test_too_few_args_rejected(self, host):
        fmt = put_string(host, "%d %d")
        with pytest.raises(RPCError, match="consumes more"):
            host.handle("printf", [fmt, 1], lane())

    def test_pointer_format(self, host):
        fmt = put_string(host, "%p")
        host.handle("printf", [fmt, 0xDEAD], lane())
        assert host.instance_stdout(0) == "0xdead"


class TestCapture:
    def test_streams_keyed_by_instance(self, host):
        fmt = put_string(host, "i%d ")
        host.handle("printf", [fmt, 0], lane(0))
        host.handle("printf", [fmt, 1], lane(1))
        host.handle("printf", [fmt, 0], lane(0))
        assert host.instance_stdout(0) == "i0 i0 "
        assert host.instance_stdout(1) == "i1 "
        assert host.all_stdout() == "i0 i0 i1 "

    def test_puts_appends_newline(self, host):
        s = put_string(host, "line")
        host.handle("puts", [s], lane())
        assert host.instance_stdout(0) == "line\n"

    def test_putchar(self, host):
        host.handle("putchar", [ord("Q")], lane())
        assert host.instance_stdout(0) == "Q"

    def test_call_counts(self, host):
        s = put_string(host, "x")
        host.handle("puts", [s], lane())
        host.handle("puts", [s], lane())
        assert host.call_counts["puts"] == 2


class TestFileIO:
    def test_fopen_fputs_fclose(self, host, tmp_path):
        target = tmp_path / "out.txt"
        path = put_string(host, str(target))
        mode = put_string(host, "w", addr=BASE + 512)
        handle = host.handle("fopen", [path, mode], lane())
        assert handle >= 3
        text = put_string(host, "written from device", addr=BASE + 1024)
        host.handle("fputs", [text, handle], lane())
        assert host.handle("fclose", [handle], lane()) == 0
        assert target.read_text() == "written from device"

    def test_fopen_failure_returns_null(self, host):
        path = put_string(host, "/nonexistent/dir/file.txt")
        mode = put_string(host, "r", addr=BASE + 512)
        assert host.handle("fopen", [path, mode], lane()) == 0

    def test_fclose_unknown_handle(self, host):
        assert host.handle("fclose", [123], lane()) == -1

    def test_close_sweeps_open_files(self, host, tmp_path):
        path = put_string(host, str(tmp_path / "f.txt"))
        mode = put_string(host, "w", addr=BASE + 512)
        host.handle("fopen", [path, mode], lane())
        host.close()  # must not raise


class TestMisc:
    def test_unknown_service_rejected(self, host):
        with pytest.raises(RPCError, match="no host handler"):
            host.handle("frobnicate", [], lane())

    def test_custom_handler_registration(self, host):
        host.register("double", lambda args, lane: args[0] * 2)
        assert host.handle("double", [21], lane()) == 42

    def test_host_time_monotonic(self, host):
        a = host.handle("host_time_ns", [], lane())
        b = host.handle("host_time_ns", [], lane())
        assert b >= a

    def test_abort_raises_trap(self, host):
        with pytest.raises(DeviceTrap, match="abort"):
            host.handle("abort", [], lane())
