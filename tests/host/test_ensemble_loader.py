"""Enhanced ensemble loader (§3, Figure 4): the paper's contribution."""

import pytest

from repro.errors import LoaderError
from repro.frontend import Program, dgpu, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.mapping import PackedMapping
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE


def echo_program():
    """main returns a function of its own arguments, so each instance's
    result proves it got its own argc/argv."""
    prog = Program("echo")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        total = 0
        i = 1
        while i < argc:
            total = total * 100 + atoi(argv[i])  # noqa: F821
        # compact encoding of all args in order
            i += 1
        return total

    return prog


@pytest.fixture(scope="module")
def loader():
    return EnsembleLoader(echo_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


class TestDistribution:
    def test_each_instance_gets_its_own_arguments(self, loader):
        res = loader.run_ensemble(LaunchSpec(
            [["1", "2"], ["3", "4"], ["5", "6"], ["7", "8"]],
            thread_limit=32, collect_timing=False,
        ))
        assert res.return_codes == [102, 304, 506, 708]

    def test_instances_equal_teams_by_default(self, loader):
        res = loader.run_ensemble(LaunchSpec(
            [["1"], ["2"], ["3"]], thread_limit=32, collect_timing=False
        ))
        assert res.geometry.num_teams == 3
        assert res.geometry.total_slots == 3

    def test_more_instances_than_slots_distributes(self, loader):
        """With a packed mapping of 2/team and 6 instances on 3 teams, the
        distribute loop must still run every instance exactly once."""
        packed = EnsembleLoader(
            echo_program(),
            GPUDevice(SMALL_DEVICE),
            mapping=PackedMapping(2),
            heap_bytes=1 << 20,
        )
        res = packed.run_ensemble(LaunchSpec(
            [[str(i)] for i in range(1, 7)], thread_limit=64, collect_timing=False
        ))
        assert res.return_codes == [1, 2, 3, 4, 5, 6]
        assert res.geometry.num_teams == 3

    def test_argument_file_text_source(self, loader):
        res = loader.run_ensemble(LaunchSpec("11 22\n33 44\n", thread_limit=32,
                                  collect_timing=False))
        assert res.return_codes == [1122, 3344]

    def test_argument_file_path_source(self, loader, tmp_path):
        f = tmp_path / "arguments.txt"
        f.write_text("5\n6\n7\n")
        res = loader.run_ensemble(LaunchSpec(f, thread_limit=32, collect_timing=False))
        assert res.return_codes == [5, 6, 7]


class TestNFlag:
    def test_n_selects_prefix(self, loader):
        res = loader.run_ensemble(LaunchSpec(
            "1\n2\n3\n4\n", num_instances=2, thread_limit=32, collect_timing=False
        ))
        assert res.num_instances == 2
        assert res.return_codes == [1, 2]

    def test_n_too_large_rejected(self, loader):
        with pytest.raises(LoaderError, match="only"):
            loader.run_ensemble(LaunchSpec("1\n2\n", num_instances=5, collect_timing=False))

    def test_n_zero_rejected(self, loader):
        with pytest.raises(LoaderError, match="at least one"):
            loader.run_ensemble(LaunchSpec("1\n", num_instances=0, collect_timing=False))


class TestOutcomes:
    def test_instance_outcomes_carry_args_and_slots(self, loader):
        res = loader.run_ensemble(LaunchSpec(
            [["10"], ["20"]], thread_limit=32, collect_timing=False
        ))
        assert res.instances[0].args == ["10"]
        assert res.instances[1].index == 1
        assert res.instances[0].slot == 0
        assert res.instances[1].slot == 1

    def test_all_succeeded_flag(self, loader):
        ok = loader.run_ensemble(LaunchSpec([["0"], ["0"]], thread_limit=32,
                                 collect_timing=False))
        assert ok.all_succeeded
        bad = loader.run_ensemble(LaunchSpec([["0"], ["9"]], thread_limit=32,
                                  collect_timing=False))
        assert not bad.all_succeeded

    def test_timing_present_when_collected(self, loader):
        res = loader.run_ensemble(LaunchSpec([["1"]], thread_limit=32))
        assert res.cycles is not None
        assert res.timing is not None


class TestStdout:
    def test_per_instance_stdout(self):
        prog = Program("chatty")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            printf("instance %ld says hi\n", atoi(argv[1]))  # noqa: F821
            return 0

        loader = EnsembleLoader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        res = loader.run_ensemble(LaunchSpec(
            [["7"], ["8"], ["9"], ["10"]], thread_limit=32, collect_timing=False
        ))
        for i in range(4):
            assert res.stdout_of(i) == f"instance {7 + i} says hi\n"


class TestArgv0:
    def test_program_name_is_argv0(self):
        prog = Program("myname")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            # exit code = length of argv[0]
            return strlen(argv[0])  # noqa: F821

        loader = EnsembleLoader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        res = loader.run_ensemble(LaunchSpec([[]], thread_limit=32, collect_timing=False))
        assert res.return_codes == [len("myname")]
