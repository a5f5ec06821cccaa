"""The ``repro.tools.lint`` CLI: text/JSON rendering and exit codes."""

import json

import pytest

from repro.tools.lint import main


class TestCleanApps:
    def test_single_app_text(self, capsys):
        assert main(["stream"]) == 0
        out = capsys.readouterr().out
        assert "== stream: clean" in out

    def test_all_apps_exit_zero(self, capsys):
        assert main(["--all"]) == 0
        out = capsys.readouterr().out
        for app in ("amgmk", "pagerank", "rsbench", "stream", "xsbench"):
            assert f"== {app}: clean" in out

    def test_json_output_shape(self, capsys):
        assert main(["xsbench", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage"] == "final"
        assert payload["apps"] == {"xsbench": []}


class TestCliErrors:
    def test_unknown_app(self, capsys):
        assert main(["not_an_app"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_no_app_named(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_checker_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["xsbench", "--checker", "typo"])


class TestFindingsRendering:
    """Exercise the renderer through a racy registry app faked via
    monkeypatching the registry with our fixture program."""

    @pytest.fixture
    def racy_registry(self, monkeypatch):
        from repro.apps import registry
        from tests.analysis.fixtures import racy_counter_program

        entry = registry.AppEntry(
            name="racy_counter",
            description="racy fixture",
            build_program=racy_counter_program,
            default_args=lambda: ["1"],
            reference_fn=lambda: 0.0,
            bound="memory",
        )
        monkeypatch.setitem(registry.APPS, "racy_counter", entry)

    def test_error_reported_and_exit_nonzero(self, racy_registry, capsys):
        assert main(["racy_counter", "--stage", "device"]) == 1
        out = capsys.readouterr().out
        assert "error[races]" in out
        assert "@counter" in out
        assert "hint: relocate it per-team" in out

    def test_fail_on_never_reports_but_passes(self, racy_registry, capsys):
        assert main(["racy_counter", "--stage", "device", "--fail-on", "never"]) == 0
        assert "error[races]" in capsys.readouterr().out

    def test_checker_filter_skips_race(self, racy_registry, capsys):
        assert main(["racy_counter", "--stage", "device", "--checker", "uninit"]) == 0

    def test_json_carries_structured_fields(self, racy_registry, capsys):
        main(["racy_counter", "--stage", "device", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        (finding,) = [
            d
            for d in payload["apps"]["racy_counter"]
            if d["severity"] == "error"
        ]
        assert finding["checker"] == "races"
        assert finding["sym"] == "counter"
        assert finding["line"] is not None  # frontend recorded a source loc


class TestFormatFlag:
    def test_legacy_json_alias_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--json"])
        assert exc.value.code == 2

    def test_json_rows_carry_file_line_col(self, capsys):
        import inspect

        from repro.apps import registry

        main(["pagerank", "--format", "json", "--interproc"])
        payload = json.loads(capsys.readouterr().out)
        rows = payload["apps"]["pagerank"]
        assert rows, "--interproc must report facts for pagerank"
        src = inspect.getsourcefile(registry.APPS["pagerank"].build_program)
        for row in rows:
            assert row["file"] == src
            assert {"line", "col", "severity", "checker", "message"} <= row.keys()

    def test_interproc_reports_unbounded_allocs(self, capsys):
        # pagerank mallocs runtime-dependent sizes: the facts must say so,
        # with source provenance intact
        assert main(["pagerank", "--interproc", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        unbounded = [
            d
            for d in payload["apps"]["pagerank"]
            if d["checker"] == "interproc" and "unbounded allocation" in d["message"]
        ]
        assert unbounded
        assert all(d["line"] is not None for d in unbounded)

    def test_interproc_reports_footprint_summary(self, capsys):
        assert main(["stream", "--interproc"]) == 0
        out = capsys.readouterr().out
        assert "static footprint" in out


class TestExitCodeContract:
    """The documented 0/1/2/3 contract CI relies on."""

    def test_findings_exit_one(self, monkeypatch, capsys):
        from repro.apps import registry
        from tests.analysis.fixtures import racy_counter_program

        entry = registry.AppEntry(
            name="racy_counter",
            description="racy fixture",
            build_program=racy_counter_program,
            default_args=lambda: ["1"],
            reference_fn=lambda: 0.0,
            bound="memory",
        )
        monkeypatch.setitem(registry.APPS, "racy_counter", entry)
        assert main(["racy_counter", "--stage", "device"]) == 1

    def test_usage_exit_two(self, capsys):
        assert main(["not_an_app"]) == 2

    def test_internal_error_exit_three(self, monkeypatch, capsys):
        from repro.apps import registry

        def explode():
            raise RuntimeError("compiler bug")

        entry = registry.AppEntry(
            name="broken",
            description="always crashes",
            build_program=explode,
            default_args=lambda: [],
            reference_fn=lambda: 0.0,
            bound="memory",
        )
        monkeypatch.setitem(registry.APPS, "broken", entry)
        assert main(["broken"]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err and "compiler bug" in err
