"""The flow-pass runner: the shipped tree stays clean, baselines are
reviewed decisions, and a crashing pass is an analysis error — never a
silently clean run."""

from __future__ import annotations

import json

import pytest

from repro.analysis.flow import (
    BaselineEntry, Finding, apply_baseline, load_baseline,
    run_flow_passes,
)
from repro.cli import main


class TestCleanTree:
    def test_shipped_tree_is_clean(self):
        report = run_flow_passes()
        assert report.findings == []
        assert report.errors == []
        assert report.clean

    def test_suppressions_are_reviewed(self):
        """Every baseline entry that fires carries a written reason."""
        report = run_flow_passes()
        assert report.suppressed        # the two triaged FPs
        for finding, reason in report.suppressed:
            assert isinstance(finding, Finding)
            assert len(reason) > 20

    def test_no_stale_baseline_entries(self):
        """An entry that no longer suppresses any current finding is
        suppression rot: the test names the stale file line so it can
        be deleted (not just which entry, but where)."""
        report = run_flow_passes()
        stale = [entry for entry in load_baseline()
                 if not any(entry.matches(f)
                            for f, _ in report.suppressed)]
        assert not stale, "\n".join(
            f"stale baseline entry at "
            f"analysis/flow_baseline.txt:{entry.lineno}: "
            f"{entry.rule} | {entry.module} | {entry.where} — no "
            f"current finding matches; delete the line"
            for entry in stale)

    def test_stale_entry_detection_fires(self):
        """The staleness check itself must be able to go red."""
        entries = load_baseline()
        ghost = BaselineEntry("typestate/page-double-free",
                              "repro.no.such.module", "*",
                              "reviewed: never fires", lineno=999)
        report = run_flow_passes()
        stale = [entry for entry in entries + [ghost]
                 if not any(entry.matches(f)
                            for f, _ in report.suppressed)]
        assert stale == [ghost]


class TestCrashHandling:
    def test_crashing_pass_becomes_analysis_error(self, monkeypatch):
        import repro.analysis.lifecycle as lifecycle

        def boom(module, tree, ctx=None):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(lifecycle, "check_module", boom)
        report = run_flow_passes(passes=["lifecycle"])
        assert not report.clean
        assert report.errors
        assert report.errors[0].pass_name == "lifecycle"
        assert "pass exploded" in report.errors[0].message

    def test_unknown_pass_is_an_error(self):
        report = run_flow_passes(passes=["mystery"])
        assert not report.clean
        assert "unknown pass" in report.errors[0].message

    def test_crashed_module_is_never_cached(self, monkeypatch,
                                            tmp_path):
        """A crash must be retried next run, not served from cache."""
        import repro.analysis.determinism as determinism

        def boom(module, tree):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(determinism, "check_module", boom)
        report = run_flow_passes(passes=["determinism"],
                                 cache_dir=tmp_path / "cache")
        assert not report.clean
        monkeypatch.undo()
        report = run_flow_passes(passes=["determinism"],
                                 cache_dir=tmp_path / "cache")
        assert report.clean
        assert report.analyzed        # the crashed modules re-ran

    def test_crash_fails_repro_check(self, monkeypatch, capsys):
        import repro.analysis.lifecycle as lifecycle

        def boom(module, tree, ctx=None):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(lifecycle, "check_module", boom)
        assert main(["check", "--lint-only", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "analysis error" in out
        assert "lint: clean" not in out


class TestBaseline:
    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("rule-without-fields\n")
        with pytest.raises(ValueError, match="malformed"):
            load_baseline(path)

    def test_apply_splits_on_match(self):
        finding = Finding("lifecycle", "m", 3, "leak-on-return",
                          "C.f", "leak")
        other = Finding("lifecycle", "m", 9, "double-release",
                        "C.g", "boom")
        entry = BaselineEntry("lifecycle/leak-on-return", "m", "C.f",
                              "reviewed: fine")
        kept, suppressed = apply_baseline([finding, other], [entry])
        assert kept == [other]
        assert suppressed == [(finding, "reviewed: fine")]

    def test_wildcard_where(self):
        finding = Finding("determinism", "m", 1, "wall-clock", "f", "x")
        entry = BaselineEntry("determinism/wall-clock", "m", "*", "ok")
        kept, suppressed = apply_baseline([finding], [entry])
        assert kept == [] and len(suppressed) == 1


class TestCli:
    def test_check_report_is_versioned_json(self, tmp_path, capsys):
        from repro.analysis.report import SCHEMA_VERSION, load_report

        report = tmp_path / "findings.json"
        assert main(["check", "--lint-only", "--no-cache",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out
        assert "reviewed suppression" in out
        payload = load_report(report)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["problems"] == []
        assert payload["suppressed"] == 2

    def test_report_is_deterministic(self, tmp_path):
        """Two clean runs produce byte-identical reports — findings
        sorted by (file, line, rule), keys sorted, no timestamps."""
        import json

        from repro.analysis.report import render_report

        one = render_report(["p"], [], [], 2, 10, 85)
        two = render_report(["p"], [], [], 2, 10, 85)
        assert one == two
        assert "wall_s" not in json.loads(one)   # opt-in only

    def test_consumer_tolerates_legacy_and_future(self, tmp_path):
        from repro.analysis.report import load_report

        legacy = tmp_path / "old.txt"
        legacy.write_text("lifecycle/leak | m | C.f | leak\n")
        payload = load_report(legacy)
        assert payload["schema_version"] == 0
        assert payload["problems"] == [
            "lifecycle/leak | m | C.f | leak"]
        assert payload["clean"] is False

        future = tmp_path / "new.json"
        future.write_text('{"schema_version": 9, "novel_field": 1}')
        payload = load_report(future)
        assert payload["schema_version"] == 9
        assert payload["novel_field"] == 1      # passed through
        assert payload["findings"] == []
        assert payload["problems"] == []

    def test_bench_json(self, capsys):
        """``repro bench`` only regenerates the paper's tables: its
        options are exactly ``--table`` and ``--quick``, and the
        deleted wall-clock JSON harness's flags are usage errors
        (vmbench/ measures the simulator's wall-clock)."""
        from repro.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if a.dest == "command")
        options = {opt for action in sub.choices["bench"]._actions
                   for opt in action.option_strings}
        assert options == {"-h", "--help", "--table", "--quick"}
        for flag in ("--json", "--out", "--seed", "--baseline"):
            with pytest.raises(SystemExit) as exc:
                main(["bench", flag])
            assert exc.value.code == 2
