"""repro-lint's own test suite: fixtures, CLI surface, baselines, waivers.

The fixture snippets under ``tests/analysis_fixtures/`` are parsed by
the analyzer, never imported: each rule has at least one true-positive
file (seeded violations) and one clean file.  Fixture runs disable the
per-rule path scopes (``restrict_paths=False``) because the snippets
live outside the production tree the scopes point at.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_analysis
from repro.analysis.cli import main
from repro.analysis.engine import UsageError
from repro.analysis.rules.rl002_stats_discipline import STATS_COUNTERS
from repro.core.service import ServiceStats

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"


def run_fixture(filename: str, rule_id: str):
    report = run_analysis(
        [FIXTURES / filename],
        rules=all_rules(),
        select=[rule_id],
        restrict_paths=False,
    )
    assert not report.parse_errors, report.parse_errors
    return report.findings


# ----------------------------------------------------------------------
# Per-rule fixtures: every rule catches its seeded violations and stays
# quiet on the clean twin.
# ----------------------------------------------------------------------
class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule_id, violation, clean, min_findings",
        [
            ("RL001", "rl001_violation.py", "rl001_clean.py", 6),
            ("RL002", "rl002_violation.py", "rl002_clean.py", 4),
            ("RL003", "rl003_violation.py", "rl003_clean.py", 3),
            ("RL004", "rl004_rawops_violation.py", "rl004_clean.py", 4),
            ("RL005", "rl005_violation.py", "rl005_clean.py", 4),
        ],
    )
    def test_positive_and_negative(self, rule_id, violation, clean, min_findings):
        findings = run_fixture(violation, rule_id)
        assert len(findings) >= min_findings, [f.render() for f in findings]
        assert all(f.rule == rule_id for f in findings)
        assert run_fixture(clean, rule_id) == []

    def test_rl001_flags_each_blocking_kind(self):
        messages = " ".join(f.message for f in run_fixture("rl001_violation.py", "RL001"))
        for needle in ("store", "sleep", "subgraph", "open", "mapping", "future"):
            assert needle in messages, messages

    def test_rl003_names_each_defect(self):
        findings = run_fixture("rl003_violation.py", "RL003")
        symbols = {f.symbol.rsplit(".", 1)[-1] for f in findings}
        assert symbols == {"add_node", "sneaky_insert", "remove_node"}
        by_method = {f.symbol.rsplit(".", 1)[-1]: f.message for f in findings}
        assert "without clearing _fingerprint_cache" in by_method["sneaky_insert"]
        assert "without calling _notify" in by_method["add_node"]

    def test_rl004_registry_protocol_holes(self):
        findings = run_fixture("rl004_registry_violation.py", "RL004")
        messages = " ".join(f.message for f in findings)
        assert "IncompleteBackend does not implement" in messages
        assert "matching_list" in messages
        assert run_fixture("rl004_clean.py", "RL004") == []

    def test_findings_carry_location_and_hint(self):
        finding = run_fixture("rl001_violation.py", "RL001")[0]
        assert finding.path.endswith("rl001_violation.py")
        assert finding.line > 0 and finding.col > 0
        assert finding.hint and finding.snippet
        assert finding.symbol.startswith("Cache.")


# ----------------------------------------------------------------------
# Engine mechanics: waivers, rule selection, counter cross-check
# ----------------------------------------------------------------------
class TestEngine:
    def test_inline_waiver_suppresses_only_named_rule(self, tmp_path):
        bad = tmp_path / "svc.py"
        bad.write_text(
            "class S:\n"
            "    def bump(self):\n"
            "        self.stats.calls += 1  # repro-lint: ignore[RL002] -- test\n"
            "    def bump2(self):\n"
            "        self.stats.calls += 1\n"
        )
        report = run_analysis([bad], rules=all_rules(), restrict_paths=False)
        assert report.waived == 1
        assert [f.symbol for f in report.findings] == ["S.bump2"]

    def test_waiver_on_comment_line_covers_next_line(self, tmp_path):
        bad = tmp_path / "svc.py"
        bad.write_text(
            "class S:\n"
            "    def bump(self):\n"
            "        # repro-lint: ignore[RL002]\n"
            "        self.stats.calls += 1\n"
        )
        report = run_analysis([bad], rules=all_rules(), restrict_paths=False)
        assert report.findings == [] and report.waived == 1

    def test_select_and_disable(self):
        path = FIXTURES / "rl001_violation.py"
        only = run_analysis([path], rules=all_rules(), select=["RL002"], restrict_paths=False)
        assert only.findings == []
        disabled = run_analysis(
            [path], rules=all_rules(), disable=["RL001"], restrict_paths=False
        )
        assert all(f.rule != "RL001" for f in disabled.findings)

    def test_unknown_rule_id_is_usage_error(self):
        with pytest.raises(UsageError):
            run_analysis(["src"], rules=all_rules(), select=["RL999"])

    def test_rl002_counters_match_service_stats_fields(self):
        """Adding a ServiceStats field without teaching RL002 fails here."""
        fields = {f.name for f in dataclasses.fields(ServiceStats)}
        assert fields - {"backend", "lock"} == set(STATS_COUNTERS)

    def test_default_path_scopes_skip_unrelated_files(self, tmp_path):
        # The same violating code outside the scoped files is not flagged
        # when path restriction is on (the production default).
        bad = tmp_path / "unrelated.py"
        bad.write_text("def f(used_mask):\n    used_mask |= 1 << 3\n    return used_mask\n")
        report = run_analysis([bad], rules=all_rules(), restrict_paths=True)
        assert report.findings == []

    def test_syntax_errors_are_reported_not_fatal(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_analysis([tmp_path], rules=all_rules(), restrict_paths=False)
        assert report.parse_errors and report.exit_code == 1


# ----------------------------------------------------------------------
# CLI: JSON schema, baseline round-trip, exit codes
# ----------------------------------------------------------------------
class TestCli:
    def test_json_schema(self, capsys):
        code = main([str(FIXTURES / "rl001_violation.py"), "--json", "--all-files"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["exit_code"] == 1
        assert payload["version"] == 1 and payload["tool"] == "repro-lint"
        assert payload["files_scanned"] == 1
        assert [r["id"] for r in payload["rules"]] == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
        ]
        assert set(payload["suppressed"]) == {"waiver", "baseline"}
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule",
                "path",
                "line",
                "col",
                "symbol",
                "message",
                "hint",
                "snippet",
            }

    def test_baseline_round_trip(self, tmp_path, capsys):
        target = str(FIXTURES / "rl003_violation.py")
        baseline = tmp_path / "baseline.json"
        # 1. Findings exist without a baseline.
        assert main([target, "--all-files"]) == 1
        # 2. Writing the baseline grandfathers them.
        assert main([target, "--all-files", "--write-baseline", str(baseline)]) == 0
        # 3. Running against the baseline is clean...
        assert main([target, "--all-files", "--baseline", str(baseline)]) == 0
        # ...and a *new* violation still fails.
        extra = tmp_path / "extra.py"
        extra.write_text(
            "class G:\n"
            "    def _notify(self, op):\n"
            "        pass\n"
            "    def poke(self):\n"
            "        self._fingerprint_cache = None\n"
            "        self._succ['x'] = set()\n"
        )
        capsys.readouterr()
        assert main([target, str(extra), "--all-files", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "extra.py" in out and "baselined" in out

    def test_baseline_keys_survive_line_drift(self, tmp_path):
        source = (FIXTURES / "rl003_violation.py").read_text()
        moved = tmp_path / "rl003_violation.py"
        moved.write_text(source)
        baseline = tmp_path / "baseline.json"
        assert main([str(moved), "--all-files", "--write-baseline", str(baseline)]) == 0
        # Unrelated lines added above shift every lineno; keys still match.
        moved.write_text("# a new comment\n# another\n" + source)
        assert main([str(moved), "--all-files", "--baseline", str(baseline)]) == 0

    def test_missing_baseline_is_usage_error(self, tmp_path):
        assert main(["--baseline", str(tmp_path / "nope.json"), str(FIXTURES)]) == 2

    def test_unknown_rule_exit_code(self):
        assert main(["--select", "RL999", str(FIXTURES)]) == 2

    def test_missing_path_is_usage_error(self):
        assert main(["definitely/not/a/path"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert rule_id in out


# ----------------------------------------------------------------------
# The meta-test: the live tree is clean (the acceptance bar for CI)
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_live_src_is_clean(self):
        report = run_analysis([SRC], rules=all_rules())
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        assert not report.parse_errors, report.parse_errors
        assert len(report.rules) >= 5
        assert len(report.files) > 50
        # The one documented contract spot rides on an inline waiver, not
        # silence: ServiceStats.record_backend's caller-holds-lock note.
        assert report.waived >= 1

    def test_live_cli_json_exits_zero(self, capsys):
        code = main([str(SRC), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["findings"] == []
        assert len(payload["rules"]) >= 5
