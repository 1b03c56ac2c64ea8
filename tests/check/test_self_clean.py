"""Tier-1 gate: ``repro check`` must run clean on this repository.

Every finding in the tree is either fixed or carries a justified inline
suppression; an unsuppressed finding here means a new invariant violation
landed and must be addressed before merging (CI runs the same gate as a
blocking job).
"""

import json

import pytest

from repro.check import default_root, format_json, run


def test_repo_is_clean_under_repro_check():
    findings = run(default_root())
    unsuppressed = [f for f in findings if not f.suppressed]
    report = "\n".join(
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in unsuppressed
    )
    assert not unsuppressed, f"repro check found new violations:\n{report}"


def test_every_suppression_in_tree_is_justified():
    findings = run(default_root())
    for finding in findings:
        if finding.suppressed:
            assert finding.justification, (
                f"{finding.path}:{finding.line} suppresses {finding.rule} "
                "without a justification"
            )


def test_json_report_shape():
    payload = json.loads(format_json(run(default_root())))
    assert payload["summary"]["unsuppressed"] == 0
    assert payload["summary"]["total"] == len(payload["findings"])
    if payload["findings"]:
        finding = payload["findings"][0]
        assert {"rule", "severity", "path", "line", "message", "suppressed"} <= set(finding)


def test_cli_check_command_runs_clean(capsys):
    from repro.cli import main

    assert main(["check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["unsuppressed"] == 0


def test_cli_check_output_file_matches_stdout(capsys, tmp_path):
    from repro.cli import main

    out_path = tmp_path / "findings.json"
    assert main(["check", "--format", "json", "--output", str(out_path)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert file_payload == stdout_payload
    assert file_payload["summary"]["unsuppressed"] == 0


def test_cli_check_command_fails_on_bad_fixture(capsys):
    from pathlib import Path

    from repro.cli import main

    bad_root = Path(__file__).parent / "fixtures" / "lock_bad"
    assert main(["check", "--root", str(bad_root)]) == 1
    out = capsys.readouterr().out
    assert "[LCK001]" in out


def test_unknown_rule_filter_yields_no_findings():
    assert run(default_root(), rule_ids=["NOPE999"]) == []


@pytest.mark.parametrize("rule_id", ["LCK001", "DET001", "PKL001", "REG004"])
def test_rule_filtering_runs_each_family_alone(rule_id):
    findings = run(default_root(), rule_ids=[rule_id])
    assert all(f.rule == rule_id for f in findings)
