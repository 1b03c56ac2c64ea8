"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.spec import dump_spec, parse_spec


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_perturb_parsing(self):
        args = build_parser().parse_args(
            ["sensitivity", "--use-case", "deal_closing", "--perturb", "Open Marketing Email=40"]
        )
        assert args.perturb == [("Open Marketing Email", 40.0)]

    def test_invalid_perturb_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sensitivity", "--use-case", "deal_closing", "--perturb", "nonsense"]
            )

    def test_bound_parsing(self):
        args = build_parser().parse_args(
            ["goal", "--use-case", "deal_closing", "--bound", "Call=10:20"]
        )
        assert args.bound == [("Call", (10.0, 20.0))]

    def test_invalid_bound_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["goal", "--use-case", "deal_closing", "--bound", "Call=10"]
            )


class TestCommands:
    def test_list_use_cases(self, capsys):
        assert main(["list-use-cases"]) == 0
        output = capsys.readouterr().out
        assert "deal_closing" in output
        assert "marketing_mix" in output

    def test_importance_table_output(self, capsys):
        exit_code = main(
            ["importance", "--use-case", "deal_closing", "--rows", "150", "--no-verify"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Open Marketing Email" in output
        assert "model confidence" in output

    def test_importance_json_output(self, capsys):
        exit_code = main(
            ["importance", "--use-case", "deal_closing", "--rows", "150", "--no-verify", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kpi"] == "Deal Closed?"
        assert len(payload["drivers"]) > 0

    def test_sensitivity_command(self, capsys):
        exit_code = main(
            [
                "sensitivity", "--use-case", "deal_closing", "--rows", "150",
                "--perturb", "Open Marketing Email=40", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["perturbed_kpi"] != payload["original_kpi"]

    def test_goal_command_with_bounds(self, capsys):
        exit_code = main(
            [
                "goal", "--use-case", "deal_closing", "--rows", "150",
                "--bound", "Open Marketing Email=40:80",
                "--n-calls", "8", "--optimizer", "random", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 40.0 <= payload["driver_changes"]["Open Marketing Email"] <= 80.0

    def test_unknown_use_case_is_a_clean_error(self, capsys):
        exit_code = main(["importance", "--use-case", "weather", "--no-verify"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_run_spec_sql_and_execute(self, tmp_path, capsys):
        spec = parse_spec(
            {
                "name": "cli-spec",
                "dataset": {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": 120}},
                "kpi": {"column": "Deal Closed?"},
                "analyses": [
                    {"kind": "sensitivity", "name": "s",
                     "params": {"perturbations": {"Call": 20.0}}},
                ],
            }
        )
        path = tmp_path / "spec.json"
        dump_spec(spec, path)

        assert main(["run-spec", str(path), "--sql"]) == 0
        assert "SELECT" in capsys.readouterr().out

        assert main(["run-spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "s" in payload["results"]

    def test_jobs_command_against_http_backend(self, capsys):
        import threading

        from repro.server import serve_http

        httpd = serve_http(port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            backend = httpd.backend
            loaded = backend.request(
                "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 120}
            )
            assert loaded.ok, loaded.error
            submitted = backend.request(
                "submit",
                {"action": "sensitivity", "params": {"perturbations": {"Call": 10.0}}},
            )
            assert submitted.ok, submitted.error
            job_id = submitted.data["job"]["job_id"]
            backend.request("job_result", job_id=job_id, timeout_s=60)

            assert main(["jobs", "--host", str(host), "--port", str(port), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert [job["job_id"] for job in payload["jobs"]] == [job_id]
            assert payload["engine"]["executed_total"] == 1

            assert main(
                ["jobs", "--host", str(host), "--port", str(port), "--status", job_id]
            ) == 0
            output = capsys.readouterr().out
            assert job_id in output
            # the job's span tree renders under its row
            assert "request  [action=submit]" in output
            assert "job  [" in output

            other = backend.request("create_session", session_id="elsewhere")
            assert other.ok, other.error
            args = ["jobs", "--host", str(host), "--port", str(port), "--json"]
            assert main([*args, "--session", "elsewhere"]) == 0
            assert json.loads(capsys.readouterr().out)["jobs"] == []

            assert main(
                ["jobs", "--host", str(host), "--port", str(port), "--status", "j-missing"]
            ) == 2
            assert "unknown job" in capsys.readouterr().err
        finally:
            httpd.shutdown()
            httpd.backend.close()
            httpd.server_close()

    def test_run_spec_missing_file(self, tmp_path, capsys):
        assert main(["run-spec", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err
