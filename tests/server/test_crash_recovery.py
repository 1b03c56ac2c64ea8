"""True crash recovery: SIGKILL the serving process, restart, compare bitwise.

Each test spawns ``python -m repro serve --port 0 --state-dir TMP`` as a real
subprocess, drives it over HTTP, kills it with SIGKILL (no atexit, no flush —
the closest a test gets to a power cut), restarts over the same state
directory with ``--recover``, and asserts the durable state came back
bitwise: scenario ledgers, finished job results, share ids.  A job that was
still in flight at the kill must come back ``failed`` with the
``server_restart`` reason — never silently dropped, never hanging a poller.

Runs under both engine executors, since the process executor journals through
the same backend from a different worker topology.

Set ``REPRO_CRASH_ARTIFACT_DIR`` to copy each test's ``state.sqlite3`` there
(CI uploads the directory as an artifact when a leg fails).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
READY_TIMEOUT_S = 90.0
DRAIN_TIMEOUT_S = 10.0
DRIVER = "Open Marketing Email"

pytestmark = pytest.mark.parametrize("executor", ["thread", "process"])


class ServerProc:
    """One ``repro serve`` subprocess and its parsed base URL."""

    def __init__(self, state_dir: Path, *, executor: str, recover: bool = False):
        argv = [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "2",
            "--executor",
            executor,
            "--state-dir",
            str(state_dir),
        ]
        if recover:
            argv.append("--recover")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        # own process group: the kill must take out the engine's spawned
        # process-pool workers too — they inherit the stdout pipe, and a
        # surviving worker would block the EOF drain below forever
        self.proc = subprocess.Popen(
            argv,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self.lines: list[str] = []
        self.base_url = self._await_ready()

    def _await_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        "server exited before binding:\n" + "".join(self.lines)
                    )
                continue
            self.lines.append(line)
            if "listening on http://" in line:
                address = line.split("listening on ", 1)[1].split()[0]
                return address.rstrip("/")
        self.proc.kill()
        raise RuntimeError("server never printed its banner:\n" + "".join(self.lines))

    # ------------------------------------------------------------------ #
    def get(self, path: str, timeout: float = 60.0) -> tuple[int, dict]:
        request = urllib.request.Request(self.base_url + path)
        return self._fetch(request, timeout)

    def send(
        self, method: str, path: str, payload: dict, timeout: float = 60.0
    ) -> tuple[int, dict]:
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        return self._fetch(request, timeout)

    @staticmethod
    def _fetch(request, timeout: float) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    # ------------------------------------------------------------------ #
    def sigkill(self) -> None:
        """The crash: SIGKILL the whole group, no shutdown hooks, no WAL
        checkpoint, no surviving pool workers."""
        self._killpg(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self._killpg(signal.SIGKILL)  # reap any orphaned pool workers
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)
        self._drain_stdout()

    def _killpg(self, sig: int) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def _drain_stdout(self) -> None:
        stdout = self.proc.stdout
        if stdout is None:
            return
        # Every group member has been sent SIGKILL, but a pool worker can
        # still hold its copy of the pipe for a moment after the server is
        # reaped.  Poll non-blocking reads until EOF, bounded, so such a
        # straggler neither loses output nor hangs the test.
        os.set_blocking(stdout.fileno(), False)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while True:
            try:
                rest = stdout.read()
            except TypeError:
                # the text layer decoding the buffered reader's "no data
                # yet" (None): the pipe is open but empty, nothing consumed
                rest = None
            except (OSError, ValueError):
                break
            if rest == "" or time.monotonic() > deadline:
                break
            if rest:
                self.lines.extend(rest.splitlines(keepends=True))
            else:
                time.sleep(0.05)
        stdout.close()


@pytest.fixture
def state_dir(tmp_path):
    state = tmp_path / "state"
    state.mkdir()
    yield state
    artifact_dir = os.environ.get("REPRO_CRASH_ARTIFACT_DIR")
    if artifact_dir:
        target = Path(artifact_dir)
        target.mkdir(parents=True, exist_ok=True)
        for db in state.glob("*.sqlite3"):
            shutil.copy(db, target / f"{db.stem}-{db.stat().st_ino}.sqlite3")


def run_job(server: ServerProc, sid: str, params: dict) -> tuple[str, dict]:
    """Run one sensitivity job to completion; return its id and result
    envelope."""
    path = f"/api/v1/sessions/{sid}/jobs"
    status, submitted = server.send("POST", path, {"action": "sensitivity", "params": params})
    assert status == 201, submitted
    job_id = submitted["data"]["job"]["job_id"]
    status, result = server.get(f"{path}/{job_id}?result=1&wait=1&timeout_s=60")
    assert status == 200 and result["ok"], result
    return job_id, result


def populate(server: ServerProc, sid: str) -> dict:
    """Create a session, track two scenarios, finish one job; return the
    pre-crash observations the restarted server must reproduce bitwise."""
    status, created = server.send("POST", "/api/v1/sessions", {"session_id": sid})
    assert status == 201, created
    share_id = created["data"]["share_id"]
    status, loaded = server.send(
        "PUT",
        f"/api/v1/sessions/{sid}/dataset",
        {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": 80}, "random_state": 3},
    )
    assert status == 200 and loaded["ok"], loaded
    for pct in (10.0, 25.0):
        params = {"perturbations": {DRIVER: pct}, "track_as": f"email +{pct:g}%"}
        run_job(server, sid, params)

    job_id, result = run_job(server, sid, {"perturbations": {DRIVER: 33.0}})

    status, scenarios = server.get(f"/api/v1/sessions/{sid}/scenarios")
    assert status == 200, scenarios
    return {
        "share_id": share_id,
        "job_id": job_id,
        "job_result": result["data"]["result"],
        "scenarios": scenarios["data"],
    }


class TestSigkillRecovery:
    def test_state_survives_sigkill_bitwise(self, state_dir, executor):
        first = ServerProc(state_dir, executor=executor)
        try:
            sid = "s-crash"
            before = populate(first, sid)
            # leave a sweep in flight so the crash interrupts a real job; the
            # space is large enough that the kill always beats its completion
            status, inflight = first.send(
                "POST",
                f"/api/v1/sessions/{sid}/jobs",
                {
                    "action": "run_sweep",
                    "params": {
                        "space": {
                            "axes": [
                                {"driver": DRIVER, "start": -40, "stop": 40, "step": 1},
                                {"driver": "Call", "start": -40, "stop": 40, "step": 1},
                            ]
                        }
                    },
                },
            )
            assert status == 201 and inflight["ok"], inflight
            inflight_id = inflight["data"]["job"]["job_id"]
            first.sigkill()
        finally:
            first.stop()

        second = ServerProc(state_dir, executor=executor, recover=True)
        try:
            # the eagerly recovered session serves its ledger bitwise
            status, scenarios = second.get(f"/api/v1/sessions/{sid}/scenarios")
            assert status == 200, scenarios
            assert scenarios["data"] == before["scenarios"]

            # the finished job's result is reported verbatim
            status, result = second.get(
                f"/api/v1/sessions/{sid}/jobs/{before['job_id']}?result=1"
            )
            assert status == 200 and result["ok"], result
            assert result["data"]["result"] == before["job_result"]

            # the share id still resolves to the session
            status, resolved = second.get(
                f"/api/v1/sessions/share/{before['share_id']}"
            )
            assert status == 200, resolved
            assert resolved["data"]["session"]["session_id"] == sid

            # the job killed mid-flight is failed, not dropped or hanging
            status, interrupted = second.get(
                f"/api/v1/sessions/{sid}/jobs/{inflight_id}"
            )
            assert status == 200, interrupted
            assert interrupted["data"]["job"]["state"] == "failed"
            assert interrupted["data"]["job"]["error"] == "server_restart"

            # recovery counters surface through the persistence route
            status, persist = second.get("/api/v1/persistence")
            assert status == 200, persist
            assert persist["data"]["recovered_sessions"] >= 1
            assert persist["data"]["jobs"]["interrupted_total"] >= 1
            assert persist["data"]["persistence"]["kind"] == "sqlite"
        finally:
            second.stop()
        assert not any("Traceback" in line for line in second.lines), second.lines

    def test_lazy_recovery_without_recover_flag(self, state_dir, executor):
        first = ServerProc(state_dir, executor=executor)
        try:
            sid = "s-lazy"
            before = populate(first, sid)
            first.sigkill()
        finally:
            first.stop()

        second = ServerProc(state_dir, executor=executor)
        try:
            # first touch rebuilds the session transparently
            status, scenarios = second.get(f"/api/v1/sessions/{sid}/scenarios")
            assert status == 200, scenarios
            assert scenarios["data"] == before["scenarios"]
        finally:
            second.stop()
