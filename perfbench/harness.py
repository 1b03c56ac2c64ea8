"""Server process control and the HTTP client the benchmark drives it with.

:class:`ServerProcess` starts ``python -m repro serve`` (or the traced
launcher) in its own process group on an ephemeral port, reads the port from
the startup line, sums the peak RSS of the whole process tree, and on
:meth:`~ServerProcess.stop` kills the group and verifies that nothing in it
survives.  :func:`request` is one HTTP/1.0 round trip on a fresh connection,
which is how the stdlib server serves every client.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def _process_groups() -> dict[int, tuple[str, int]]:
    """``pid -> (state, pgid)`` for every process visible in /proc."""
    table: dict[int, tuple[str, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (fields[0], int(fields[2]))
    return table


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One ``repro serve`` process group, from launch to verified teardown."""

    def __init__(self, command: list[str], *, log_path: Path, start_timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *command],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        try:
            self.host, self.port = self._read_address(start_timeout)
        except BaseException:
            self.stop()
            raise

    def _read_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.2):
                    if self.proc.poll() is not None:
                        break
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                match = _LISTENING.search(buffer.decode("utf-8", "replace"))
                if match:
                    return match.group(1), int(match.group(2))
        raise BenchError(
            f"server did not report its port (exit={self.proc.poll()}): "
            f"{buffer.decode('utf-8', 'replace')[-400:]} {self.log_tail()}"
        )

    def log_tail(self, limit: int = 1500) -> str:
        try:
            return self.log_path.read_text(encoding="utf-8", errors="replace")[-limit:]
        except OSError:
            return ""

    def members(self) -> list[int]:
        """Live (non-zombie) processes of the server's process group."""
        return [
            pid for pid, (state, pgid) in _process_groups().items()
            if pgid == self.pgid and state != "Z"
        ]

    def peak_rss_mb(self) -> float:
        """Sum of every group member's peak resident set (``VmHWM``)."""
        return sum(_vm_hwm_kb(pid) for pid in self.members()) / 1024.0

    def stop(self, *, graceful: float = 10.0) -> None:
        """Interrupt the server, then kill its whole group; raise if any
        member survives."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(graceful)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(10)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            deadline = time.monotonic() + 5.0
            survivors = self.members()
            while survivors and time.monotonic() < deadline:
                time.sleep(0.05)
                survivors = self.members()
            if survivors:
                raise BenchError(f"server process group {self.pgid} left survivors: {survivors}")
        finally:
            self._log.close()


def request(
    host: str, port: int, method: str, path: str, body: Any = None, *, timeout: float = 120.0
) -> tuple[int, dict[str, Any]]:
    """One JSON round trip; returns ``(status, decoded body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}
    finally:
        connection.close()
