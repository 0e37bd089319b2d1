"""A ``python -m repro serve`` subprocess and a minimal HTTP client.

The server is started with ``--port 0`` (and ``--journal-dir`` for the
session workload) and nothing else, so the service runs with its
defaults: worker count, batch window, fsync policy.  The client is the
benchmark's own ``http.client`` wrapper rather than the package's
``ServiceClient``, so a change to the package cannot change the load
generator.
"""

from __future__ import annotations

import http.client
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from checks import decode

PORT_RE = re.compile(rb"scheduling service on [\d.]+:(\d+)")
START_TIMEOUT_S = 120.0


class Connection:
    """One keep-alive connection.  ``request`` returns ``(status, raw
    body)``, or ``(None, None)`` when the connection dropped; the next
    request then reconnects."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[Optional[int], Optional[bytes]]:
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout)
                self._conn.connect()
                self._conn.sock.setsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY, 1)
            headers = {"Content-Type": "application/json"} if body else {}
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            return None, None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Server:
    """One ``repro serve`` process, its log file and its port."""

    def __init__(self, root: Path, log_path: Path,
                 journal_dir: Optional[Path] = None) -> None:
        self.root = root
        self.log_path = log_path
        self.journal_dir = journal_dir
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def command(self) -> List[str]:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.journal_dir is not None:
            cmd += ["--journal-dir", str(self.journal_dir)]
        return cmd

    def start(self) -> float:
        """Spawn and wait for the first ``/healthz`` 200; returns the
        seconds that took (spawn included)."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   PYTHONUNBUFFERED="1")
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            t0 = time.perf_counter()
            self.process = subprocess.Popen(
                self.command(), cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        deadline = t0 + START_TIMEOUT_S
        while self.port is None:
            match = PORT_RE.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            self._check_alive(deadline)
            time.sleep(0.002)
        probe = Connection(self.port, timeout=5.0)
        try:
            while probe.request("GET", "/healthz")[0] != 200:
                self._check_alive(deadline)
                time.sleep(0.002)
        finally:
            probe.close()
        return time.perf_counter() - t0

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"repro serve exited with code "
                               f"{self.process.returncode}; see "
                               f"{self.log_path}")
        if time.perf_counter() > deadline:
            self.kill()
            raise RuntimeError(f"repro serve not healthy after "
                               f"{START_TIMEOUT_S:.0f} s")

    def stats(self) -> Optional[dict]:
        conn = Connection(self.port)
        try:
            status, raw = conn.request("GET", "/stats")
        finally:
            conn.close()
        return decode(raw) if status == 200 else None

    def kill(self) -> None:
        """SIGKILL (a crash: no drain, no flush) and reap."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        if self.process is not None:
            self.process.wait()
        self.port = None

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain); SIGKILL after 30 s.  Returns the
        exit code of the drain, or None if it had to be killed."""
        if self.process is None or self.process.poll() is not None:
            return None if self.process is None else self.process.returncode
        self.process.terminate()
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        finally:
            self.port = None
