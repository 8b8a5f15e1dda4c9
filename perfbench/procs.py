"""The IdP and the resource server as their own processes, via the shipped CLI.

Each server's stderr goes to a file (at the default `info` level the
resource server writes three lines per request, which would fill an
undrained pipe). Readiness and the access log are read from that file.
CPU time and peak RSS come from /proc/<pid>/. Stopping is SIGTERM, then
a bounded wait.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time

HOST = "127.0.0.1"
ISSUER_PATH = "/realms/master"
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
CLK_TCK = os.sysconf("SC_CLK_TCK")

ACCESS_LINE = re.compile(rb'"(GET|POST) (\S+) HTTP/1\.1" (\d{3})')


class StartFailure(Exception):
    pass


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def move_to_cpu(pid: int, cpu: int) -> None:
    """Run every thread of `pid` on `cpu`; threads started later inherit it."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended after the listing


class ServerProcess:
    def __init__(self, argv: list[str], log_path: str, env: dict[str, str], ready_marker: bytes):
        self.log_path = log_path
        self.ready_marker = ready_marker
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, env=env,
        )
        self._log_offset = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def ready(self) -> bool:
        with open(self.log_path, "rb") as fh:
            return self.ready_marker in fh.read()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5); the slice starts at field 3.
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise OSError(f"no VmHWM for pid {self.pid}")

    def access_log_since_mark(self) -> list[tuple[bytes, bytes, int]]:
        """Access-log entries (method, path, status) written since the last call."""
        with open(self.log_path, "rb") as fh:
            fh.seek(self._log_offset)
            data = fh.read()
        end = data.rfind(b"\n") + 1
        self._log_offset += end
        return [
            (m.group(1), m.group(2), int(m.group(3)))
            for m in ACCESS_LINE.finditer(data, 0, end)
        ]

    def stop(self) -> bool:
        """SIGTERM and wait; True when the process exited by itself with code 0."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                clean = False
        self._log.close()
        return clean and self.proc.returncode == 0


class Stack:
    """One IdP and one resource server on free loopback ports."""

    def __init__(self, workdir: str, src_dir: str, spans_dir: str | None = None):
        os.makedirs(workdir, exist_ok=True)
        self.audit_path = os.path.join(workdir, "audit.jsonl")
        if spans_dir is not None:
            os.makedirs(spans_dir, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("MCPIDG_")}
        env["PYTHONPATH"] = src_dir
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shim.py")
        idp_port, mcp_port = _free_port(), _free_port()
        self.issuer = f"http://{HOST}:{idp_port}{ISSUER_PATH}"
        self.mcp_url = f"http://{HOST}:{mcp_port}/mcp"
        self.mcp_port = mcp_port
        self.metadata_url = f"http://{HOST}:{mcp_port}/.well-known/oauth-protected-resource"

        def command(name: str, *cli_args: str) -> list[str]:
            if spans_dir is None:
                return [sys.executable, "-m", "mcpidg.cli", *cli_args]
            return [sys.executable, shim, os.path.join(spans_dir, f"{name}.json"), *cli_args]

        self.idp = ServerProcess(
            command("idp", "serve-idp", "--bind", f"{HOST}:{idp_port}",
                    "--audience", self.mcp_url),
            os.path.join(workdir, "idp.log"), env, b"identity provider ready",
        )
        self.mcp = ServerProcess(
            command("mcp", "serve-mcp", "--bind", f"{HOST}:{mcp_port}",
                    "--issuer", self.issuer, "--audit", self.audit_path),
            os.path.join(workdir, "mcp.log"), env, b"resource server ready",
        )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        pending = [self.idp, self.mcp]
        while pending:
            for server in list(pending):
                if server.ready():
                    pending.remove(server)
                elif server.proc.poll() is not None:
                    with open(server.log_path, "rb") as fh:
                        tail = fh.read()[-400:].decode(errors="replace")
                    raise StartFailure(f"server exited with {server.proc.returncode}: {tail}")
            if pending and time.monotonic() > deadline:
                raise StartFailure("servers not ready in time")
            if pending:
                time.sleep(0.002)

    def stop(self) -> bool:
        """Stop the resource server first (it may be fetching keys), then the IdP."""
        mcp_clean = self.mcp.stop()
        idp_clean = self.idp.stop()
        return mcp_clean and idp_clean
