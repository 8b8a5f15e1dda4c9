"""The load generator's own HTTP/1.1 client.

One `Connection` per client thread. It keeps its socket open across
requests unless a reply says `Connection: close`, and it counts the TCP
connections it opens, so connection reuse on the server side is measured
rather than assumed. Plain loopback HTTP only; replies must carry a
Content-Length (every reply of the mcpidg servers does).
"""

from __future__ import annotations

import socket


class ProtocolViolation(Exception):
    """The server's reply is not a well-formed HTTP/1.1 response."""


class Reply:
    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers  # lower-cased names
        self.body = body


class Connection:
    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.opened = 0
        self._sock: socket.socket | None = None
        self._rfile = None
        self._host_header = f"Host: {host}:{port}\r\n".encode("ascii")

    def _open(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self.opened += 1

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = None
            self._rfile = None

    def request(self, method: str, path: str, headers: bytes, body: bytes = b"") -> Reply:
        """Send one request; `headers` holds complete CRLF-terminated lines."""
        head = b"".join((
            f"{method} {path} HTTP/1.1\r\n".encode("ascii"),
            self._host_header,
            headers,
            b"Content-Length: %d\r\n\r\n" % len(body),
        ))
        reused = self._sock is not None
        if not reused:
            self._open()
        try:
            self._sock.sendall(head + body)
            status_line = self._rfile.readline()
            if not status_line:
                raise ConnectionResetError("connection closed before a reply")
        except (ConnectionResetError, BrokenPipeError):
            self.close()
            if not reused:
                raise
            # The server dropped an idle kept-alive connection before reading
            # the request; retry once on a fresh connection.
            self._open()
            self._sock.sendall(head + body)
            status_line = self._rfile.readline()
        try:
            return self._read_reply(status_line)
        except BaseException:
            self.close()
            raise

    def _read_reply(self, status_line: bytes) -> Reply:
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise ProtocolViolation(f"bad status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = self._rfile.readline(65537)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ProtocolViolation("connection closed inside the header block")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise ProtocolViolation(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is None:
            raise ProtocolViolation("reply carries no Content-Length")
        body = self._rfile.read(int(length)) if length != "0" else b""
        if len(body) != int(length):
            raise ProtocolViolation("reply body shorter than its Content-Length")
        if headers.get("connection", "").lower() == "close":
            self.close()
        return Reply(status, headers, body)
