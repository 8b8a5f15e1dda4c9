"""Minimal HTTP client on ``http.client`` with explicit redirect control.

The authorization-code flow needs to observe 302 responses instead of
following them, which urllib's default opener does not allow without
ceremony. Connections are persistent (RFC 9112 §9.3): each thread keeps
one open connection per (scheme, host, port), at most MAX_KEPT_PER_THREAD
of them, and sends its next request to that origin on it.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass, field
from urllib.parse import urlsplit

MAX_KEPT_PER_THREAD = 8


@dataclass
class HttpReply:
    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())

    def json(self):
        return json.loads(self.body.decode("utf-8"))


class _KeptConnections(dict):
    """One thread's idle connections, oldest use first."""

    def __del__(self) -> None:  # the owning thread has ended
        for conn in self.values():
            conn.close()


_local = threading.local()


def _exchange(conn, method, path, body, headers) -> http.client.HTTPResponse:
    conn.request(method, path, body=body, headers=dict(headers or {}))
    return conn.getresponse()


def request(
    method: str,
    url: str,
    headers: dict[str, str] | None = None,
    body: bytes | None = None,
    timeout: float = 10.0,
) -> HttpReply:
    """Issue one request and return the raw reply. Never follows redirects."""
    # An unusable URL fails like a transport error: callers catch OSError.
    try:
        parts = urlsplit(url)
        key = (parts.scheme, parts.hostname, parts.port)  # .port raises for a bad port
    except ValueError as exc:
        raise OSError(f"unusable URL {url!r}: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise OSError(f"unsupported URL scheme in {url!r}")
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    kept = _local.__dict__.setdefault("kept", _KeptConnections())
    conn = kept.pop(key, None)
    if conn is None:
        if parts.scheme == "http":
            conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
        else:
            conn = http.client.HTTPSConnection(parts.hostname, parts.port, timeout=timeout)
    conn.timeout = timeout
    reused = conn.sock is not None
    if reused:
        conn.sock.settimeout(timeout)
    try:
        try:
            resp = _exchange(conn, method, path, body, headers)
        except (ConnectionResetError, BrokenPipeError):
            # RemoteDisconnected included: the server closed an idle
            # connection before any status line, so retry once on a new one.
            if not reused:
                raise
            conn.close()
            resp = _exchange(conn, method, path, body, headers)
        payload = resp.read()
    except BaseException:
        conn.close()
        raise
    kept[key] = conn  # http.client reconnects by itself after Connection: close
    if len(kept) > MAX_KEPT_PER_THREAD:
        kept.pop(next(iter(kept))).close()
    reply_headers = {k.lower(): v for k, v in resp.getheaders()}
    return HttpReply(resp.status, resp.reason, reply_headers, payload)


def get(url: str, headers: dict[str, str] | None = None, timeout: float = 10.0) -> HttpReply:
    return request("GET", url, headers=headers, timeout=timeout)


def post(
    url: str,
    body: bytes,
    headers: dict[str, str] | None = None,
    timeout: float = 10.0,
) -> HttpReply:
    return request("POST", url, headers=headers, body=body, timeout=timeout)
