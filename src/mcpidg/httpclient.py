"""Minimal HTTP/1.1 client on plain sockets, with explicit redirect control.

The authorization-code flow needs to observe 302 responses instead of
following them, so redirects are never followed. Connections are
persistent (RFC 9112 §9.3): each thread keeps one open connection per
(scheme, host, port), at most MAX_KEPT_PER_THREAD of them, and sends its
next request to that origin on it. If a kept connection turns out closed
before any reply, the request is sent once more on a new one.

Each request, head and body, goes out in one write. ``timeout`` bounds the
whole exchange: connect, send and the reply, head and body. The reply is
read through httpserve.Stream, so its head has the server's bounds:
MAX_HEAD_BYTES, MAX_HEADER_FIELDS and the reads its bytes allow. Its body
is framed as RFC 9112 §6.3 says (none, chunked, Content-Length or to the
close) within MAX_BODY_BYTES. A reply past a bound, malformed or late
raises OSError, as a transport error does.
"""

from __future__ import annotations

import re
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from . import protocol
from .httpserve import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    TOKEN,
    Stream,
    closes_connection,
    content_length,
    head_lines,
    parse_fields,
    remaining,
)

MAX_KEPT_PER_THREAD = 8

_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")  # would split or end the request line
_UNSAFE_VALUE = re.compile(r"[\r\n\0]")  # would start another field
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,8}")


@dataclass
class HttpReply:
    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())

    def json(self):
        """The body as one RFC 8259 JSON document; raises protocol.ParseError."""
        return protocol.parse_json(self.body)


class _KeptConnections(dict):
    """One thread's idle connections, oldest use first."""

    def __del__(self) -> None:  # the owning thread has ended
        for conn in self.values():
            conn.close()


_local = threading.local()


def _connect(scheme: str, host: str, port: int | None, deadline: float) -> Stream:
    port = port or (443 if scheme == "https" else 80)
    sock = socket.create_connection((host, port), timeout=remaining(deadline))
    try:
        # A request longer than one segment must not wait for a delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if scheme == "https":
            sock.settimeout(remaining(deadline))
            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
    except BaseException:
        sock.close()
        raise
    return Stream(sock)


def _request_bytes(
    method: str, target: str, host: str, headers: dict[str, str] | None, body: bytes | None
) -> bytes:
    if not TOKEN.fullmatch(method) or _UNSAFE_TARGET.search(target + host):
        raise OSError(f"cannot send {method!r} {target!r} to {host!r}")
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}", "Accept-Encoding: identity"]
    for name, value in (headers or {}).items():
        if not TOKEN.fullmatch(name) or _UNSAFE_VALUE.search(value):
            raise OSError(f"cannot send the header field {name!r}")
        lines.append(f"{name}: {value}")
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    try:
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + (body or b"")
    except UnicodeEncodeError as exc:
        raise OSError(f"cannot send the request head: {exc}") from exc


def _send(conn: Stream, message: bytes, deadline: float) -> None:
    """Send the request and wait for the first byte of its reply."""
    conn.sock.settimeout(remaining(deadline))
    conn.sock.sendall(message)
    if not conn.receive(deadline):
        raise ConnectionResetError("connection closed before any reply")


def _read_head(conn: Stream, deadline: float) -> tuple[str, int, str, dict[str, str]]:
    """The next reply head: its version, status, reason and header fields."""
    head = conn.head(deadline)
    if head is None:
        raise OSError("reply head over MAX_HEAD_BYTES")
    lines = head_lines(head)
    if lines is None:
        raise OSError("reply head holds a bare CR or a NUL")
    version, _, rest = lines[0].partition(" ")
    code, _, reason = rest.partition(" ")
    if version not in ("HTTP/1.1", "HTTP/1.0") or not (code.isascii() and code.isdigit()):
        raise OSError(f"malformed status line {lines[0][:80]!r}")
    headers = parse_fields(lines[1:])
    if isinstance(headers, int) or len(code) != 3:
        raise OSError(f"malformed reply head: {lines[0][:80]!r}")
    return version, int(code), reason, headers


def _line(conn: Stream, deadline: float) -> bytes:
    """The next line without its line ending, at most MAX_HEAD_BYTES long."""
    searched = 0
    while (end := conn.buffer.find(b"\n", searched)) < 0:
        if len(conn.buffer) > MAX_HEAD_BYTES:
            raise OSError("reply line over MAX_HEAD_BYTES")
        searched = len(conn.buffer)
        conn.receive_until(searched + 1, deadline)
    return conn.take(end + 1)[:-1].removesuffix(b"\r")


def _read_chunked(conn: Stream, deadline: float) -> bytes:
    """A chunked body (RFC 9112 §7.1); extensions and trailer fields are skipped."""
    body = bytearray()
    while True:
        size_text = _line(conn, deadline).partition(b";")[0].rstrip(b" \t")
        if not _CHUNK_SIZE.fullmatch(size_text):
            raise OSError(f"bad chunk size {size_text[:80]!r}")
        size = int(size_text, 16)
        if size == 0:
            break
        if len(body) + size > MAX_BODY_BYTES:
            raise OSError("reply body over MAX_BODY_BYTES")
        conn.receive_until(size, deadline)
        body += conn.take(size)
        if _line(conn, deadline):
            raise OSError("chunk data longer than its size")
    trailer = 0
    while line := _line(conn, deadline):
        trailer += len(line)
        if trailer > MAX_HEAD_BYTES:
            raise OSError("reply trailer over MAX_HEAD_BYTES")
    return bytes(body)


def _read_to_close(conn: Stream, deadline: float) -> bytes:
    while len(conn.buffer) <= MAX_BODY_BYTES:
        if not conn.receive(deadline):
            return conn.take(len(conn.buffer))
    raise OSError("reply body over MAX_BODY_BYTES")


def _read_reply(conn: Stream, method: str, deadline: float) -> tuple[HttpReply, bool]:
    """The final reply to a request, and whether its connection may be kept (RFC 9112 §6.3)."""
    version, status, reason, headers = _read_head(conn, deadline)
    while 100 <= status < 200:  # interim replies, such as 103 Early Hints
        version, status, reason, headers = _read_head(conn, deadline)
    keep = not closes_connection(version, headers)
    if method == "HEAD" or status in (204, 304):
        body = b""
    elif "transfer-encoding" in headers:
        if "content-length" in headers:
            raise OSError("reply framed by both Transfer-Encoding and Content-Length")
        if headers["transfer-encoding"].lower().rpartition(",")[2].strip(" \t") == "chunked":
            body = _read_chunked(conn, deadline)
        else:
            body, keep = _read_to_close(conn, deadline), False
    elif "content-length" in headers:
        length = content_length(headers["content-length"])
        if length < 0:
            raise OSError(f"bad Content-Length {headers['content-length'][:80]!r}")
        if length > MAX_BODY_BYTES:
            raise OSError(f"reply body of {length} bytes over MAX_BODY_BYTES")
        conn.receive_until(length, deadline)
        body = conn.take(length)
    else:
        body, keep = _read_to_close(conn, deadline), False
    # Bytes past the reply would be read as the next one.
    return HttpReply(status, reason, headers, body), keep and not conn.buffer


def request(
    method: str,
    url: str,
    headers: dict[str, str] | None = None,
    body: bytes | None = None,
    timeout: float = 10.0,
) -> HttpReply:
    """Issue one request and return the raw reply. Never follows redirects.

    ``timeout`` bounds the whole exchange; past it TimeoutError is raised.
    """
    deadline = time.monotonic() + timeout
    # An unusable URL fails like a transport error: callers catch OSError.
    try:
        parts = urlsplit(url)
        scheme, host, port = parts.scheme, parts.hostname, parts.port  # .port raises for a bad port
    except ValueError as exc:
        raise OSError(f"unusable URL {url!r}: {exc}") from exc
    if scheme not in ("http", "https") or not host:
        raise OSError(f"unsupported URL {url!r}")
    target = parts.path or "/"
    if parts.query:
        target = f"{target}?{parts.query}"
    message = _request_bytes(method, target, parts.netloc.rpartition("@")[2], headers, body)
    key = (scheme, host, port)
    kept = _local.__dict__.setdefault("kept", _KeptConnections())
    conn = kept.pop(key, None)
    reused = conn is not None
    try:
        if conn is None:
            conn = _connect(scheme, host, port, deadline)
        try:
            _send(conn, message, deadline)
        except ConnectionError:
            # The server closed the idle connection before any reply: retry once on a new one.
            if not reused:
                raise
            conn.close()
            conn = _connect(scheme, host, port, deadline)
            _send(conn, message, deadline)
        reply, keep = _read_reply(conn, method, deadline)
    except BaseException:
        if conn is not None:
            conn.close()
        raise
    if not keep:
        conn.close()
        return reply
    kept[key] = conn
    if len(kept) > MAX_KEPT_PER_THREAD:
        kept.pop(next(iter(kept))).close()
    return reply


def get(url: str, headers: dict[str, str] | None = None, timeout: float = 10.0) -> HttpReply:
    return request("GET", url, headers=headers, timeout=timeout)


def post(
    url: str,
    body: bytes,
    headers: dict[str, str] | None = None,
    timeout: float = 10.0,
) -> HttpReply:
    return request("POST", url, headers=headers, body=body, timeout=timeout)
