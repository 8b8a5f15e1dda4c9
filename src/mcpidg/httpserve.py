"""The HTTP/1.1 serving layer shared by the resource server and the provider.

Each server answers GET and POST from its ``routes`` table, keyed by
(method, path) with the query removed. A route is called as
``route(query, headers, body)`` with lower-cased header names and returns
a Reply; an unknown path gets 404 before any body is read, and an
exception escaping a route is logged and answered 500.

The request head is parsed here (RFC 9112): a malformed or ambiguous one
gets 400, 505 from HTTP/2 on, and 431 past MAX_HEAD_BYTES or
MAX_HEADER_FIELDS. A body may hold at most MAX_BODY_BYTES, and a request,
head and body, must arrive within HEAD_TIMEOUT_S of its first byte. A head
sent in pieces too small for its size (see HEAD_FREE_READS) is dropped
unanswered, so the CPU a head costs is bounded by its bytes.
httpclient reads replies through the same Stream, so reply heads get the
same field parser and bounds.

Connections are persistent (RFC 9112 §9.3), each served by its own
thread. At MAX_CONNECTIONS a new connection ends the oldest one waiting
for a request, or gets 503 when every one is mid-request. A connection
that sends nothing for IDLE_TIMEOUT_S is closed. stop() lets in-flight
requests finish and ends idle connections at once.
"""

from __future__ import annotations

import logging
import re
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from typing import Callable

MAX_BODY_BYTES = 1 << 20
# A 53 KB Authorization header (a token with a deeply nested payload) must
# still reach the verifier and get its 401.
MAX_HEAD_BYTES = 64 << 10
MAX_HEADER_FIELDS = 100
MAX_CONNECTIONS = 64
IDLE_TIMEOUT_S = 30.0
HEAD_TIMEOUT_S = 10.0
# A head may take HEAD_FREE_READS socket reads, then one more per
# HEAD_BYTES_PER_READ bytes; one sent a byte at a time is dropped early.
HEAD_FREE_READS = 16
HEAD_BYTES_PER_READ = 32

_RECEIVE_BYTES = 64 << 10
_REASONS = {status.value: status.phrase for status in HTTPStatus}
BLANK_LINE = re.compile(rb"\n\r?\n")
TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 §5.6.2
_LATER_VERSION = re.compile(r"HTTP/[2-9](\.[0-9])?")
_SINGLETON_FIELDS = ("authorization", "host")  # which copy counts would be ambiguous


class BindFailure(Exception):
    pass


@dataclass
class Reply:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


Route = Callable[[str, dict[str, str], bytes], Reply]


def remaining(deadline: float) -> float:
    """The seconds left until a time.monotonic() deadline; TimeoutError once none are."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("message not complete within its deadline")
    return left


class Stream:
    """A socket and the bytes received on it that nothing has consumed yet.

    Both directions read through one: the server its requests, httpclient
    its replies. Every wait ends at the deadline it is given.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def receive(self, deadline: float) -> bool:
        """Append what arrives next, waiting until the deadline; False at end of stream."""
        self.sock.settimeout(remaining(deadline))
        chunk = self.sock.recv(_RECEIVE_BYTES)
        self.buffer += chunk
        return bool(chunk)

    def receive_until(self, size: int, deadline: float) -> None:
        """Receive until at least ``size`` bytes are buffered."""
        while len(self.buffer) < size:
            if not self.receive(deadline):
                raise OSError("connection closed inside a message")

    def take(self, size: int) -> bytes:
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data

    def head(self, deadline: float) -> bytes | None:
        """The next head through its blank line; None past MAX_HEAD_BYTES.

        OSError at end of stream, and once the head has taken more reads
        than its bytes allow: HEAD_FREE_READS, then one per
        HEAD_BYTES_PER_READ. So a head sent a byte at a time costs little CPU.
        """
        searched = reads = 0
        # Only the last two bytes searched can start the blank line.
        while (blank := BLANK_LINE.search(self.buffer, max(searched - 2, 0))) is None:
            if len(self.buffer) > MAX_HEAD_BYTES:
                return None
            searched, reads = len(self.buffer), reads + 1
            if not self.receive(deadline):
                raise OSError("connection closed inside a head")
            if reads > HEAD_FREE_READS + len(self.buffer) // HEAD_BYTES_PER_READ:
                raise OSError("head sent in pieces too small for its size")
        return None if blank.end() > MAX_HEAD_BYTES else self.take(blank.end())


def head_lines(head: bytes | bytearray) -> list[str] | None:
    """A head's lines without their line endings; None for a bare CR or a NUL."""
    # Empty lines before the start line are ignored (RFC 9112 §2.2).
    text = head.decode("latin-1").replace("\r\n", "\n").lstrip("\n")
    if "\r" in text or "\0" in text:
        return None
    return text[:-2].split("\n")


def parse_fields(lines: list[str], singletons: tuple[str, ...] = ()) -> dict[str, str] | int:
    """Header field lines by lower-cased name, or the status refusing them: 400 or 431.

    A repeated field is joined with ", " (RFC 9110 §5.3), except that a
    repeated name in ``singletons`` is refused.
    """
    if len(lines) > MAX_HEADER_FIELDS:
        return 431
    headers: dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon or not TOKEN.fullmatch(name):
            return 400  # also whitespace before the colon, or obs-fold
        name = name.lower()
        value = value.strip(" \t")
        if name in headers:
            if name in singletons:
                return 400
            value = f"{headers[name]}, {value}"
        headers[name] = value
    return headers


def content_length(value: str) -> int:
    """The length a Content-Length value gives, or -1 for a malformed one.

    Repeated fields arrive joined by ", ": identical copies give one
    length (RFC 9110 §8.6), differing copies are malformed.
    """
    lengths = set(value.split(", "))
    length = lengths.pop()
    if lengths or not (length.isascii() and length.isdigit() and len(length) < 20):
        return -1
    return int(length)


def closes_connection(version: str, headers: dict[str, str]) -> bool:
    """Whether a message ends its connection (RFC 9112 §9.3)."""
    connection = headers.get("connection", "").lower()
    return "close" in connection or (version == "HTTP/1.0" and "keep-alive" not in connection)


def parse_request(head: bytes | None) -> tuple[int, str, str, str, dict[str, str]]:
    """A request head's (status, method, target, version, headers).

    The status is 0 for a usable head; otherwise it refuses the head: 431
    for None (past MAX_HEAD_BYTES) or too many fields, 400 for a malformed
    or ambiguous one, 505 from HTTP/2 on. Method and target stay "-" until
    the request line has been read.
    """
    if head is None:
        return 431, "-", "-", "", {}
    lines = head_lines(head)
    parts = lines[0].split(" ") if lines is not None else []
    if len(parts) != 3 or not TOKEN.fullmatch(parts[0]) or not parts[1]:
        return 400, "-", "-", "", {}
    method, target, version = parts
    if target.startswith("//"):
        target = "/" + target.lstrip("/")  # "//host/x" could read as a scheme-relative URL
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        return 505 if _LATER_VERSION.fullmatch(version) else 400, method, target, version, {}
    headers = parse_fields(lines[1:], _SINGLETON_FIELDS)
    if isinstance(headers, int):
        return headers, method, target, version, {}
    return 0, method, target, version, headers


def _end_reading(connection: socket.socket) -> None:
    """A handler waiting for its next request reads end-of-stream at once."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the peer has already gone


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The IMF-fixdate of a whole second, formatted once per second."""
    return formatdate(second, usegmt=True)


def _response(reply: Reply, close: bool) -> bytes:
    head = [f"HTTP/1.1 {reply.status} {_REASONS.get(reply.status, '')}",
            f"Date: {_http_date(int(time.time()))}"]
    head += [f"{name}: {value}" for name, value in reply.headers.items()]
    head.append(f"Content-Length: {len(reply.body)}")
    if close:
        head.append("Connection: close")
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + reply.body


class HttpServer(socketserver.ThreadingTCPServer):
    """A server bound at construction; start() serves it from a thread.

    Each connection is served by finish_request on a thread of its own.
    """

    allow_reuse_address = True

    def __init__(self, bind_address: str, log: logging.Logger):
        self.log = log
        self.routes: dict[tuple[str, str], Route] = {}
        self.stopping = False
        # Each open connection, oldest first: True while it waits for a request.
        self._connections: dict[socket.socket, bool] = {}
        self._connections_lock = threading.Lock()
        self._thread: threading.Thread | None = None  # set by start()
        # Kept as given: "localhost" stays "localhost" in the URLs built on it.
        self.host, _, port = bind_address.rpartition(":")
        try:
            # No handler class: finish_request, its only reader, is overridden.
            super().__init__((self.host, int(port)), None)
        except (OSError, ValueError, OverflowError) as exc:
            raise BindFailure(f"cannot bind {bind_address!r}: {exc}") from exc

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def origin(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, thread_name: str) -> None:
        self._thread = threading.Thread(
            target=lambda: self.serve_forever(poll_interval=0.05),
            name=thread_name,
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Finish in-flight requests (their threads are joined), end idle
        connections, close the listener. A server never started just closes it."""
        if self._thread is not None:
            self.shutdown()  # waits for serve_forever, so it would block forever unstarted
            self._thread.join(timeout=10)
        self.stopping = True
        with self._connections_lock:
            for connection in self._connections:
                _end_reading(connection)  # a busy handler still replies
        self.server_close()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def mark(self, connection: socket.socket, waiting: bool) -> bool:
        """Record whether a connection waits for a request; False once it was ended for room."""
        with self._connections_lock:
            if connection in self._connections:
                self._connections[connection] = waiting
                return True
            return False

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            if len(self._connections) >= MAX_CONNECTIONS:
                # A silent or idle peer must not lock others out: end one.
                idle = next((c for c, waiting in self._connections.items() if waiting), None)
                if idle is not None:
                    del self._connections[idle]
                    _end_reading(idle)
            full = len(self._connections) >= MAX_CONNECTIONS
            if not full:
                self._connections[request] = True
        if not full:
            super().process_request(request, client_address)
            return
        # Refused from the listener's thread: a server busy on every connection starts none.
        self.log.warning("connection from %s refused: %d busy", client_address[0], MAX_CONNECTIONS)
        request.sendall(_response(Reply(503, {"Retry-After": "1"}), close=True))
        self.shutdown_request(request)  # should sendall raise, socketserver still closes it

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A peer that went before its handler started is routine, not a traceback.
        self.log.debug("connection error from %s", client_address, exc_info=True)

    def finish_request(self, connection: socket.socket, client_address) -> None:
        """Parses each request head, routes it, reads bounded bodies, replies in one write."""
        # A reply that follows a 100 Continue, or the tail of a large one, would
        # otherwise wait for the peer's delayed ACK (Nagle's algorithm, ~40 ms).
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = Stream(connection)  # keeps pipelined bytes for the next request
        try:
            while self._serve_one(stream) and self.mark(connection, waiting=True):
                pass
        except OSError:
            pass  # the peer went, sent nothing for IDLE_TIMEOUT_S, or broke a request's bounds

    def _serve_one(self, stream: Stream) -> bool:
        """Read and answer one request; False once the connection is to close."""
        if not stream.buffer and not stream.receive(time.monotonic() + IDLE_TIMEOUT_S):
            return False
        deadline = time.monotonic() + HEAD_TIMEOUT_S  # from the request's first byte
        head = stream.head(deadline)
        if not self.mark(stream.sock, waiting=False):
            return False
        status, method, target, version, headers = parse_request(head)
        path, _, query = target.partition("?")
        if status:
            self.send(stream.sock, method, path, Reply(status), close=True)
            return False
        # The body's framing is decided here. Only a routed POST reads its
        # body; one left unread would be parsed as the next request, so its
        # reply closes the connection (RFC 9112 §6.3, §9.3).
        length = content_length(headers.get("content-length", "0"))
        refusal = (
            411 if "transfer-encoding" in headers  # only Content-Length framing is read
            else 400 if length < 0
            else 413 if length > MAX_BODY_BYTES
            else 0
        )
        unread = bool(refusal or length)
        route = self.routes.get((method, path))
        if route is None:
            reply = Reply(404 if method in ("GET", "POST") else 501)
        elif method == "POST" and refusal:
            reply = Reply(refusal)
        else:
            body = b""
            if method == "POST":
                if headers.get("expect", "").lower() == "100-continue" and version == "HTTP/1.1":
                    stream.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
                stream.receive_until(length, deadline)
                body, unread = stream.take(length), False
            try:
                reply = route(query, headers, body)
            except Exception:
                self.log.exception("unhandled server error")
                reply = Reply(500)
        close = unread or closes_connection(version, headers) or self.stopping
        self.send(stream.sock, method, path, reply, close)
        return not close

    def send(
        self, connection: socket.socket, method: str, path: str, reply: Reply, close: bool
    ) -> None:
        """Send one complete response and write its access-log line.

        The line carries the path without its query, which may hold a
        credential (RFC 6750 §5.3). It is logged before the reply is
        sent, so a client holding its reply can already find the line.
        """
        reason = _REASONS.get(reply.status, "")
        # Formatted here: a record without args is not formatted again.
        self.log.info(f'"{method} {path} HTTP/1.1" {reply.status} {reason}')
        connection.sendall(_response(reply, close))
