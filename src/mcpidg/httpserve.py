"""The HTTP/1.1 serving layer shared by the resource server and the provider.

Each server answers GET and POST from its ``routes`` table, keyed by
(method, path) with the query removed. A route is called as
``route(query, headers, body)`` with lower-cased header names and returns
a Reply; an unknown path gets 404 before any body is read, and an
exception escaping a route is logged and answered 500.

Connections are persistent (RFC 9112 §9.3), each served by its own
thread. A request body may hold at most MAX_BODY_BYTES, and a connection
that sends nothing for IDLE_TIMEOUT_S is closed. stop() lets in-flight
requests finish and ends idle connections at once.
"""

from __future__ import annotations

import logging
import socket
import threading
from dataclasses import dataclass, field
from http import client as http_client_mod
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

MAX_BODY_BYTES = 1 << 20
IDLE_TIMEOUT_S = 30.0


class BindFailure(Exception):
    pass


@dataclass
class Reply:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


Route = Callable[[str, dict[str, str], bytes], Reply]


class HttpServer(ThreadingHTTPServer):
    """A server bound at construction; start() serves it from a thread."""

    daemon_threads = False  # graceful stop waits for in-flight requests
    block_on_close = True

    def __init__(self, bind_address: str, log: logging.Logger):
        self.log = log
        self.routes: dict[tuple[str, str], Route] = {}
        self.stopping = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        host, _, port = bind_address.rpartition(":")
        try:
            super().__init__((host, int(port)), Handler)
        except OSError as exc:
            raise BindFailure(f"cannot bind {bind_address!r}: {exc}") from exc

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self, thread_name: str) -> None:
        self._thread = threading.Thread(
            target=lambda: self.serve_forever(poll_interval=0.05),
            name=thread_name,
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Finish in-flight requests, end idle connections, close the listener."""
        self.shutdown()
        self.stopping = True
        with self._connections_lock:
            for connection in self._connections:
                try:
                    # A handler waiting for its next request reads
                    # end-of-stream at once; a busy one still replies.
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer has already gone
        self.server_close()
        self._thread.join(timeout=10)

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # Client disconnects mid-response are routine, not tracebacks.
        self.log.debug("connection error from %s", client_address, exc_info=True)


class Handler(BaseHTTPRequestHandler):
    """Routes each request, reads bounded bodies, sends each reply in one write."""

    server: HttpServer
    server_version = "mcpidg"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # The reply is buffered and handle_one_request flushes it in one write.
    # Sent as two writes, header block then body, the body waited for the
    # client's delayed ACK of the header (Nagle's algorithm, about 40 ms per
    # reply). No-delay covers a reply too large for the buffer.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # replaced by the access-log line in send()

    def _dispatch(self) -> None:
        path, _, query = self.path.partition("?")
        route = self.server.routes.get((self.command, path))
        if route is None:
            self.send(Reply(404))
            return
        body = b""
        if self.command == "POST":
            body = self.read_body()
            if body is None:
                return
        headers = {k.lower(): v for k, v in self.headers.items()}
        try:
            reply = route(query, headers, body)
        except Exception:
            self.server.log.exception("unhandled server error")
            reply = Reply(500)
        self.send(reply)

    do_GET = do_POST = _dispatch

    def parse_request(self) -> bool:
        parsed = super().parse_request()
        self._body_pending = parsed and (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0").strip() != "0"
        )
        return parsed

    def handle_expect_100(self) -> bool:
        # The interim reply must not wait in the buffer for the final one.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def read_body(self) -> bytes | None:
        """The request body, or None once an error reply has been sent."""
        if "Transfer-Encoding" in self.headers:
            self.send(Reply(411))  # only Content-Length framing is read
            return None
        lengths = self.headers.get_all("Content-Length", ["0"])
        try:
            length = int(lengths[0]) if len(lengths) == 1 else -1
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.send(Reply(400 if length < 0 else 413))
            return None
        self._body_pending = False
        return self.rfile.read(length)

    def send(self, reply: Reply) -> None:
        """Send one complete response and write its access-log line.

        The line carries the path without its query, which may hold a
        credential (RFC 6750 §5.3). It is logged before the reply is
        flushed, so a client holding its reply can already find the line.
        A request body left unread would be parsed as the next request, so
        such a reply closes the connection, as does every reply once the
        server is stopping.
        """
        path = self.path.partition("?")[0]
        reason = http_client_mod.responses.get(reply.status, "")
        self.server.log.info('"%s %s HTTP/1.1" %d %s', self.command, path, reply.status, reason)
        self.send_response(reply.status)
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply.body)))
        if self._body_pending or self.server.stopping:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(reply.body)
