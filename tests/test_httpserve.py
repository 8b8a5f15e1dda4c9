"""The shared serving layer at the HTTP level: keep-alive, framing, limits, stop.

Every test speaks raw HTTP/1.1 over a socket, so what is checked is what
goes over the wire, not what a client library makes of it.
"""

from __future__ import annotations

import http.client
import logging
import socket
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

import pytest

from mcpidg import httpclient, httpserve
from mcpidg.idp import MockIdp
from mcpidg.server import McpApp
from mcpidg.stack import start_stack


@dataclass
class Target:
    port: int
    get_path: str  # answers 200 to a bodiless GET
    post_path: str  # reads a request body


@pytest.fixture(params=["server", "idp"])
def target(request, stack) -> Target:
    if request.param == "server":
        return Target(stack.server.port, "/.well-known/oauth-protected-resource", "/mcp")
    prefix = urlsplit(stack.issuer).path
    return Target(stack.idp.port, f"{prefix}/.well-known/openid-configuration", f"{prefix}/token")


def connect(port: int) -> tuple[socket.socket, object]:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock, sock.makefile("rb")


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()


def read_reply(rfile) -> tuple[int, dict[str, str], bytes] | None:
    """One reply, or None when the server closed the connection instead."""
    status_line = rfile.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = rfile.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def kept_alive_exchange(sock, rfile, target: Target) -> None:
    sock.sendall(get(target.get_path))
    status, headers, _ = read_reply(rfile)
    assert status == 200
    assert headers.get("connection", "").lower() != "close"


def test_two_requests_on_one_socket_get_two_replies(target):
    sock, rfile = connect(target.port)
    with sock, rfile:
        for _ in range(2):
            kept_alive_exchange(sock, rfile, target)


SMUGGLED = get("/smuggled")


@pytest.mark.parametrize(
    "head, body, status",
    [
        ("POST /nope HTTP/1.1\r\nContent-Length: {n}\r\n", SMUGGLED, 404),
        ("POST {post} HTTP/1.1\r\nContent-Length: abc\r\n", SMUGGLED, 400),
        ("POST {post} HTTP/1.1\r\nContent-Length: -5\r\n", SMUGGLED, 400),
        ("POST {post} HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n", SMUGGLED, 400),
        ("POST {post} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
         b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED), 411),
    ],
    ids=["unknown-path", "bad-length", "negative-length", "two-lengths", "chunked"],
)
def test_reply_without_reading_the_body_closes_the_connection(target, head, body, status):
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        request_head = head.format(n=len(body), post=target.post_path)
        sock.sendall(f"{request_head}Host: t\r\n\r\n".encode() + body)
        got, headers, _ = read_reply(rfile)
        assert got == status
        assert headers["connection"].lower() == "close"
        assert read_reply(rfile) is None  # no reply to the unread bytes


def test_oversized_content_length_gets_413(target):
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        sock.sendall(
            f"POST {target.post_path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {httpserve.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        status, headers, _ = read_reply(rfile)
        assert status == 413
        assert headers["connection"].lower() == "close"


def test_interim_100_continue_is_not_held_back(target):
    body = b"grant_type=none"
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(
            f"POST {target.post_path} HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        sock.settimeout(0.5)
        status, _, _ = read_reply(rfile)
        assert status == 100
        sock.sendall(body)
        status, _, _ = read_reply(rfile)
        assert status in (400, 401)


def test_fifty_sequential_kept_alive_requests_are_not_stalled(target):
    # A reply sent as two writes waits for the peer's delayed ACK of the
    # first (about 40 ms each), which would take 50 requests past 2 s.
    sock, rfile = connect(target.port)
    with sock, rfile:
        started = time.perf_counter()
        for _ in range(50):
            sock.sendall(get(target.get_path))
            assert read_reply(rfile)[0] == 200
        elapsed = time.perf_counter() - started
    assert elapsed < 1.0


def test_query_string_never_reaches_the_log(target, caplog):
    caplog.set_level(logging.DEBUG)
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(get(f"{target.get_path}?access_token=SECRET"))
        status, _, _ = read_reply(rfile)
    assert caplog.records
    assert "SECRET" not in caplog.text
    assert status == 200  # routes match the path without its query


def test_route_that_raises_gets_500_and_the_connection_serves_on(
    target, stack, monkeypatch, caplog
):
    def broken(*args):
        raise RuntimeError("route failed")

    if target.port == stack.server.port:
        monkeypatch.setattr(McpApp, "handle_mcp_post", broken)
        request = f"POST {target.post_path} HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{{}}".encode()
    else:
        monkeypatch.setattr(MockIdp, "jwks_document", broken)
        request = get(f"{urlsplit(stack.issuer).path}/jwks")
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(request)
        status, headers, _ = read_reply(rfile)
        assert status == 500
        assert headers.get("connection", "").lower() != "close"
        kept_alive_exchange(sock, rfile, target)
    failures = [r for r in caplog.records if r.getMessage() == "unhandled server error"]
    assert len(failures) == 1
    assert failures[0].exc_info is not None


def test_stop_ends_idle_kept_alive_connections(tmp_path):
    local = start_stack(audit_path=str(tmp_path / "audit.jsonl"))
    try:
        prefix = urlsplit(local.issuer).path
        for handle, path in (
            (local.server, "/.well-known/oauth-protected-resource"),
            (local.idp, f"{prefix}/jwks"),
        ):
            sock, rfile = connect(handle.port)
            with sock, rfile:
                kept_alive_exchange(sock, rfile, Target(handle.port, path, path))
                started = time.monotonic()
                handle.stop()
                assert time.monotonic() - started < 2.0
                assert read_reply(rfile) is None
    finally:
        local.stop()


def test_idle_connection_closed_after_the_timeout(monkeypatch, stack):
    monkeypatch.setattr(httpserve.Handler, "timeout", 0.2)
    target = Target(stack.server.port, "/.well-known/oauth-protected-resource", "/mcp")
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        started = time.monotonic()
        assert read_reply(rfile) is None
        assert time.monotonic() - started < 2.0


@pytest.fixture
def connects(monkeypatch) -> list[int]:
    """Counts the TCP connections http.client opens."""
    opened: list[int] = []
    real_connect = http.client.HTTPConnection.connect

    def connect(self):
        opened.append(self.port)
        real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return opened


def test_client_reuses_one_connection_per_origin(stack, connects):
    metadata = stack.server.app.metadata_url
    jwks = f"{stack.issuer}/jwks"
    for _ in range(10):
        assert httpclient.get(metadata).status == 200
        assert httpclient.get(jwks).status == 200
    assert sorted(connects) == sorted([stack.server.port, stack.idp.port])


def test_client_retries_once_when_the_server_dropped_an_idle_connection(
    monkeypatch, stack, connects
):
    monkeypatch.setattr(httpserve.Handler, "timeout", 0.1)
    metadata = stack.server.app.metadata_url
    assert httpclient.get(metadata).status == 200
    time.sleep(0.5)  # the server closes the idle connection meanwhile
    assert httpclient.get(metadata).status == 200
    assert len(connects) == 2
