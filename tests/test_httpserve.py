"""The shared serving layer at the HTTP level: keep-alive, framing, limits, stop.

Every test speaks raw HTTP/1.1 over a socket, so what is checked is what
goes over the wire, not what a client library makes of it.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import rpc
from mcpidg import audit, httpclient, httpserve, stack as stack_module, tokens
from mcpidg.audit import read_records
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


def access_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith('"')]


def access_line(request: str, status: int) -> str:
    return f'"{request} HTTP/1.1" {status} {HTTPStatus(status).phrase}'


@pytest.mark.parametrize(
    "head, body, status",
    [
        ("POST /nope HTTP/1.1\r\nContent-Length: {n}\r\n", SMUGGLED, 404),
        ("POST {post} HTTP/1.1\r\nContent-Length: abc\r\n", SMUGGLED, 400),
        ("POST {post} HTTP/1.1\r\nContent-Length: -5\r\n", SMUGGLED, 400),
        ("POST {post} HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n", SMUGGLED, 400),
        ("POST {post} HTTP/1.1\r\nContent-Length: {big}\r\nContent-Length: {big}\r\n",
         SMUGGLED, 413),
        ("POST {post} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
         b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED), 411),
        ("GET {get} HTTP/1.1\r\nContent-Length: {n}\r\n", SMUGGLED, 200),
    ],
    ids=[
        "unknown-path", "bad-length", "negative-length", "two-lengths", "agreeing-lengths-over-cap",
        "chunked", "get-with-body",
    ],
)
def test_reply_without_reading_the_body_closes_the_connection(
    target, caplog, head, body, status
):
    caplog.set_level(logging.INFO)
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        request_head = head.format(
            n=len(body), post=target.post_path, get=target.get_path,
            big=httpserve.MAX_BODY_BYTES + 1,
        )
        sock.sendall(f"{request_head}Host: t\r\n\r\n".encode() + body)
        got, headers, _ = read_reply(rfile)
        assert got == status
        assert headers["connection"].lower() == "close"
        assert read_reply(rfile) is None  # no reply to the unread bytes
    request = request_head.partition(" HTTP/1.1")[0]
    assert access_lines(caplog)[-1] == access_line(request, status)


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


def _returns_within(seconds: float, call) -> bool:
    """Whether ``call`` returns within ``seconds``; a hung call fails the test, not the run."""
    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    return not worker.is_alive()


def test_stop_on_a_server_never_started_returns_and_closes_the_listener():
    server = httpserve.HttpServer("127.0.0.1:0", logging.getLogger("tests.unstarted"))
    assert _returns_within(5, server.stop), "stop() waited for a serve loop that never ran"
    assert server.socket.fileno() == -1


def test_start_stack_closes_the_provider_when_the_server_cannot_bind(monkeypatch, tmp_path):
    providers, raised = [], []

    class Provider(stack_module.IdpHandle):
        def __init__(self, bind_address):
            super().__init__(bind_address)
            providers.append(self)

    def unbindable(bind_address, log):
        raise httpserve.BindFailure(f"cannot bind {bind_address!r}")

    def start():
        with pytest.raises(httpserve.BindFailure):
            start_stack(audit_path=str(tmp_path / "audit.jsonl"))
        raised.append(True)

    monkeypatch.setattr(stack_module, "IdpHandle", Provider)
    monkeypatch.setattr(stack_module, "ServerHandle", unbindable)
    assert _returns_within(5, start) and raised
    assert [p.socket.fileno() for p in providers] == [-1]


def test_idle_connection_closed_after_the_timeout(monkeypatch, stack):
    monkeypatch.setattr(httpserve, "IDLE_TIMEOUT_S", 0.2)
    target = Target(stack.server.port, "/.well-known/oauth-protected-resource", "/mcp")
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        started = time.monotonic()
        assert read_reply(rfile) is None
        assert time.monotonic() - started < 2.0


@pytest.fixture
def connects(monkeypatch) -> list[int]:
    """The server port of each TCP connection the servers accept."""
    accepted: list[int] = []
    real_process_request = httpserve.HttpServer.process_request

    def process_request(self, request, client_address):
        accepted.append(self.port)
        real_process_request(self, request, client_address)

    monkeypatch.setattr(httpserve.HttpServer, "process_request", process_request)
    return accepted


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
    monkeypatch.setattr(httpserve, "IDLE_TIMEOUT_S", 0.1)
    metadata = stack.server.app.metadata_url
    assert httpclient.get(metadata).status == 200
    time.sleep(0.5)  # the server closes the idle connection meanwhile
    assert httpclient.get(metadata).status == 200
    assert len(connects) == 2


# -- the request head ---------------------------------------------------------


def audit_records(stack) -> list[dict]:
    return read_records(stack.audit_path) if os.path.exists(stack.audit_path) else []


def refused(rfile) -> int:
    """The status of a reply that closes the connection."""
    status, headers, _ = read_reply(rfile)
    assert headers["connection"].lower() == "close"
    return status


TOOL_CALL = json.dumps(rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})).encode()


def mcp_request(fields: str, body: bytes = TOOL_CALL) -> bytes:
    return (
        f"POST /mcp HTTP/1.1\r\nHost: t\r\n{fields}Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


@pytest.mark.parametrize(
    "fields",
    [
        "Authorization: Bearer garbage\r\nAuthorization: Bearer {token}\r\n",
        "Authorization : Bearer {token}\r\n",
        "X-Note: a\r\n folded\r\nAuthorization: Bearer {token}\r\n",
    ],
    ids=["repeated-authorization", "space-before-colon", "obs-fold"],
)
def test_head_that_could_hide_a_credential_gets_400_and_no_audit_record(stack, caplog, fields):
    caplog.set_level(logging.INFO)
    token = stack.idp.core.issue_token_for("developer-persona")
    sock, rfile = connect(stack.server.port)
    with sock, rfile:
        sock.sendall(mcp_request(fields.format(token=token)))
        assert refused(rfile) == 400
        assert read_reply(rfile) is None
    assert audit_records(stack) == []
    assert '"POST /mcp HTTP/1.1" 400 Bad Request' in caplog.text


@pytest.mark.parametrize(
    "head, status, logged",
    [
        ("GET {get} HTTP/1.1\r\nHost: t\r\nAccept : */*\r\n", 400, "GET {get}"),
        ("GET {get} HTTP/1.1\r\nHost: t\r\nAccept: a,\r\n\tb\r\n", 400, "GET {get}"),
        ("GET {get} HTTP/1.1\r\nHost: t\r\nHost: u\r\n", 400, "GET {get}"),
        ("GET {get} HTTP/1.1\r\nHost: t\r\nAccept: a\rb\r\n", 400, "- -"),
        ("GET {get} HTTP/1.1\r\nHost: t\r\nAccept: a\0b\r\n", 400, "- -"),
        ("GET {get} HTTP/1.1\r\nHost: t\r\n: empty-name\r\n", 400, "GET {get}"),
        ("GET {get}\r\nHost: t\r\n", 400, "- -"),
        ("GET {get} HTTP/1.2\r\nHost: t\r\n", 400, "GET {get}"),
        ("GET {get} HTTP/2.0\r\nHost: t\r\n", 505, "GET {get}"),
        ("GET {get} HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\n", 431, "- -"),
        ("GET {get} HTTP/1.1\r\n{many}", 431, "GET {get}"),
    ],
    ids=[
        "space-before-colon", "obs-fold", "repeated-host", "bare-cr", "nul",
        "empty-name", "no-version", "http-1.2", "http-2", "65-KiB-head", "101-fields",
    ],
)
def test_malformed_or_oversized_head_gets_its_status_and_closes(
    target, caplog, head, status, logged
):
    caplog.set_level(logging.INFO)
    request_head = head.format(
        get=target.get_path,
        pad="x" * (65 << 10),
        many="".join(f"X-F{i}: {i}\r\n" for i in range(httpserve.MAX_HEADER_FIELDS + 1)),
    )
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        sock.sendall(f"{request_head}\r\n".encode("latin-1"))
        assert refused(rfile) == status
        assert read_reply(rfile) is None
    # The request line is logged once it has been read.
    assert access_lines(caplog)[-1] == access_line(logged.format(get=target.get_path), status)


def test_head_at_the_field_limit_is_served(target):
    fields = "".join(f"X-F{i}: {i}\r\n" for i in range(httpserve.MAX_HEADER_FIELDS - 1))
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(f"GET {target.get_path} HTTP/1.1\r\nHost: t\r\n{fields}\r\n".encode())
        assert read_reply(rfile)[0] == 200


@pytest.mark.parametrize("split", [-1, -2, -3, -4], ids=["lf", "cr-lf", "lf-cr-lf", "crlf-crlf"])
def test_head_arriving_in_two_parts_is_served(target, split):
    request = get(target.get_path)
    sock, rfile = connect(target.port)
    with sock, rfile:
        for _ in range(2):  # the second request checks the idle timeout came back
            sock.sendall(request[:split])
            time.sleep(0.05)
            sock.sendall(request[split:])
            status, headers, _ = read_reply(rfile)
            assert status == 200
            assert headers.get("connection", "").lower() != "close"


@pytest.mark.parametrize(
    "start",
    [
        "GET {get} HTTP/1.1\r\nX-Slow: ",
        "POST {post} HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\n",
    ],
    ids=["head", "body"],
)
def test_request_trickled_past_its_deadline_is_closed(monkeypatch, target, start):
    monkeypatch.setattr(httpserve, "HEAD_TIMEOUT_S", 0.2)
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        sock.sendall(start.format(get=target.get_path, post=target.post_path).encode())
        sock.settimeout(0.05)
        started = time.monotonic()
        closed = False
        while not closed and time.monotonic() - started < 3.0:
            try:
                sock.sendall(b"x")  # every byte arrives well inside the idle timeout
                closed = sock.recv(1) == b""
            except TimeoutError:
                pass
            except OSError:
                closed = True
        assert closed
        assert time.monotonic() - started < 2.0


def test_request_deadline_starts_at_its_first_byte_not_at_the_idle_wait(monkeypatch, target):
    monkeypatch.setattr(httpserve, "HEAD_TIMEOUT_S", 0.2)
    sock, rfile = connect(target.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, target)
        time.sleep(0.5)  # idle past HEAD_TIMEOUT_S, well inside the idle timeout
        kept_alive_exchange(sock, rfile, target)


def test_large_head_trickled_in_small_pieces_is_answered_at_once(target):
    request = get(target.get_path).replace(b"Host: t", b"X-Pad: " + b"x" * (48 << 10))
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(0, len(request), 64):
            sock.sendall(request[i : i + 64])
            time.sleep(0)  # lets the server read each piece on its own
        sent = time.monotonic()
        assert read_reply(rfile)[0] == 200
        assert time.monotonic() - sent < 0.5


def test_head_sent_a_byte_per_write_is_dropped_within_reads_bounded_by_its_bytes(
    monkeypatch, target
):
    searches = []
    blank_line = httpserve.BLANK_LINE

    class CountingSearch:
        def search(self, *args):
            searches.append(args)
            return blank_line.search(*args)

    monkeypatch.setattr(httpserve, "BLANK_LINE", CountingSearch())
    request = get(target.get_path).replace(b"Host: t", b"X-Pad: " + b"x" * 1000)
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for byte in request:
                sock.sendall(bytes([byte]))
                time.sleep(0.0005)  # lets the server read each byte on its own
            reply = read_reply(rfile)
        except ConnectionError:
            reply = None
    assert reply is None
    assert len(searches) <= httpserve.HEAD_FREE_READS + len(request) // httpserve.HEAD_BYTES_PER_READ


def test_two_pipelined_requests_get_two_replies_in_order(target):
    body = b"grant_type=none"
    first = (
        f"POST {target.post_path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(first + get(target.get_path) + get("/nope"))
        status, headers, _ = read_reply(rfile)
        assert status in (400, 401)
        assert headers.get("connection", "").lower() != "close"
        assert read_reply(rfile)[0] == 200
        assert read_reply(rfile)[0] == 404


def test_silent_connections_at_the_cap_make_room_for_new_ones(monkeypatch, target):
    monkeypatch.setattr(httpserve, "MAX_CONNECTIONS", 2)
    first, first_rfile = connect(target.port)
    second, second_rfile = connect(target.port)
    with first, first_rfile, second, second_rfile:
        third, third_rfile = connect(target.port)
        with third, third_rfile:
            kept_alive_exchange(third, third_rfile, target)
            assert read_reply(first_rfile) is None  # the oldest waiting connection was ended
            assert status_of_a_new_connection(target) == 200
            assert read_reply(second_rfile) is None
            kept_alive_exchange(third, third_rfile, target)


def test_connections_past_the_cap_get_503_when_every_one_is_mid_request(monkeypatch, target):
    monkeypatch.setattr(httpserve, "MAX_CONNECTIONS", 2)
    body = b"grant_type=none"
    busy = [connect(target.port) for _ in range(2)]
    for sock, rfile in busy:
        sock.sendall(
            f"POST {target.post_path} HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        assert read_reply(rfile)[0] == 100  # its handler now waits for the body
    threads = threading.active_count()
    third, third_rfile = connect(target.port)
    with third, third_rfile:
        status, headers, _ = read_reply(third_rfile)
        assert (status, headers["retry-after"], headers["connection"]) == (503, "1", "close")
        assert read_reply(third_rfile) is None
    assert threading.active_count() <= threads  # no handler thread started
    for sock, rfile in busy:
        with sock, rfile:
            sock.sendall(body)
            assert read_reply(rfile)[0] in (400, 401)
    # Both slots are freed once their handlers see the peers close.
    deadline = time.monotonic() + 2.0
    while (status := status_of_a_new_connection(target)) == 503 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert status == 200


def test_connection_table_holds_under_churn_past_the_cap(monkeypatch, target, stack):
    monkeypatch.setattr(httpserve, "MAX_CONNECTIONS", 3)
    server = stack.server if target.port == stack.server.port else stack.idp
    outcomes: list[int | None] = []

    def client() -> None:
        for _ in range(10):
            sock, rfile = connect(target.port)
            with sock, rfile:
                for _ in range(3):
                    try:
                        sock.sendall(get(target.get_path))
                        reply = read_reply(rfile)
                    except (ConnectionResetError, BrokenPipeError):  # ended to make room
                        reply = None
                    outcomes.append(reply and reply[0])
                    if reply is None or reply[0] != 200:
                        break

    clients = [threading.Thread(target=client) for _ in range(6)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in clients:
            thread.start()
        while any(thread.is_alive() for thread in clients):
            assert len(server._connections) <= httpserve.MAX_CONNECTIONS
            time.sleep(0.001)
        for thread in clients:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert set(outcomes) <= {200, 503, None}
    assert 200 in outcomes
    # Every slot is given back once the peers have gone.
    deadline = time.monotonic() + 2.0
    while server._connections and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server._connections == {}


def status_of_a_new_connection(target) -> int:
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(get(target.get_path))
        try:
            return read_reply(rfile)[0]
        except ConnectionResetError:  # refused before the request was read
            return 503


def test_requests_are_served_without_the_stdlib_header_parser(stack, monkeypatch):
    token = stack.idp.core.issue_token_for("developer-persona")
    call = mcp_request(f"Authorization: Bearer {token}\r\n")
    metadata = "/.well-known/oauth-protected-resource"
    sock, rfile = connect(stack.server.port)
    with sock, rfile:
        sock.sendall(call)  # the first call also fetches the keys through httpclient
        assert read_reply(rfile)[0] == 200

        def no_parser(*args, **kwargs):
            raise AssertionError("http.client.parse_headers is on the request path")

        monkeypatch.setattr(http.client, "parse_headers", no_parser)
        sock.sendall(call)
        status, _, body = read_reply(rfile)
        assert (status, "result" in json.loads(body)) == (200, True)
        kept_alive_exchange(sock, rfile, Target(stack.server.port, metadata, "/mcp"))
    discovery = f"{urlsplit(stack.issuer).path}/.well-known/openid-configuration"
    sock, rfile = connect(stack.idp.port)
    with sock, rfile:
        kept_alive_exchange(sock, rfile, Target(stack.idp.port, discovery, ""))


def test_warm_tool_calls_neither_verify_a_signature_nor_open_the_audit_file(
    stack, monkeypatch
):
    token = stack.idp.core.issue_token_for("developer-persona")
    call = mcp_request(f"Authorization: Bearer {token}\r\n")
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    sock, rfile = connect(stack.server.port)
    with sock, rfile:
        sock.sendall(call)  # warm-up: fetches the keys, verifies, opens the audit file
        assert read_reply(rfile)[0] == 200
        monkeypatch.setattr(tokens, "verify_signature",
                            counted("verify_signature", tokens.verify_signature))
        monkeypatch.setattr(audit.os, "open", counted("os.open", audit.os.open))
        for _ in range(20):
            sock.sendall(call)
            status, _, body = read_reply(rfile)
            assert (status, "result" in json.loads(body)) == (200, True)
    assert calls == []
    monkeypatch.undo()
    assert len(read_records(stack.audit_path)) == 21


# RFC 9110 §5.6.7
IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d{2} (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)"
    r" \d{4} \d{2}:\d{2}:\d{2} GMT"
)


def test_replies_within_one_second_share_one_formatted_date(target, monkeypatch):
    formatted = []
    real = httpserve.formatdate
    monkeypatch.setattr(httpserve, "formatdate",
                        lambda *args, **kwargs: formatted.append(args) or real(*args, **kwargs))
    sock, rfile = connect(target.port)
    with sock, rfile:
        for _ in range(5):  # until both replies fall in one second
            second, already = int(time.time()), len(formatted)
            dates = []
            for _ in range(2):
                sock.sendall(get(target.get_path))
                dates.append(read_reply(rfile)[1]["date"])
            if int(time.time()) == second:
                break
    assert dates[0] == dates[1]
    assert IMF_FIXDATE.fullmatch(dates[0])
    assert len(formatted) - already <= 1


# -- hostile heads, generated -------------------------------------------------

_LATIN1 = st.characters(max_codepoint=255, blacklist_characters="\n")
_NAMES = st.sampled_from(["Authorization", "authorization", "Host", "Connection", "X-Id"])
_VALUES = st.sampled_from(["Bearer garbage", "Bearer ", "bearer a.b.c", "Basic dTpw", "close", ""])
_PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40)
_HOSTILE_VALUES = (
    _VALUES | st.text(_LATIN1, max_size=40) | st.integers(0, 70_000).map(lambda n: "v" * n)
)
_WELL_FORMED = st.tuples(_NAMES, st.just(": "), _VALUES | _PRINTABLE).map("".join)
_HOSTILE = (
    st.tuples(
        _NAMES | st.text(_LATIN1, max_size=12),  # odd names, control bytes
        st.sampled_from([":", " : ", ":\t", "\t:"]),
        _HOSTILE_VALUES,
    )
    | st.tuples(st.sampled_from([" ", "\t"]), _HOSTILE_VALUES)  # obs-fold
).map("".join).filter(  # the test frames the body itself
    lambda line: line.partition(":")[0].strip(" \t").lower()
    not in ("content-length", "transfer-encoding", "expect")
)
_REQUEST_LINES = st.just("POST {path} HTTP/1.1") | st.tuples(
    st.sampled_from(["POST", "GET", "PUT", "post", ""]),
    st.sampled_from(["{path}", "/{path}", "{path}?access_token=x", "*", ""]),
    st.sampled_from(
        ["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.2", "HTTP/1", "http/1.1", "HTTP/1.1 x"]
    ),
).map(" ".join)
# Refused before any route runs: a bad head, an unknown path, method or version.
FRAMING_REFUSALS = (400, 404, 431, 501, 505)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    request_line=_REQUEST_LINES,
    fields=st.lists(_WELL_FORMED, max_size=4)
    | st.lists(_WELL_FORMED | _HOSTILE, min_size=1, max_size=6),
)
def test_hostile_head_gets_a_challenge_or_a_framing_refusal(
    target, stack, caplog, request_line, fields
):
    head = "".join(f"{line}\r\n" for line in [request_line.format(path=target.post_path), *fields])
    request = f"{head}Content-Length: {len(TOOL_CALL)}\r\n\r\n".encode("latin-1") + TOOL_CALL
    before = len(audit_records(stack))
    sock, rfile = connect(target.port)
    with sock, rfile:
        sock.sendall(request)
        reply = read_reply(rfile)
    assert reply is not None  # never dropped without a reply
    status, headers, _ = reply
    records = audit_records(stack)[before:]
    if target.port == stack.idp.port:
        assert 400 <= status < 500 or status in FRAMING_REFUSALS
    elif status == 401:
        assert 'resource_metadata="' in headers["www-authenticate"]
        assert [r["decision"] for r in records] == ["unauthenticated"]
    else:
        assert status in FRAMING_REFUSALS
        assert records == []
    assert "unhandled server error" not in caplog.text
