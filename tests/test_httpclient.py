"""The HTTP client against scripted raw-socket servers: deadline, caps, framing.

Each server answers every request head with fixed pieces, bytes to send
or pauses in seconds, so a test decides each byte of the reply and when
it arrives.
"""

from __future__ import annotations

import datetime
import ipaddress
import json
import os
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.x509.oid import NameOID

from mcpidg import httpclient, httpserve, tokens

MIB = 1 << 20
OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class _ScriptHandler(socketserver.StreamRequestHandler):
    server: RawServer

    def handle(self) -> None:
        try:
            while head := self._read_head():
                pieces, keep = self.server.answer(head)
                for piece in pieces:
                    if isinstance(piece, bytes):
                        self.connection.sendall(piece)
                    elif self.server.stopping.wait(piece):
                        return
                if not keep:
                    return
        except OSError:
            pass  # the client gave up on the reply

    def _read_head(self) -> bytes:
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            if not (line := self.rfile.readline()):
                return b""
            head += line
        return head


class RawServer(socketserver.ThreadingTCPServer):
    """Answers each request head with ``answer(head)``: (pieces, keep the connection)."""

    def __init__(self, answer):
        self.answer = answer
        self.connections: list[socket.socket] = []
        self.stopping = threading.Event()
        super().__init__(("127.0.0.1", 0), _ScriptHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,))
        self._thread.start()

    @property
    def accepted(self) -> int:
        return len(self.connections)

    def process_request(self, request, client_address) -> None:
        self.connections.append(request)
        super().process_request(request, client_address)

    def __exit__(self, *exc_info) -> None:
        self.stopping.set()
        self.shutdown()
        for connection in self.connections:  # a handler waiting for a request reads its end
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed
        self.server_close()  # joins the handler threads
        self._thread.join(timeout=5)


def scripted(*pieces: bytes | float, keep: bool = True):
    """The same reply to every request."""
    return lambda head: (pieces, keep)


# -- one deadline, one cap ----------------------------------------------------


def test_reply_trickled_past_the_timeout_raises_within_it():
    trickle = [b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n"]
    for byte in b"trickled":
        trickle += [0.4, bytes([byte])]
    with RawServer(scripted(*trickle)) as server:
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            httpclient.get(server.url, timeout=1.0)
        assert time.monotonic() - started < 1.3


@pytest.mark.parametrize(
    "pieces, keep",
    [
        ([b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (50 * MIB), *[b"x" * MIB] * 50], True),
        (
            [
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                *[b"%x\r\n" % MIB + b"x" * MIB + b"\r\n"] * 2,
                b"0\r\n\r\n",
            ],
            True,
        ),
        ([b"HTTP/1.1 200 OK\r\n\r\n", *[b"x" * MIB] * 2], False),
    ],
    ids=["50-MiB-content-length", "2-MiB-chunked", "2-MiB-to-the-close"],
)
def test_reply_body_over_the_cap_raises(pieces, keep):
    with RawServer(scripted(*pieces, keep=keep)) as server:
        started = time.monotonic()
        with pytest.raises(OSError, match="MAX_BODY_BYTES"):
            httpclient.get(server.url, timeout=5.0)
        assert time.monotonic() - started < 1.0


class _NoDelayScriptHandler(_ScriptHandler):
    disable_nagle_algorithm = True  # each write leaves as its own segment


def test_reply_head_sent_a_byte_per_write_raises_well_inside_the_timeout():
    head = b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * 1000 + b"\r\nContent-Length: 2\r\n\r\n"
    trickle = []
    for byte in head + b"ok":
        trickle += [bytes([byte]), 0.0005]  # lets the client read each byte on its own
    with RawServer(scripted(*trickle)) as server:
        server.RequestHandlerClass = _NoDelayScriptHandler
        started = time.monotonic()
        with pytest.raises(OSError) as raised:
            httpclient.get(server.url, timeout=5.0)
        assert not isinstance(raised.value, TimeoutError)
        assert time.monotonic() - started < 1.0


def test_trickling_key_endpoint_holds_no_caller_past_the_two_fetch_timeouts():
    def answer(head: bytes):
        if head.startswith(b"GET /.well-known/openid-configuration "):
            doc = json.dumps({
                "issuer": server.url, "jwks_uri": f"{server.url}/jwks",
                "authorization_endpoint": f"{server.url}/authorize",
                "token_endpoint": f"{server.url}/token",
            }).encode()
            return [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(doc) + doc], True
        return [b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n{", *[0.2, b" "] * 999], True

    with RawServer(answer) as server:
        cache = tokens.JwksCache(
            server.url, fetcher=lambda issuer: tokens.fetch_jwks_via_discovery(issuer, timeout=0.5)
        )
        outcomes: list[Exception] = []

        def caller() -> None:
            try:
                cache.get()
            except tokens.TokenError as exc:
                outcomes.append(exc)

        callers = [threading.Thread(target=caller) for _ in range(2)]
        started = time.monotonic()
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=5)
        elapsed = time.monotonic() - started
        assert not any(thread.is_alive() for thread in callers)
    assert [type(exc) for exc in outcomes] == [tokens.JwksUnreachable] * 2
    assert elapsed < 2 * 0.5 + 0.3


# -- framing (RFC 9112 §6.3) --------------------------------------------------

CHUNKED = (
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"5;name=value\r\nhello\r\n1\r\n \r\n5\r\nworld\r\n0\r\nX-Trailer: t\r\n\r\n"
)


@pytest.mark.parametrize(
    "pieces",
    [
        [CHUNKED],
        [CHUNKED[:60], 0.02, CHUNKED[60:66], 0.02, CHUNKED[66:-3], 0.02, CHUNKED[-3:]],
    ],
    ids=["one-write", "split"],
)
def test_chunked_reply_decodes_and_keeps_its_connection(pieces):
    with RawServer(scripted(*pieces)) as server:
        for _ in range(2):
            reply = httpclient.get(server.url, timeout=2.0)
            assert (reply.status, reply.body) == (200, b"hello world")
        assert "x-trailer" not in reply.headers
        assert server.accepted == 1


def test_close_delimited_reply_decodes_and_its_connection_is_not_kept():
    pieces = [b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nto the ", 0.05, b"close"]
    with RawServer(scripted(*pieces, keep=False)) as server:
        for _ in range(2):
            assert httpclient.get(server.url, timeout=2.0).body == b"to the close"
        assert server.accepted == 2


@pytest.mark.parametrize(
    "method, reply, body, kept",
    [
        ("GET", OK, b"ok", True),
        ("GET", b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok", b"ok", True),
        ("GET", b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", b"ok", False),
        ("GET", b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", b"ok", False),
        ("GET", b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok", b"ok", True),
        ("GET", b"HTTP/1.1 204 No Content\r\n\r\n", b"", True),
        ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n", b"", True),
        ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n", b"", True),
        ("GET", b"HTTP/1.1 100 Continue\r\n\r\n" + OK, b"ok", True),
        ("GET", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", b"", False),
    ],
    ids=[
        "content-length", "repeated-equal-length", "connection-close", "http-1.0",
        "http-1.0-keep-alive", "204", "304", "head", "100-continue", "not-chunked-to-the-close",
    ],
)
def test_reply_framing_and_connection_reuse(method, reply, body, kept):
    with RawServer(scripted(reply, keep=kept)) as server:
        for _ in range(2):
            got = httpclient.request(method, server.url, timeout=2.0)
            assert got.body == body
        assert server.accepted == (1 if kept else 2)


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x2\r\nok\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokay\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * httpserve.MAX_HEAD_BYTES + b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n"
        + b"".join(b"X-F%d: 1\r\n" % i for i in range(httpserve.MAX_HEADER_FIELDS + 1))
        + b"Content-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-A: a\rb\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-A : a\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
        b"",
    ],
    ids=[
        "conflicting-length", "signed-length", "chunked-and-length", "bad-chunk-size",
        "chunk-overrun", "closed-mid-body", "head-over-64-KiB", "101-fields", "bare-cr",
        "space-before-colon", "http-2", "two-digit-status", "closed-before-any-reply",
    ],
)
def test_malformed_reply_raises_at_once(reply):
    with RawServer(scripted(reply, keep=False)) as server:
        started = time.monotonic()
        with pytest.raises(OSError) as raised:
            httpclient.get(server.url, timeout=2.0)
        assert not isinstance(raised.value, TimeoutError)
        assert time.monotonic() - started < 1.0
        assert server.accepted == 1  # a new connection is never retried


@pytest.mark.parametrize(
    "path, headers",
    [("/a b", {}), ("/", {"X-A": "a\r\nX-Injected: 1"}), ("/", {"X A": "a"}), ("/", {"X-A": "€"})],
    ids=["space-in-target", "crlf-in-value", "space-in-name", "not-latin-1"],
)
def test_request_that_cannot_be_framed_is_refused_before_connecting(path, headers):
    with RawServer(scripted(OK)) as server:
        with pytest.raises(OSError):
            httpclient.get(server.url + path, headers=headers)
        assert server.accepted == 0


def test_request_head_carries_host_length_and_the_callers_fields():
    heads: list[bytes] = []
    with RawServer(lambda head: heads.append(head) or ([OK], True)) as server:
        reply = httpclient.post(server.url + "/p?q=1", b"", {"Content-Type": "text/plain"})
    assert reply.status == 200
    host = server.url.removeprefix("http://")
    assert heads == [
        b"POST /p?q=1 HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
        b"Content-Type: text/plain\r\nContent-Length: 0\r\n\r\n" % host.encode()
    ]


def self_signed_certificate(directory: Path) -> tuple[str, str]:
    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    certificate = (
        x509.CertificateBuilder().subject_name(name).issuer_name(name)
        .public_key(key.public_key()).serial_number(x509.random_serial_number())
        .not_valid_before(now).not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), False)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = directory / "cert.pem", directory / "key.pem"
    cert_path.write_bytes(certificate.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8, serialization.NoEncryption()
    ))
    return str(cert_path), str(key_path)


def test_https_refuses_a_certificate_no_trusted_authority_signed(tmp_path):
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(*self_signed_certificate(tmp_path))
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def serve_one_handshake() -> None:
            connection, _ = listener.accept()
            with connection:
                try:
                    context.wrap_socket(connection, server_side=True).close()
                except OSError:
                    pass  # the client rejected the certificate

        server = threading.Thread(target=serve_one_handshake)
        server.start()
        with pytest.raises(ssl.SSLCertVerificationError):
            httpclient.get(f"https://127.0.0.1:{listener.getsockname()[1]}/", timeout=2.0)
        server.join(timeout=5)
        assert not server.is_alive()


def test_the_package_does_not_import_the_stdlib_http_client():
    # A subprocess: pytest and the benchmark's tracer import http.client themselves.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, mcpidg.cli, mcpidg.harness, mcpidg.tokens\n"
        "assert 'http.client' not in sys.modules, 'http.client is imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
