"""Seeded request generation and the three kinds of client loop.

- `LegitClient`: closed loop over a seeded mix of authenticated MCP
  requests sent with the benchmark's own keep-alive client.
- `Attacker`: open loop at a fixed offered rate of bad credentials, each
  timed from the moment it was due.
- `SignInClient`: closed loop of cold IDE sign-ins through the shipped
  `harness.run_sequence`, one fresh token-store file per sign-in.

Every reply is checked against `oracle`; each client also counts the
audit records its traffic should have produced.
"""

from __future__ import annotations

import base64
import json
import os
import time
from collections import Counter

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa

import oracle
from wire import Connection, ProtocolViolation

LIST_SHARE = 1 / 8
DENY_SHARE = 1 / 4
BODY_BEARER_SHARE = 1 / 4
ATTACK_RATE = 100.0  # bad credentials offered per second
MAX_FAILURES_SHOWN = 5

JSON_HEADER = b"Content-Type: application/json\r\n"


def _b64(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def _b64json(doc) -> str:
    return _b64(json.dumps(doc, separators=(",", ":")).encode())


class Outcomes:
    """Operations attempted and failed, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.audit: Counter = Counter()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(what)


def legit_requests(rng, tokens: dict[str, str], count: int) -> list[tuple]:
    """(header lines, body, expectation) for the steady IDE-session mix."""
    requests = []
    for request_id in range(1, count + 1):
        params: dict = {}
        if rng.random() < LIST_SHARE:
            persona = rng.choice(oracle.PERSONAS)
            method = "tools/list"
            expectation = oracle.Expectation(
                "list", request_id, visible=sorted(oracle.ALLOWED[persona])
            )
        else:
            pairs = oracle.DENY_PAIRS if rng.random() < DENY_SHARE else oracle.ALLOW_PAIRS
            persona, tool = rng.choice(pairs)
            arguments = oracle.arguments_for(tool, rng)
            method = "tools/call"
            params = {"name": tool, "arguments": arguments}
            key = oracle.audit_key_for_call(persona, tool)
            payload = oracle.expected_payload(tool, arguments) if key[0] == "allow" else None
            expectation = oracle.Expectation(key[0], request_id, payload=payload, tool=tool, audit_key=key)
        headers = JSON_HEADER
        if rng.random() < BODY_BEARER_SHARE:
            params["authorization"] = tokens[persona]
        else:
            headers += f"Authorization: Bearer {tokens[persona]}\r\n".encode("ascii")
        body = {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}
        requests.append((headers, json.dumps(body).encode(), expectation))
    return requests


def attack_corpus(rng, tokens: dict[str, str], cycles: int) -> list[tuple]:
    """(kind, audit reason, credential presented, header lines) per bad credential.

    Cycles through the six kinds in a seeded order per cycle. The forged
    tokens are well-formed RS256 JWTs under unknown kids, signed with a
    key of the generator's own.
    """
    real = tokens["developer-persona"]
    real_header, real_payload, real_signature = real.split(".")
    claims = json.loads(base64.urlsafe_b64decode(real_payload + "=" * (-len(real_payload) % 4)))
    kid = json.loads(base64.urlsafe_b64decode(real_header + "=" * (-len(real_header) % 4)))["kid"]
    rogue_key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    now = int(time.time())
    kinds = ["no_token", "basic", "malformed", "alg_none", "tampered", "unknown_kid"]
    corpus = []
    for _ in range(cycles):
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "no_token":
                corpus.append((kind, "no_token", False, JSON_HEADER))
                continue
            if kind == "basic":
                value = "Basic " + _b64(f"user{rng.randrange(1000)}:secret".encode())
                corpus.append((kind, "malformed_authorization_header", True, _auth(value)))
                continue
            if kind == "malformed":
                token = rng.choice([
                    "not-a-jwt",
                    "only.two",
                    _b64(b"not json") + "." + _b64json({}) + ".c2ln",
                    "@@@.@@@.@@@",
                ])
            elif kind == "alg_none":
                token = _b64json({"alg": "none", "typ": "JWT", "kid": kid}) + "." + real_payload + "."
            elif kind == "tampered":
                forged = dict(claims, roles=["developer", "operator"], jti=f"t{rng.randrange(10**9)}")
                token = real_header + "." + _b64json(forged) + "." + real_signature
            else:
                header = {"alg": "RS256", "typ": "JWT", "kid": f"rogue-{rng.randrange(16**8):08x}"}
                forged = dict(claims, sub="intruder", iat=now, exp=now + 600,
                              jti=f"r{rng.randrange(10**9)}")
                signing_input = _b64json(header) + "." + _b64json(forged)
                signature = rogue_key.sign(signing_input.encode(), padding.PKCS1v15(), hashes.SHA256())
                token = signing_input + "." + _b64(signature)
            corpus.append((kind, "invalid_token", True, _auth("Bearer " + token)))
    return corpus


def _auth(value: str) -> bytes:
    return JSON_HEADER + f"Authorization: {value}\r\n".encode("ascii")


ATTACK_BODY = json.dumps({
    "jsonrpc": "2.0", "id": 1, "method": "tools/call",
    "params": {"name": "docs_search", "arguments": {"query": "secrets"}},
}).encode()


class LegitClient:
    """Closed loop: the next request goes out when the previous reply is in."""

    def __init__(self, conn: Connection, requests: list[tuple], first_seq: int):
        self.conn = conn
        self.requests = requests
        self.seq = first_seq
        self.records: list[tuple[int, int, int, bool]] = []  # (done ns, latency ns, seq, denied)
        self.outcomes = Outcomes()

    def run(self, stop_at: int, tick=None) -> None:
        requests, conn, outcomes = self.requests, self.conn, self.outcomes
        clock = time.monotonic_ns
        i = 0
        while True:
            now = clock()
            if tick is not None:
                tick(now)
            if now >= stop_at:
                return
            headers, body, expectation = requests[i % len(requests)]
            i += 1
            self.seq += 1
            outcomes.attempted += 1
            start = clock()
            try:
                reply = conn.request(
                    "POST", "/mcp", headers + b"X-Bench-Request-Id: %d\r\n" % self.seq, body
                )
            except (OSError, ProtocolViolation) as exc:
                conn.close()
                outcomes.fail(f"request {self.seq}: {exc!r}")
                continue
            done = clock()
            # The record this request should have audited counts even when the
            # reply is wrong, so a wrong reply is one failure, not two.
            if expectation.audit_key is not None:
                outcomes.audit[expectation.audit_key] += 1
            problem = expectation.mismatch(reply.status, reply.body)
            if problem is not None:
                outcomes.fail(f"request {self.seq}: {problem}")
                continue
            self.records.append((done, done - start, self.seq, expectation.kind == "deny"))


class Attacker:
    """Open loop at ATTACK_RATE; latency counts from each request's due time."""

    def __init__(self, conn: Connection, corpus: list[tuple], metadata_url: str):
        self.conn = conn
        self.corpus = corpus
        self.metadata_url = metadata_url
        self.records: list[tuple[int, int, int]] = []  # (done ns, ns since due, ns late)
        self.outcomes = Outcomes()

    def run(self, start_at: int, stop_at: int) -> None:
        period_ns = 1e9 / ATTACK_RATE
        clock = time.monotonic_ns
        k = 0
        while True:
            due = start_at + int(k * period_ns)
            if due >= stop_at:
                return
            kind, reason, presented, headers = self.corpus[k % len(self.corpus)]
            k += 1
            wait = due - clock()
            if wait > 0:
                time.sleep(wait / 1e9)
            sent = clock()
            self.outcomes.attempted += 1
            try:
                reply = self.conn.request("POST", "/mcp", headers, ATTACK_BODY)
            except (OSError, ProtocolViolation) as exc:
                self.conn.close()
                self.outcomes.fail(f"attack {kind}: {exc!r}")
                continue
            done = clock()
            self.outcomes.audit[oracle.unauthenticated_key(reason)] += 1
            problem = oracle.check_challenge(reply.status, reply.headers, self.metadata_url, presented)
            if problem is not None:
                self.outcomes.fail(f"attack {kind}: {problem}")
                continue
            self.records.append((done, done - due, sent - due))


class SignInClient:
    """Closed loop of cold sign-ins, each a new IDE install with its own keychain."""

    def __init__(self, harness, token_store_cls, mcp_url: str, rng, workdir: str):
        self.harness = harness
        self.token_store_cls = token_store_cls
        self.mcp_url = mcp_url
        self.rng = rng
        self.workdir = workdir
        self.records: list[tuple[int, int, int]] = []  # (done ns, latency ns, 401 ns)
        self.outcomes = Outcomes()

    def run(self, stop_at: int, tick=None) -> None:
        clock = time.monotonic_ns
        i = 0
        while True:
            now = clock()
            if tick is not None:
                tick(now)
            if now >= stop_at:
                return
            pairs = oracle.DENY_PAIRS if self.rng.random() < DENY_SHARE else oracle.ALLOW_PAIRS
            persona, tool = self.rng.choice(pairs)
            i += 1
            store_path = os.path.join(self.workdir, f"keychain-{i}.json")
            store = self.token_store_cls(store_path)
            self.outcomes.attempted += 1
            start = clock()
            try:
                transcript = self.harness.run_sequence(self.mcp_url, persona, tool=tool, token_store=store)
            except Exception as exc:  # noqa: BLE001 - any failure of the system under test
                self.outcomes.fail(f"sign-in {i} ({persona}, {tool}): {exc!r}")
                continue
            finally:
                if os.path.exists(store_path):
                    os.remove(store_path)
            done = clock()
            problem = _transcript_problem(transcript, persona, tool)
            if problem is not None:
                self.outcomes.fail(f"sign-in {i} ({persona}, {tool}): {problem}")
                continue
            self.records.append((done, done - start, transcript.step(1).wall_latency_us * 1000))
            self.outcomes.audit[oracle.unauthenticated_key("no_token")] += 1
            self.outcomes.audit[oracle.audit_key_for_call(persona, tool)] += 1


def _transcript_problem(transcript, persona: str, tool: str) -> str | None:
    if transcript.indices() != list(range(1, 14)):
        return f"incomplete transcript {transcript.indices()}"
    final = transcript.step(13).response_summary
    if tool in oracle.ALLOWED[persona]:
        keys = sorted(oracle.expected_payload(tool, {}))
        if final != f"200 result keys={keys}":
            return f"final step {final!r}"
    elif f"error {oracle.DENY_CODE}" not in final:
        return f"final step {final!r}, wanted a deny"
    return None
