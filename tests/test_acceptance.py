"""Acceptance suite.

One test per criterion; each prints a single machine-greppable
ACCEPTANCE line (run with -s to see them live). Tolerances are pinned
here and nowhere else:

  1. self-contained conformance exits 0, canonical log ordering, < 5 s
  2. role/tool matrix equality, zero tolerance
  3. >= 500 mutated tokens: 100% rejected with the designated error
     class, zero reach tool dispatch
  4. >= 200 randomized PKCE trials (success iff S256 match); N=8
     redemption race has exactly one winner
  5. warm-cache validation p50 < 5 ms; miss p50 > hit p50; end-to-end
     p50 > hit p50 and < 120 ms; bench wall time < 60 s
  6. both well-known documents equal the published descriptor verbatim
  7. 100 mixed tools/call requests -> exactly 100 replay-consistent
     audit records
  8. second run within token lifetime: zero provider requests
  9. no token response ever carries refresh_token
"""

import json
import random
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest

import oracles
from conftest import PERSONAS, TOOLS, mcp_post, rpc
from mcpidg import bench, cli, httpclient
from mcpidg.harness import generate_pkce, run_sequence
from mcpidg.idp import InvalidGrant, MockIdp, PkceVerificationFailed
from mcpidg.policy import authorize
from mcpidg.server import ServerConfig, serve
from mcpidg.tokens import (
    Expired,
    InsufficientScope,
    JwksCache,
    NotYetValid,
    SignatureInvalid,
    TokenError,
    UnknownKeyId,
    UnsupportedAlgorithm,
    ValidatedIdentity,
    WrongAudience,
    WrongIssuer,
    b64url_encode,
    verify_bearer,
)
from mcpidg.tokenstore import TokenStore
from mcpidg.tools import default_policy, default_registry
from mcpidg.audit import read_records

MAX_CONFORMANCE_SECONDS = 5.0
MAX_HIT_P50_US = 5_000
MAX_END_TO_END_P50_US = 120_000
MAX_BENCH_SECONDS = 60.0
MUTANT_COUNT = 504
PKCE_TRIALS = 200

EXPECTED_ALLOWS = {
    ("developer-persona", "docs_search"),
    ("developer-persona", "code_search"),
    ("developer-persona", "build_status"),
    ("contractor-persona", "docs_search"),
    ("operator-persona", "ops_status"),
}

PUBLISHED_DESCRIPTOR = {
    "resource": "http://localhost:8000/mcp",
    "scopes_supported": ["openid", "profile"],
    "authorization_servers": ["http://localhost:8081/realms/master"],
    "bearer_methods_supported": ["header", "body"],
}


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion} {status}: {description}{suffix}")
    assert passed, f"criterion {criterion}: {description}{suffix}"


def test_criterion_1_conformance_sequence_and_log_ordering():
    started = time.monotonic()
    with cli.capture_package_logs() as capture:
        exit_code = cli.main([
            "--log-level", "error",
            "conformance", "--self-contained",
            "--persona", "developer", "--tool", "docs_search",
        ])
    elapsed = time.monotonic() - started
    masked = "d" + "*" * (len("developer-persona") - 1)
    ordering_ok = cli.is_ordered_subsequence(
        cli._expected_log_sequence(masked), capture.messages
    )
    report(
        1,
        "self-contained conformance run passes with canonical log ordering",
        exit_code == 0 and ordering_ok and elapsed < MAX_CONFORMANCE_SECONDS,
        f"exit={exit_code} ordering={ordering_ok} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_policy_matrix_exact(stack):
    registry = default_registry()
    policy = default_policy(registry)
    users = stack.idp.core.users

    engine_allows = set()
    for persona in PERSONAS:
        identity = ValidatedIdentity(
            subject=persona,
            scopes=users[persona].grantable_scopes,
            roles=users[persona].roles,
            expires_at=0,
            issuer=stack.issuer,
        )
        for tool in TOOLS:
            if authorize(identity, tool, policy, registry).allowed:
                engine_allows.add((persona, tool))

    wire_allows = set()
    for persona in PERSONAS:
        token = stack.idp.core.issue_token_for(persona)
        for tool in TOOLS:
            doc = mcp_post(
                stack.mcp_url, rpc("tools/call", 1, {"name": tool, "arguments": {}}),
                token,
            ).json()
            if "result" in doc:
                wire_allows.add((persona, tool))
            else:
                assert doc["error"]["code"] == -32001

    report(
        2,
        "12-cell role/tool matrix matches the published mapping exactly",
        engine_allows == EXPECTED_ALLOWS and wire_allows == EXPECTED_ALLOWS,
        f"engine={len(engine_allows)} allows, wire={len(wire_allows)} allows",
    )


def _mutant_corpus(core: MockIdp, audience: str) -> list[tuple[str, type[TokenError]]]:
    """>= 500 tokens, each one single defect away from valid."""
    per_category = MUTANT_COUNT // 8
    corpus: list[tuple[str, type[TokenError]]] = []
    base_scopes = frozenset({"openid", "profile", "mcp.docs.read"})
    now = int(time.time())

    base = core.issue_token_for("developer-persona")
    head, body, sig = base.split(".")
    raw_sig = bytearray(oracles.b64url_to_bytes(sig))
    for i in range(per_category):  # bit-flipped signatures
        flipped = bytearray(raw_sig)
        flipped[i % len(flipped)] ^= 1 << (i % 8)
        corpus.append((f"{head}.{body}.{b64url_encode(bytes(flipped))}", SignatureInvalid))

    def craft(header: dict, claims: dict) -> str:
        segments = [
            b64url_encode(json.dumps(header).encode()),
            b64url_encode(json.dumps(claims).encode()),
            b64url_encode(b"sig"),
        ]
        return ".".join(segments)

    claims = core.standard_claims("developer-persona", base_scopes)
    for i in range(per_category):  # algorithm downgrades
        alg = "none" if i % 2 == 0 else "HS256"
        corpus.append((craft({"alg": alg, "kid": "key-x"}, claims), UnsupportedAlgorithm))

    for i in range(per_category):  # wrong issuer
        mutated = core.standard_claims("developer-persona", base_scopes)
        mutated["iss"] = f"http://attacker-{i}.test/realms/master"
        corpus.append((core.sign_claims(mutated), WrongIssuer))

    for i in range(per_category):  # wrong audience
        mutated = core.standard_claims("developer-persona", base_scopes)
        mutated["aud"] = [f"http://elsewhere-{i}.test/mcp"]
        corpus.append((core.sign_claims(mutated), WrongAudience))

    for i in range(per_category):  # expired
        mutated = core.standard_claims("developer-persona", base_scopes)
        mutated["iat"] = now - 7200 - i
        mutated["exp"] = now - 3600 - i
        corpus.append((core.sign_claims(mutated), Expired))

    for i in range(per_category):  # not yet valid
        mutated = core.standard_claims("developer-persona", base_scopes)
        mutated["nbf"] = now + 3600 + i
        corpus.append((core.sign_claims(mutated), NotYetValid))

    for i in range(per_category):  # stripped scopes
        scopes = frozenset() if i % 2 == 0 else frozenset({"openid"})
        mutated = core.standard_claims("developer-persona", scopes)
        corpus.append((core.sign_claims(mutated), InsufficientScope))

    for i in range(per_category):  # unknown kid
        mutated = core.standard_claims("developer-persona", base_scopes)
        token = core.sign_claims(mutated)
        head_i, body_i, sig_i = token.split(".")
        ghost = b64url_encode(
            json.dumps({"alg": "RS256", "kid": f"ghost-{i}", "typ": "JWT"}).encode()
        )
        corpus.append((f"{ghost}.{body_i}.{sig_i}", UnknownKeyId))

    assert len(corpus) == MUTANT_COUNT
    return corpus


def test_criterion_3_mutated_token_corpus(counted_stack):
    stack, counting = counted_stack
    core = stack.idp.core
    corpus = _mutant_corpus(core, stack.server.resource_url)

    # Route A: direct verification pins the designated error class.
    config = stack.server.app.verifier_config
    cache = JwksCache(stack.issuer, ttl=300.0)
    wrong_class = 0
    for token, expected_error in corpus:
        try:
            verify_bearer(token, config, cache)
        except expected_error:
            pass
        except TokenError:
            wrong_class += 1
        else:
            wrong_class += 1

    # Route B: the wire. Every mutant is challenged and none reaches a
    # tool handler or produces a non-unauthenticated audit record.
    call = rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})
    non_401 = 0
    for token, _ in corpus:
        reply = mcp_post(stack.mcp_url, call, token)
        if reply.status != 401:
            non_401 += 1
    records = read_records(stack.audit_path)
    dispatched = counting.calls
    bad_records = [r for r in records if r["decision"] != "unauthenticated"]

    report(
        3,
        f"{MUTANT_COUNT} mutated tokens all rejected with designated errors, "
        "zero reach dispatch",
        wrong_class == 0
        and non_401 == 0
        and dispatched == 0
        and not bad_records
        and len(records) == MUTANT_COUNT,
        f"wrong_class={wrong_class} non_401={non_401} dispatched={dispatched} "
        f"records={len(records)}",
    )


def test_criterion_4_pkce_property_and_single_use_race(idp_core):
    rng = random.Random(0x5256)
    mismatches_ok = True
    matches_ok = True
    for i in range(PKCE_TRIALS):
        pkce = generate_pkce()
        location = idp_core.handle_authorize({
            "response_type": "code",
            "client_id": "ide-extension",
            "redirect_uri": "http://localhost:33418/callback",
            "scope": "openid profile",
            "code_challenge": pkce.challenge,
            "code_challenge_method": "S256",
            "username": rng.choice(PERSONAS),
        })
        code = parse_qs(urlsplit(location).query)["code"][0]
        should_match = rng.random() < 0.5
        if should_match:
            verifier = pkce.verifier
        elif rng.random() < 0.5:
            verifier = generate_pkce().verifier  # unrelated verifier
        else:
            last = pkce.verifier[-1]
            verifier = pkce.verifier[:-1] + ("A" if last != "A" else "B")
        params = {
            "grant_type": "authorization_code",
            "code": code,
            "code_verifier": verifier,
            "client_id": "ide-extension",
            "redirect_uri": "http://localhost:33418/callback",
        }
        try:
            response = idp_core.handle_token(params)
            succeeded = "access_token" in response
        except PkceVerificationFailed:
            succeeded = False
        if should_match and not succeeded:
            matches_ok = False
        if not should_match and succeeded:
            mismatches_ok = False

    pkce = generate_pkce()
    location = idp_core.handle_authorize({
        "response_type": "code",
        "client_id": "ide-extension",
        "redirect_uri": "http://localhost:33418/callback",
        "scope": "openid profile",
        "code_challenge": pkce.challenge,
        "code_challenge_method": "S256",
        "username": "developer-persona",
    })
    code = parse_qs(urlsplit(location).query)["code"][0]
    outcomes: list[bool] = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def redeem():
        barrier.wait()
        try:
            idp_core.handle_token({
                "grant_type": "authorization_code",
                "code": code,
                "code_verifier": pkce.verifier,
                "client_id": "ide-extension",
                "redirect_uri": "http://localhost:33418/callback",
            })
            won = True
        except InvalidGrant:
            won = False
        with lock:
            outcomes.append(won)

    threads = [threading.Thread(target=redeem) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    winners = sum(outcomes)

    report(
        4,
        f"{PKCE_TRIALS} randomized PKCE trials behave iff-S256-match; "
        "8-way redemption race has one winner",
        matches_ok and mismatches_ok and winners == 1 and len(outcomes) == 8,
        f"matches_ok={matches_ok} mismatches_ok={mismatches_ok} winners={winners}",
    )


def test_criterion_5_latency_characteristics(stack):
    started = time.monotonic()
    hit = bench.bench_cache_hit(stack.idp.core, stack.server.resource_url)
    miss = bench.bench_cache_miss(stack.idp.core, stack.server.resource_url)
    e2e = bench.bench_end_to_end(
        stack.idp.core, stack.mcp_url, server_cache=stack.server.app.cache
    )
    wall = time.monotonic() - started
    checks = {
        "hit_p50_under_5ms": hit.p50_us < MAX_HIT_P50_US,
        "miss_p50_gt_hit_p50": miss.p50_us > hit.p50_us,
        "e2e_p50_gt_hit_p50": e2e.p50_us > hit.p50_us,
        "e2e_p50_under_120ms": e2e.p50_us < MAX_END_TO_END_P50_US,
        "bench_under_60s": wall < MAX_BENCH_SECONDS,
    }
    reference = {s: bench.REFERENCE_MS[s] for s in bench.SCENARIOS}
    report(
        5,
        "latency orderings hold (reference envelope reported, not asserted)",
        all(checks.values()),
        f"hit={hit.p50_us}us miss={miss.p50_us}us e2e={e2e.p50_us}us "
        f"wall={wall:.1f}s reference_ms={reference} checks={checks}",
    )


def test_criterion_6_discovery_byte_accuracy(tmp_path):
    registry = default_registry()
    handle = serve(
        ServerConfig(audit_sink=str(tmp_path / "audit.jsonl")),  # reference defaults
        default_policy(registry),
        registry,
    )
    try:
        bare = httpclient.get(
            "http://localhost:8000/.well-known/oauth-protected-resource"
        )
        suffixed = httpclient.get(
            "http://localhost:8000/.well-known/oauth-protected-resource/mcp"
        )
        passed = (
            bare.status == 200
            and suffixed.status == 200
            and bare.json() == PUBLISHED_DESCRIPTOR
            and suffixed.json() == PUBLISHED_DESCRIPTOR
        )
        report(
            6,
            "published protected-resource descriptor reproduced verbatim on both paths",
            passed,
            f"bare={bare.json() if bare.status == 200 else bare.status}",
        )
    finally:
        handle.stop()


def test_criterion_7_audit_bijection(stack):
    registry = default_registry()
    policy = default_policy(registry)
    tokens = {p: stack.idp.core.issue_token_for(p) for p in PERSONAS}
    pairs = [(p, t) for p in PERSONAS for t in TOOLS]
    for i in range(100):
        persona, tool = pairs[i % len(pairs)]
        reply = mcp_post(
            stack.mcp_url,
            rpc("tools/call", i, {"name": tool, "arguments": {}}),
            tokens[persona],
        )
        assert reply.status == 200

    records = read_records(stack.audit_path)
    replay_consistent = True
    for record in records:
        identity = ValidatedIdentity(
            subject=record["subject"],
            scopes=frozenset(record["scopes"]),
            roles=frozenset(record["roles"]),
            expires_at=0,
            issuer=stack.issuer,
        )
        decision = authorize(identity, record["tool"], policy, registry)
        if decision.outcome != record["decision"]:
            replay_consistent = False
        if decision.outcome == "deny":
            if record.get("deny_reason", {}).get("kind") != decision.reason:
                replay_consistent = False
            if decision.missing_scopes and sorted(decision.missing_scopes) != record[
                "deny_reason"
            ].get("missing"):
                replay_consistent = False
        elif "deny_reason" in record:
            replay_consistent = False
    unique_ids = len({r["request_id"] for r in records})

    report(
        7,
        "100 mixed tools/call requests produce exactly 100 replay-consistent records",
        len(records) == 100 and unique_ids == 100 and replay_consistent,
        f"records={len(records)} unique_ids={unique_ids} consistent={replay_consistent}",
    )


def test_criterion_8_warm_start_sso(stack, tmp_path):
    store = TokenStore(str(tmp_path / "tokens.json"))
    cold = run_sequence(stack.mcp_url, "developer-persona", token_store=store)
    assert cold.indices() == list(range(1, 14))
    before = stack.idp.total_requests
    warm = run_sequence(stack.mcp_url, "developer-persona", token_store=store)
    delta = stack.idp.total_requests - before
    completed = "result" in warm.final_step.response_summary
    report(
        8,
        "second run within token lifetime touches the provider zero times",
        delta == 0 and completed and warm.indices() == [10, 11, 12, 13],
        f"idp_request_delta={delta} warm_steps={warm.indices()}",
    )


def test_criterion_9_no_refresh_tokens(stack, idp_core):
    offending = 0
    rng = random.Random(9)
    for _ in range(30):
        persona = rng.choice(PERSONAS)
        pkce = generate_pkce()
        location = idp_core.handle_authorize({
            "response_type": "code",
            "client_id": "ide-extension",
            "redirect_uri": "http://localhost:33418/callback",
            "scope": "openid profile",
            "code_challenge": pkce.challenge,
            "code_challenge_method": "S256",
            "username": persona,
        })
        code = parse_qs(urlsplit(location).query)["code"][0]
        response = idp_core.handle_token({
            "grant_type": "authorization_code",
            "code": code,
            "code_verifier": pkce.verifier,
            "client_id": "ide-extension",
            "redirect_uri": "http://localhost:33418/callback",
        })
        if "refresh_token" in response:
            offending += 1

    # And over the wire, where the response is raw JSON.
    from urllib.parse import urlencode

    pkce = generate_pkce()
    query = urlencode({
        "response_type": "code",
        "client_id": "ide-extension",
        "redirect_uri": "http://localhost:33418/callback",
        "scope": "openid profile",
        "code_challenge": pkce.challenge,
        "code_challenge_method": "S256",
        "username": "developer-persona",
    })
    reply = httpclient.get(f"{stack.issuer}/authorize?{query}")
    code = parse_qs(urlsplit(reply.header("location")).query)["code"][0]
    wire = httpclient.post(
        f"{stack.issuer}/token",
        urlencode({
            "grant_type": "authorization_code",
            "code": code,
            "code_verifier": pkce.verifier,
            "client_id": "ide-extension",
            "redirect_uri": "http://localhost:33418/callback",
        }).encode(),
        {"Content-Type": "application/x-www-form-urlencoded"},
    ).json()
    report(
        9,
        "no token response ever carries refresh_token (harness also enforces "
        "this on every flow in the suite)",
        offending == 0 and "refresh_token" not in wire,
        f"offending={offending} wire_keys={sorted(wire)}",
    )
