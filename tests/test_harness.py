import base64
import dataclasses
import fcntl
import hashlib
import json
import logging
import os
import re
import stat
import sys
import threading
from collections import Counter
from urllib.parse import parse_qs

import pytest

from mcpidg import cli, harness, httpclient, httpserve, tokens
from mcpidg.harness import (
    AuthFlowError,
    FlowTranscript,
    StepFailure,
    Unauthorized,
    acquire_token,
    call_tool,
    discover_oidc,
    generate_pkce,
    parse_www_authenticate,
    run_sequence,
)
from mcpidg.tokenstore import TokenStore


class TestPkce:
    def test_verifier_length_and_charset(self):
        pkce = generate_pkce()
        assert 43 <= len(pkce.verifier) <= 128
        allowed = set(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
        )
        assert set(pkce.verifier) <= allowed
        digest = hashlib.sha256(pkce.verifier.encode("ascii")).digest()  # RFC 7636 §4.2
        assert pkce.challenge == base64.urlsafe_b64encode(digest).rstrip(b"=").decode()

    def test_fresh_verifier_every_time(self):
        assert generate_pkce().verifier != generate_pkce().verifier


class TestWwwAuthenticateParsing:
    def test_parses_parameters(self):
        params = parse_www_authenticate(
            'Bearer resource_metadata="http://h/.well-known/oauth-protected-resource", '
            'error="invalid_token"'
        )
        assert params["resource_metadata"].endswith("oauth-protected-resource")
        assert params["error"] == "invalid_token"

    def test_quoted_values_keep_commas_and_quoted_pairs(self):
        params = parse_www_authenticate(
            'Bearer resource_metadata="http://h/meta?a=1,b=2", error="invalid_token",'
            ' Error_Description="say \\"no\\", \\\\", scope=openid'
        )
        assert params == {
            "resource_metadata": "http://h/meta?a=1,b=2",
            "error": "invalid_token",
            "error_description": 'say "no", \\',
            "scope": "openid",
        }

    def test_rejects_non_bearer(self):
        with pytest.raises(AuthFlowError):
            parse_www_authenticate('Basic realm="x"')

    @pytest.mark.parametrize("value", ['Bearer realm="open', "Bearer a=b c=d", "Bearer =x"])
    def test_rejects_malformed_parameters(self, value):
        with pytest.raises(AuthFlowError):
            parse_www_authenticate(value)


class TestTranscriptModel:
    def test_indices_must_increase(self):
        t = FlowTranscript()
        t.add(1, "a", "r", "s")
        with pytest.raises(ValueError):
            t.add(1, "b", "r", "s")

    def test_indices_must_stay_in_range(self):
        t = FlowTranscript()
        with pytest.raises(ValueError):
            t.add(14, "x", "r", "s")

    def test_jsonl_round_trips(self):
        t = FlowTranscript()
        t.add(1, "a", "req", "resp", 12)
        lines = t.to_jsonl().splitlines()
        assert json.loads(lines[0])["index"] == 1

    def test_jsonl_keeps_its_field_order_and_separators(self):
        t = FlowTranscript()
        t.add(1, "a", "req", "resp", 12)
        t.add(2, "b", "(response to step 1)", "s")
        assert t.to_jsonl() == (
            '{"index":1,"description":"a","request_summary":"req",'
            '"response_summary":"resp","wall_latency_us":12}\n'
            '{"index":2,"description":"b","request_summary":"(response to step 1)",'
            '"response_summary":"s","wall_latency_us":0}'
        )


class TestColdSequence:
    def test_developer_docs_search_thirteen_steps(self, stack):
        transcript = run_sequence(stack.mcp_url, "developer-persona")
        assert transcript.indices() == list(range(1, 14))
        final = transcript.final_step
        assert final.index == 13
        assert "result" in final.response_summary
        assert "error" not in final.response_summary

    def test_contractor_code_search_completes_with_deny(self, stack):
        transcript = run_sequence(
            stack.mcp_url, "contractor-persona", tool="code_search"
        )
        assert transcript.indices() == list(range(1, 14))
        assert "error -32001" in transcript.final_step.response_summary

    def test_transcript_shape_exactly_one_challenge(self, stack):
        transcript = run_sequence(stack.mcp_url, "developer-persona")
        # Match the status, not "401" inside a URL's port (e.g. :40197).
        challenged = [
            s for s in transcript.steps
            if re.search(r"(^|status )401\b", s.response_summary)
        ]
        assert len(challenged) == 1 and challenged[0].index == 1

    def test_idp_outage_fails_at_step_seven(self, stack):
        stack.idp.stop()
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(stack.mcp_url, "developer-persona")
        assert excinfo.value.index == 7
        assert [s.index for s in excinfo.value.transcript.steps] == list(range(1, 7))

    def test_transcript_never_contains_the_token(self, stack, tmp_path):
        store = TokenStore(str(tmp_path / "tokens.json"))
        transcript = run_sequence(
            stack.mcp_url, "developer-persona", token_store=store
        )
        token = store.get(stack.mcp_url).access_token
        dump = transcript.to_jsonl()
        assert token not in dump
        for segment in token.split("."):
            assert segment not in dump

    def test_bearer_mode_body_end_to_end(self, stack):
        transcript = run_sequence(
            stack.mcp_url, "developer-persona", bearer_mode="body"
        )
        assert "result" in transcript.final_step.response_summary


class TestWarmStart:
    def test_second_run_skips_idp_entirely(self, stack, tmp_path):
        store = TokenStore(str(tmp_path / "tokens.json"))
        cold = run_sequence(stack.mcp_url, "developer-persona", token_store=store)
        assert cold.indices() == list(range(1, 14))
        before = stack.idp.total_requests
        warm = run_sequence(stack.mcp_url, "developer-persona", token_store=store)
        assert stack.idp.total_requests == before, "warm start must not touch the IdP"
        assert warm.indices() == [10, 11, 12, 13]
        assert "result" in warm.final_step.response_summary

    def test_expired_cache_entry_triggers_full_flow(self, stack, tmp_path):
        store = TokenStore(str(tmp_path / "tokens.json"))
        store.put(stack.mcp_url, "stale-token", expires_at=0)
        transcript = run_sequence(stack.mcp_url, "developer-persona", token_store=store)
        assert transcript.indices() == list(range(1, 14))


class TestAcquireToken:
    def test_scope_narrowing_is_silent(self, stack):
        discovery = discover_oidc(stack.issuer)
        response = acquire_token(
            discovery,
            "contractor-persona",
            generate_pkce(),
            frozenset({"openid", "profile", "mcp.ops.read"}),
        )
        import oracles

        _, claims, _, _ = oracles.decode_compact(response["access_token"])
        assert "mcp.ops.read" not in claims["scope"]

    def test_verifier_binds_per_code_not_globally(self, stack):
        discovery = discover_oidc(stack.issuer)
        pkce = generate_pkce()
        first = acquire_token(
            discovery, "developer-persona", pkce, frozenset({"openid", "profile"})
        )
        second = acquire_token(
            discovery, "developer-persona", pkce, frozenset({"openid", "profile"})
        )
        assert first["access_token"] != second["access_token"]

    def test_idp_error_wrapped(self, stack):
        discovery = discover_oidc(stack.issuer)
        with pytest.raises(AuthFlowError):
            acquire_token(
                discovery,
                "developer-persona",
                generate_pkce(),
                frozenset({"openid"}),
                redirect_uri="http://not-whitelisted/cb",
            )


class TestCallTool:
    def test_header_and_body_modes_identical(self, stack):
        token = stack.idp.core.issue_token_for("developer-persona")
        via_header = call_tool(stack.mcp_url, token, "docs_search", {"query": "q"})
        via_body = call_tool(
            stack.mcp_url, token, "docs_search", {"query": "q"}, bearer_mode="body"
        )
        assert via_header.result == via_body.result

    def test_expired_token_is_unauthorized(self, stack):
        token = stack.idp.core.issue_token_for("developer-persona", lifetime=-3600)
        with pytest.raises(Unauthorized):
            call_tool(stack.mcp_url, token, "docs_search")

    def test_dead_server_is_transport_error(self):
        from mcpidg.harness import TransportError

        with pytest.raises(TransportError):
            call_tool("http://127.0.0.1:9/mcp", "tok", "docs_search")


def _refuse_after_initialize(monkeypatch):
    """The server vanishes once initialize has been answered."""
    real_post = httpclient.post

    def post(url, body, headers=None, timeout=10.0):
        if b"notifications/initialized" in body:
            raise ConnectionRefusedError("connection refused")
        return real_post(url, body, headers, timeout)

    monkeypatch.setattr(httpclient, "post", post)


class TestTransportFailureAfterInitialize:
    def test_run_sequence_fails_at_step_10(self, stack, monkeypatch):
        _refuse_after_initialize(monkeypatch)
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(stack.mcp_url, "developer-persona")
        assert excinfo.value.index == 10
        assert "refused" in excinfo.value.detail

    def test_conformance_exits_1_without_traceback(self, monkeypatch, capsys, caplog):
        _refuse_after_initialize(monkeypatch)
        exit_code = cli.main([
            "conformance", "--self-contained",
            "--persona", "developer", "--tool", "docs_search",
        ])
        assert exit_code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not any(r.exc_info for r in caplog.records)


class _CannedReplies:
    """Routes GET and POST on each path set here to its (status, body, headers)."""

    def __init__(self, routes):
        self.routes = routes

    def __setitem__(self, path, canned):
        status, body, headers = canned
        reply = lambda query, request_headers, request_body: httpserve.Reply(status, headers, body)
        self.routes["GET", path] = self.routes["POST", path] = reply


@pytest.fixture
def stub():
    """A server whose replies each test sets; ``stub.base`` is its origin."""
    server = httpserve.HttpServer("127.0.0.1:0", logging.getLogger("tests.stub"))
    server.base = f"http://127.0.0.1:{server.port}"
    server.replies = _CannedReplies(server.routes)
    server.start("stub")
    yield server
    server.stop()


def _challenging_resource(stub, metadata: bytes) -> str:
    """Make the stub a resource server that challenges and serves ``metadata``."""
    challenge = f'Bearer resource_metadata="{stub.base}/.well-known/oauth-protected-resource"'
    stub.replies["/mcp"] = (401, b"", {"WWW-Authenticate": challenge})
    for path in ("/.well-known/oauth-protected-resource",
                 "/.well-known/oauth-protected-resource/mcp"):
        stub.replies[path] = (200, metadata, {"Content-Type": "application/json"})
    return f"{stub.base}/mcp"


def _stub_provider(stub, token_body: bytes = b"{}", **discovery):
    """Make the stub an identity provider; ``discovery`` overrides document fields.

    Returns its issuer and the requests its authorize and token endpoints got.
    """
    issuer = f"{stub.base}/realms/x"
    document = {
        "issuer": issuer, "authorization_endpoint": f"{issuer}/authorize",
        "token_endpoint": f"{issuer}/token", "jwks_uri": f"{issuer}/jwks", **discovery,
    }
    discovery_path = "/realms/x/.well-known/openid-configuration"
    stub.replies[discovery_path] = (200, json.dumps(document).encode(), {})
    calls = Counter()

    def authorize(query, headers, body):
        calls["authorize"] += 1
        state = parse_qs(query)["state"][0]
        return httpserve.Reply(302, {"Location": f"http://cb.test/?code=c&state={state}"})

    def token(query, headers, body):
        calls["token"] += 1
        return httpserve.Reply(200, {"Content-Type": "application/json"}, token_body)

    stub.routes["GET", "/realms/x/authorize"] = authorize
    stub.routes["POST", "/realms/x/token"] = token
    return issuer, calls


class TestMalformedReplies:
    """A reply that is not the JSON the flow expects is a step failure, not a crash."""

    def test_challenge_without_bearer_scheme_fails_at_step_2(self, stub):
        mcp_url = _challenging_resource(stub, b"{}")
        stub.replies["/mcp"] = (401, b"", {})
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona")
        assert excinfo.value.index == 2

    @pytest.mark.parametrize("body", [b"<html>sign in</html>", b"\xff", b"[1, 2]"])
    def test_metadata_not_a_json_object_fails_at_step_4(self, stub, body):
        mcp_url = _challenging_resource(stub, body)
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona")
        assert excinfo.value.index == 4

    @pytest.mark.parametrize("metadata", [
        {"resource": 7, "authorization_servers": ["http://idp.test"]},
        {"resource": "http://rs/mcp", "authorization_servers": [7]},
        {"resource": "http://rs/mcp", "authorization_servers": {"a": 1}},
    ], ids=["resource-not-a-string", "server-not-a-string", "servers-not-an-array"])
    def test_metadata_of_another_shape_fails_at_step_4(self, stub, metadata):
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona")
        assert excinfo.value.index == 4

    def test_discovery_naming_another_issuer_fails_at_step_7_before_the_code_flow(
        self, stub, caplog
    ):
        assert harness.discover_oidc is tokens.discover_oidc
        issuer, calls = _stub_provider(stub, issuer="https://attacker.example/realms/master")
        metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": [issuer]}
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona")
        assert excinfo.value.index == 7
        assert "attacker.example" in excinfo.value.detail
        with caplog.at_level(logging.ERROR, logger="mcpidg"):
            exit_code = cli.main(["conformance", "--mcp-url", mcp_url, "--persona", "developer"])
        assert exit_code == 1
        assert not any(r.exc_info for r in caplog.records)
        assert calls == {}, "the code flow must not reach a provider that names another issuer"

    @pytest.mark.parametrize(
        "expires_in", [b"null", b'"300"', b"true", b"1" + b"0" * 400],
        ids=["null", "string", "true", "beyond-a-float"],
    )
    def test_token_response_expires_in_not_a_number_fails_at_step_7(
        self, stub, tmp_path, expires_in
    ):
        token_body = b'{"access_token":"t","token_type":"Bearer","expires_in":' + expires_in + b"}"
        issuer, calls = _stub_provider(stub, token_body)
        metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": [issuer]}
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        store = TokenStore(str(tmp_path / "tokens.json"))
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona", token_store=store)
        assert excinfo.value.index == 7
        assert calls == {"authorize": 1, "token": 1}

    @pytest.mark.parametrize("body", [b"<html>sign in</html>", b"[]", b"{}"])
    def test_unusable_discovery_document_fails_at_step_7(self, stub, body):
        metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": [f"{stub.base}/realms/x"]}
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        stub.replies["/realms/x/.well-known/openid-configuration"] = (200, body, {})
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona")
        assert excinfo.value.index == 7

    def test_token_response_not_json_is_auth_flow_error(self, stack, stub):
        discovery = discover_oidc(stack.issuer)
        discovery["token_endpoint"] = f"{stub.base}/token"
        stub.replies["/token"] = (200, b"<html>sign in</html>", {})
        with pytest.raises(AuthFlowError):
            acquire_token(
                discovery, "developer-persona", generate_pkce(), frozenset({"openid"})
            )

    def test_conformance_exits_1_without_traceback(self, stub, capsys, caplog):
        mcp_url = _challenging_resource(stub, b"<html>sign in</html>")
        exit_code = cli.main(["conformance", "--mcp-url", mcp_url, "--persona", "developer"])
        assert exit_code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not any(r.exc_info for r in caplog.records)


def _key_provider(stub, signer, discovery_status=200, jwks_status=200, jwks=None, **discovery):
    """Make the stub a provider serving ``signer``'s key set, or the reply the arguments spoil."""
    issuer, _ = _stub_provider(stub, **discovery)
    if discovery_status != 200:
        stub.replies["/realms/x/.well-known/openid-configuration"] = (discovery_status, b"", {})
    document = signer.jwks_document() if jwks is None else jwks
    stub.replies["/realms/x/jwks"] = (jwks_status, json.dumps(document).encode(), {})
    return issuer


class TestKeyFetchFailsClosed:
    """The default fetcher refuses an unusable reply; the next get() fetches again."""

    @pytest.mark.parametrize("spoiled, cause", [
        ({"discovery_status": 503}, "discovery endpoint returned 503"),
        ({"jwks_uri": None}, "lacks a string jwks_uri"),
        ({"jwks_status": 500}, "JWKS endpoint returned 500"),
        ({"jwks": {"kid": "k"}}, "'keys' array"),
    ], ids=["discovery-503", "no-jwks-uri", "jwks-500", "no-keys-array"])
    def test_unusable_reply_is_unreachable_until_a_good_one(self, stub, signer, spoiled, cause):
        cache = tokens.JwksCache(_key_provider(stub, signer, **spoiled))
        with pytest.raises(tokens.JwksUnreachable, match=cause):
            cache.get()
        _key_provider(stub, signer)
        assert cache.get().public_key(signer.active_kid()) is not None


def _token_response(token_type) -> bytes:
    """A token response whose token_type is ``token_type``, or absent for None."""
    body = {"access_token": "t", "expires_in": 300}
    if token_type is not None:
        body["token_type"] = token_type
    return json.dumps(body).encode()


class TestCodeFlowPerRfc6749:
    """The client side of the authorization-code exchange (RFC 6749 §3.1, §5.1)."""

    @pytest.mark.parametrize("token_type", ["DPoP", "mac", None], ids=["dpop", "mac", "absent"])
    def test_token_type_other_than_bearer_fails_at_step_7(self, stub, tmp_path, token_type):
        issuer, calls = _stub_provider(stub, _token_response(token_type))
        metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": [issuer]}
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        store = TokenStore(str(tmp_path / "tokens.json"))
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona", token_store=store)
        assert excinfo.value.index == 7
        assert "token_type" in excinfo.value.detail
        assert calls == {"authorize": 1, "token": 1}
        assert store.get(mcp_url) is None

    @pytest.mark.parametrize("token_type", ["Bearer", "bearer", "BEARER"])
    def test_bearer_in_any_case_is_accepted(self, stub, token_type):
        issuer, _ = _stub_provider(stub, _token_response(token_type))
        response = acquire_token(
            discover_oidc(issuer), "developer-persona", generate_pkce(), frozenset({"openid"})
        )
        assert response["token_type"] == token_type

    def test_conformance_with_a_dpop_token_exits_1_at_step_7(self, monkeypatch, capsys, caplog):
        real_post = httpclient.post

        def post(url, body, headers=None, timeout=10.0):
            reply = real_post(url, body, headers, timeout)
            if b"grant_type=authorization_code" in body:
                doc = {**json.loads(reply.body), "token_type": "DPoP"}
                reply = dataclasses.replace(reply, body=json.dumps(doc).encode())
            return reply

        monkeypatch.setattr(httpclient, "post", post)
        exit_code = cli.main(["conformance", "--self-contained", "--persona", "developer"])
        assert exit_code == 1
        assert "FAIL" not in capsys.readouterr().out
        assert any("failed at step 7" in r.getMessage() for r in caplog.records)
        assert not any(r.exc_info for r in caplog.records)

    def test_authorize_endpoint_query_is_kept(self, stub):
        issuer = f"{stub.base}/realms/x"
        _stub_provider(
            stub, _token_response("Bearer"), authorization_endpoint=f"{issuer}/authorize?tenant=acme"
        )
        authorize = stub.routes["GET", "/realms/x/authorize"]
        queries = []

        def recording(query, headers, body):
            queries.append(parse_qs(query))
            return authorize(query, headers, body)

        stub.routes["GET", "/realms/x/authorize"] = recording
        acquire_token(discover_oidc(issuer), "developer-persona", generate_pkce(), frozenset({"openid"}))
        [params] = queries
        assert params["tenant"] == ["acme"]
        assert params["response_type"] == ["code"]
        assert params["code_challenge_method"] == ["S256"]


class TestStepThirteen:
    """The conformance report judges the final tools/call by its outcome, not its wording."""

    @pytest.mark.parametrize("expect_deny, message", [
        (False, "no result"), (True, "error -32001 upstream"),
    ], ids=["error-mentioning-result", "other-error-mentioning-32001"])
    def test_another_error_fails_step_13(self, stub, tmp_path, capsys, expect_deny, message):
        def mcp(query, headers, body):
            doc = json.loads(body)
            if "id" not in doc:
                return httpserve.Reply(202, {}, b"")
            if doc["method"] == "tools/call":
                reply = {"error": {"code": -32603, "message": message}}
            else:
                reply = {"result": {}}
            reply.update(jsonrpc="2.0", id=doc["id"])
            return httpserve.Reply(200, {"Content-Type": "application/json"}, json.dumps(reply).encode())

        stub.routes["POST", "/mcp"] = mcp
        mcp_url = f"{stub.base}/mcp"
        store_path = str(tmp_path / "tokens.json")
        TokenStore(store_path).put(mcp_url, "tok", expires_at=9_999_999_999)
        argv = ["conformance", "--mcp-url", mcp_url, "--persona", "developer",
                "--token-store", store_path]
        assert cli.main(argv + ["--expect-deny"] * expect_deny) == 2
        failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failures) == 1 and failures[0].startswith("FAIL - step 13:")


class TestUnusableUrls:
    """A URL from a reply that is not a usable http(s) URL fails its step."""

    URLS = ["ftp://x/meta", "http://x:abc/meta"]

    @staticmethod
    def _challenge_naming(stub, url):
        stub.replies["/mcp"] = (401, b"", {"WWW-Authenticate": f'Bearer resource_metadata="{url}"'})
        return f"{stub.base}/mcp"

    @pytest.mark.parametrize("url", URLS)
    def test_metadata_url_fails_at_step_3(self, stub, url):
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(self._challenge_naming(stub, url), "developer-persona")
        assert excinfo.value.index == 3

    @pytest.mark.parametrize("url", URLS)
    def test_conformance_exits_1_without_traceback(self, stub, capsys, caplog, url):
        mcp_url = self._challenge_naming(stub, url)
        exit_code = cli.main(["conformance", "--mcp-url", mcp_url, "--persona", "developer"])
        assert exit_code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not any(r.exc_info for r in caplog.records)


class TestTokenStore:
    def test_put_then_get(self, tmp_path):
        store = TokenStore(str(tmp_path / "t.json"))
        store.put("http://rs/mcp", "tok", expires_at=9_999_999_999)
        entry = store.get("http://rs/mcp")
        assert entry.access_token == "tok"

    def test_get_after_expiry_is_absent(self, tmp_path):
        store = TokenStore(str(tmp_path / "t.json"))
        store.put("http://rs/mcp", "tok", expires_at=1)
        assert store.get("http://rs/mcp") is None

    def test_owner_only_permissions(self, tmp_path):
        path = tmp_path / "t.json"
        store = TokenStore(str(path))
        store.put("http://rs/mcp", "tok", expires_at=9_999_999_999)
        mode = stat.S_IMODE(os.stat(path).st_mode)
        assert mode == 0o600

    def test_corrupt_file_treated_as_empty_with_warning(self, tmp_path, caplog):
        path = tmp_path / "t.json"
        path.write_text("{nope")
        store = TokenStore(str(path))
        import logging

        with caplog.at_level(logging.WARNING, logger="mcpidg.tokenstore"):
            assert store.get("anything") is None
        assert any("corrupt" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("text", [
        '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"entries": {"http://rs/mcp": {"access_token": "tok", "expires_at": NaN}}}',
    ], ids=["deeply-nested", "nan-expiry"])
    def test_file_that_is_not_rfc_8259_json_treated_as_empty_with_warning(
        self, tmp_path, caplog, text
    ):
        path = tmp_path / "t.json"
        path.write_text(text)
        with caplog.at_level(logging.WARNING, logger="mcpidg.tokenstore"):
            assert TokenStore(str(path)).get("http://rs/mcp") is None
        assert any("corrupt" in r.getMessage() for r in caplog.records)

    def test_conformance_with_a_directory_for_a_store_exits_1_naming_it(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="mcpidg"):
            exit_code = cli.main([
                "conformance", "--mcp-url", "http://127.0.0.1:9/mcp",
                "--persona", "developer", "--token-store", str(tmp_path),
            ])
        assert exit_code == 1
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(tmp_path) in errors[0].getMessage()
        assert errors[0].exc_info is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = TokenStore(str(tmp_path / "t.json"))
        for i in range(5):
            store.put(f"http://rs{i}/mcp", "tok", expires_at=9_999_999_999)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_concurrent_puts_keep_both_entries(self, tmp_path, monkeypatch):
        """Writer A reads the file, then waits until writer B has written or waits to."""
        path = str(tmp_path / "t.json")
        writer_a, writer_b = TokenStore(path), TokenStore(path)
        b_settled = threading.Event()
        b_thread = threading.Thread(target=lambda: (
            writer_b.put("http://rs-b/mcp", "tok-b", expires_at=9_999_999_999), b_settled.set()
        ))
        real_flock, real_load = fcntl.flock, writer_a._load
        lock_modes = []

        def flock(fd, operation):
            if threading.current_thread() is b_thread:
                b_settled.set()  # B is about to wait for the lock
            return real_flock(fd, operation)

        def load_then_let_b_in():
            entries = real_load()
            lock = path + ".lock"
            lock_modes.append(stat.S_IMODE(os.stat(lock).st_mode) if os.path.exists(lock) else None)
            b_thread.start()
            assert b_settled.wait(timeout=10)
            return entries

        monkeypatch.setattr(fcntl, "flock", flock)
        monkeypatch.setattr(writer_a, "_load", load_then_let_b_in)
        writer_a.put("http://rs-a/mcp", "tok-a", expires_at=9_999_999_999)
        b_thread.join(timeout=10)
        assert not b_thread.is_alive()
        reader = TokenStore(path)
        assert [reader.get(f"http://rs-{w}/mcp") is not None for w in "ab"] == [True, True]
        assert lock_modes == [0o600]

    def test_many_writers_lose_no_entry(self, tmp_path):
        path = str(tmp_path / "t.json")

        def writer(w: int) -> None:
            store = TokenStore(path)
            for i in range(5):
                store.put(f"http://rs-{w}-{i}/mcp", "tok", expires_at=9_999_999_999)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        reader = TokenStore(path)
        assert all(reader.get(f"http://rs-{w}-{i}/mcp") for w in range(8) for i in range(5))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_failed_replace_keeps_the_old_store_and_leaves_nothing_beside_it(
        self, tmp_path, monkeypatch
    ):
        store = TokenStore(str(tmp_path / "t.json"))
        store.put("http://rs/mcp", "old", expires_at=9_999_999_999)

        def refuse(src, dst):
            raise OSError("no space left")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no space left"):
            store.put("http://rs/mcp", "new", expires_at=9_999_999_999)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]
        assert store.get("http://rs/mcp").access_token == "old"

    def test_multiple_resources_kept_separate(self, tmp_path):
        store = TokenStore(str(tmp_path / "t.json"))
        store.put("http://a/mcp", "tok-a", expires_at=9_999_999_999)
        store.put("http://b/mcp", "tok-b", expires_at=9_999_999_999)
        assert store.get("http://a/mcp").access_token == "tok-a"
        assert store.get("http://b/mcp").access_token == "tok-b"

    def test_concurrent_puts_from_four_threads(self, tmp_path):
        store = TokenStore(str(tmp_path / "t.json"))
        errors: list[BaseException] = []
        start = threading.Barrier(4)

        def writer(name):
            start.wait()
            try:
                for i in range(200):
                    store.put(f"http://{name}/mcp", f"tok-{i}", expires_at=9_999_999_999)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=writer, args=(n,)) for n in "abcd"]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        doc = json.loads((tmp_path / "t.json").read_text())
        assert set(doc["entries"]) <= {f"http://{n}/mcp" for n in "abcd"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def _provider_behind_resource(stub, token_body: bytes = b"{}"):
    """Make the stub both a challenging resource and its provider; returns the MCP URL."""
    issuer, calls = _stub_provider(stub, token_body)
    metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": [issuer]}
    return _challenging_resource(stub, json.dumps(metadata).encode()), calls


class TestResourceMetadataNamesTheRequestedResource:
    """RFC 9728 §3.3 and §7.3: metadata for another resource fails step 4."""

    @pytest.mark.parametrize("resource", [
        "http://attacker.example/mcp", "{base}/mcp/", "{base}/other", None,
    ], ids=["attacker", "trailing-slash", "other-path", "absent"])
    def test_fails_at_step_4_before_the_code_flow(self, stub, resource):
        issuer, calls = _stub_provider(stub)
        metadata = {"authorization_servers": [issuer]}
        if resource is not None:
            metadata["resource"] = resource.format(base=stub.base)
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona")
        assert excinfo.value.index == 4
        assert repr(mcp_url) in excinfo.value.detail
        assert excinfo.value.transcript.indices() == [1, 2]
        assert calls == {}

    def test_conformance_against_rewritten_metadata_exits_1_at_step_4(
        self, monkeypatch, capsys, caplog
    ):
        real_get = httpclient.get

        def get(url, headers=None, timeout=10.0):
            reply = real_get(url, headers, timeout)
            if "/.well-known/oauth-protected-resource" in url:
                doc = {**json.loads(reply.body), "resource": "http://attacker.example/mcp"}
                reply = dataclasses.replace(reply, body=json.dumps(doc).encode())
            return reply

        monkeypatch.setattr(httpclient, "get", get)
        with caplog.at_level(logging.ERROR, logger="mcpidg"):
            exit_code = cli.main(["conformance", "--self-contained", "--persona", "developer"])
        assert exit_code == 1
        assert "FAIL" not in capsys.readouterr().out
        [error] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.startswith("sequence failed at step 4:")
        assert "attacker.example" in error


def _mcp_answering(stub, statuses: dict[str, int]) -> str:
    """Route /mcp: each method gets 200 with a result (a notification 202), or its status here."""

    def mcp(query, headers, body):
        doc = json.loads(body)
        status = statuses.get(doc["method"], 200 if "id" in doc else 202)
        reply = {"jsonrpc": "2.0", "id": doc.get("id"), "result": {}}
        payload = json.dumps(reply).encode() if status == 200 else b""
        return httpserve.Reply(status, {"Content-Type": "application/json"}, payload)

    stub.routes["POST", "/mcp"] = mcp
    return f"{stub.base}/mcp"


class TestEveryStepExit:
    """Each way a step can fail names its step and says why."""

    @staticmethod
    def _fails(mcp_url, index, store=None):
        with pytest.raises(StepFailure) as excinfo:
            run_sequence(mcp_url, "developer-persona", token_store=store)
        assert excinfo.value.index == index
        return excinfo.value

    @pytest.mark.parametrize("statuses, detail", [
        ({"initialize": 401}, "server rejected the bearer token on initialize"),
        ({"initialize": 500}, "initialize returned 500, wanted 200"),
        ({"notifications/initialized": 200},
         "notifications/initialized returned 200, wanted 202"),
        ({"notifications/initialized": 401},
         "server rejected the bearer token on notifications/initialized"),
        ({"tools/list": 403}, "tools/list returned 403, wanted 200"),
        ({"tools/list": 401}, "server rejected the bearer token on tools/list"),
        ({"tools/call": 401}, "server rejected the bearer token on tools/call"),
        ({"tools/call": 503}, "tools/call returned 503, wanted 200"),
    ], ids=["initialize-401", "initialize-500", "notification-200", "notification-401",
            "list-403", "list-401", "call-401", "call-503"])
    def test_step_10(self, stub, tmp_path, statuses, detail):
        mcp_url = _mcp_answering(stub, statuses)
        store = TokenStore(str(tmp_path / "tokens.json"))
        store.put(mcp_url, "tok", expires_at=9_999_999_999)
        failure = self._fails(mcp_url, 10, store)
        assert failure.detail == detail
        assert failure.transcript.steps == []

    def test_step_2_status_other_than_401(self, stub):
        mcp_url = _mcp_answering(stub, {})
        failure = self._fails(mcp_url, 2)
        assert failure.detail == "expected 401 challenge, got 200"
        assert failure.transcript.indices() == [1]

    def test_step_2_challenge_without_resource_metadata(self, stub):
        mcp_url = _challenging_resource(stub, b"{}")
        stub.replies["/mcp"] = (401, b"", {"WWW-Authenticate": 'Bearer error="invalid_token"'})
        failure = self._fails(mcp_url, 2)
        assert failure.detail == "401 challenge lacks a resource_metadata parameter"

    def test_step_4_metadata_status_other_than_200(self, stub):
        mcp_url = _challenging_resource(stub, b"{}")
        stub.replies["/.well-known/oauth-protected-resource"] = (404, b"", {})
        failure = self._fails(mcp_url, 4)
        assert failure.detail == "metadata endpoint returned 404"

    def test_step_5_suffixed_metadata_unreachable(self, stub, monkeypatch):
        mcp_url, _ = _provider_behind_resource(stub)
        real_get = httpclient.get

        def get(url, headers=None, timeout=10.0):
            if url.endswith("/oauth-protected-resource/mcp"):
                raise ConnectionRefusedError("connection refused")
            return real_get(url, headers, timeout)

        monkeypatch.setattr(httpclient, "get", get)
        failure = self._fails(mcp_url, 5)
        assert failure.detail == "suffixed metadata fetch failed: connection refused"
        assert failure.transcript.indices() == [1, 2, 3, 4]

    def test_step_5_inserts_the_well_known_path_before_the_resource_path(self, stub):
        # RFC 9728 §3.1: built from the resource, not appended to the challenge's URL.
        mcp_url, _ = _provider_behind_resource(stub)
        suffixed = f"{stub.base}/.well-known/oauth-protected-resource/mcp"
        stub.replies["/mcp"] = (
            401, b"", {"WWW-Authenticate": f'Bearer resource_metadata="{suffixed}"'}
        )
        failure = self._fails(mcp_url, 7)  # the stub's token reply holds no token
        assert failure.transcript.indices() == [1, 2, 3, 4, 5, 6]
        assert failure.transcript.step(3).request_summary == f"GET {suffixed}"
        assert failure.transcript.step(5).request_summary == f"GET {suffixed}"

    def test_step_6_suffixed_metadata_status_other_than_200(self, stub):
        mcp_url, _ = _provider_behind_resource(stub)
        stub.replies["/.well-known/oauth-protected-resource/mcp"] = (404, b"", {})
        failure = self._fails(mcp_url, 6)
        assert failure.detail == "suffixed metadata endpoint returned 404"

    def test_step_6_suffixed_metadata_differs(self, stub):
        issuer, calls = _stub_provider(stub)
        metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": [issuer]}
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        stub.replies["/.well-known/oauth-protected-resource/mcp"] = (
            200, json.dumps(metadata, indent=1).encode(), {}
        )
        failure = self._fails(mcp_url, 6)
        assert failure.detail == "metadata documents at the two well-known paths differ"
        assert calls == {}

    def test_step_7_metadata_without_authorization_servers(self, stub):
        metadata = {"resource": f"{stub.base}/mcp", "authorization_servers": []}
        mcp_url = _challenging_resource(stub, json.dumps(metadata).encode())
        failure = self._fails(mcp_url, 7)
        assert failure.detail == "metadata names no authorization servers"
        assert failure.transcript.indices() == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("location, detail", [
        ("http://cb.test/?state={state}", "redirect carries no authorization code"),
        ("http://cb.test/?code=c&state=other", "state parameter was not echoed back intact"),
    ], ids=["no-code", "state-not-echoed"])
    def test_step_7_unusable_redirect(self, stub, tmp_path, location, detail):
        mcp_url, calls = _provider_behind_resource(stub)

        def authorize(query, headers, body):
            calls["authorize"] += 1
            state = parse_qs(query)["state"][0]
            return httpserve.Reply(302, {"Location": location.format(state=state)})

        stub.routes["GET", "/realms/x/authorize"] = authorize
        store = TokenStore(str(tmp_path / "tokens.json"))
        failure = self._fails(mcp_url, 7, store)
        assert failure.detail == detail
        assert calls == {"authorize": 1}
        assert store.get(mcp_url) is None

    def test_step_7_token_endpoint_status_other_than_200(self, stub):
        mcp_url, _ = _provider_behind_resource(stub)
        stub.routes["POST", "/realms/x/token"] = lambda query, headers, body: httpserve.Reply(
            400, {"Content-Type": "application/json"}, b'{"error":"invalid_grant"}'
        )
        failure = self._fails(mcp_url, 7)
        assert failure.detail == 'token endpoint returned 400: {"error":"invalid_grant"}'

    @pytest.mark.parametrize("token_body, detail", [
        (b'{"access_token":"t","token_type":"Bearer","expires_in":300,"refresh_token":"r"}',
         "token response carries a refresh_token; none may be issued"),
        (b'{"token_type":"Bearer","expires_in":300}', "token response lacks an access_token"),
    ], ids=["refresh-token", "no-access-token"])
    def test_step_7_token_response_refused(self, stub, tmp_path, token_body, detail):
        mcp_url, calls = _provider_behind_resource(stub, token_body)
        store = TokenStore(str(tmp_path / "tokens.json"))
        failure = self._fails(mcp_url, 7, store)
        assert failure.detail == detail
        assert calls == {"authorize": 1, "token": 1}
        assert store.get(mcp_url) is None
