import json
import logging

import pytest

from conftest import mcp_post, rpc
from mcpidg import httpclient
from mcpidg.audit import AuditRecord, AuditSinkFailure, AuditLog, read_records
from mcpidg.httpserve import BindFailure
from mcpidg.policy import authorize
from mcpidg.server import (
    MalformedAuthorizationHeader,
    ProtectedResourceMetadata,
    ServerConfig,
    extract_bearer,
    metadata_document,
    serve,
)
from mcpidg.tokens import ValidatedIdentity, b64url_encode
from mcpidg.tools import default_policy, default_registry

REFERENCE_METADATA = {
    "resource": "http://localhost:8000/mcp",
    "scopes_supported": ["openid", "profile"],
    "authorization_servers": ["http://localhost:8081/realms/master"],
    "bearer_methods_supported": ["header", "body"],
}


def mint(stack, persona, **kwargs):
    return stack.idp.core.issue_token_for(persona, **kwargs)


def with_kid(token: str, kid: str) -> str:
    """The token under a header naming another key; the signature no longer holds."""
    header = b64url_encode(json.dumps({"alg": "RS256", "typ": "JWT", "kid": kid}).encode())
    return header + token[token.index("."):]


class TestMetadataDocument:
    def test_reference_config_reproduces_published_descriptor(self):
        config = ServerConfig(resource_url="http://localhost:8000/mcp")
        doc = metadata_document(config).to_dict()
        assert doc == REFERENCE_METADATA

    def test_encoding_is_byte_stable(self):
        config = ServerConfig(resource_url="http://localhost:8000/mcp")
        assert (
            metadata_document(config).to_json_bytes()
            == metadata_document(config).to_json_bytes()
        )

    def test_two_authorization_servers_supported(self):
        doc = ProtectedResourceMetadata(
            resource="http://localhost:8000/mcp",
            scopes_supported=("openid",),
            authorization_servers=("http://a.test", "http://b.test"),
        )
        assert len(doc.to_dict()["authorization_servers"]) == 2

    def test_empty_authorization_servers_rejected(self):
        with pytest.raises(ValueError):
            ProtectedResourceMetadata(
                resource="http://localhost:8000/mcp",
                scopes_supported=("openid",),
                authorization_servers=(),
            )

    def test_served_identically_at_both_well_known_paths(self, stack):
        origin = stack.server.metadata_url.rsplit("/.well-known", 1)[0]
        bare = httpclient.get(f"{origin}/.well-known/oauth-protected-resource")
        suffixed = httpclient.get(f"{origin}/.well-known/oauth-protected-resource/mcp")
        assert bare.status == suffixed.status == 200
        assert bare.body == suffixed.body
        doc = bare.json()
        assert set(doc) == set(REFERENCE_METADATA)
        assert doc["resource"] == stack.server.resource_url


class TestExtractBearer:
    def test_header_token(self):
        assert extract_bearer({"authorization": "Bearer abc"}, {}) == "abc"

    def test_body_token_when_no_header(self):
        doc = rpc("tools/call", 1, {"authorization": "xyz"})
        assert extract_bearer({}, doc) == "xyz"

    def test_header_wins_over_body(self):
        doc = rpc("tools/call", 1, {"authorization": "body-tok"})
        assert extract_bearer({"authorization": "Bearer head-tok"}, doc) == "head-tok"

    def test_basic_scheme_is_malformed(self):
        with pytest.raises(MalformedAuthorizationHeader):
            extract_bearer({"authorization": "Basic dXNlcg=="}, {})

    def test_empty_bearer_is_malformed(self):
        with pytest.raises(MalformedAuthorizationHeader):
            extract_bearer({"authorization": "Bearer "}, {})

    def test_nothing_presented(self):
        assert extract_bearer({}, None) is None  # the body was not JSON
        assert extract_bearer({}, {}) is None

    def test_scheme_is_case_insensitive(self):
        assert extract_bearer({"authorization": "bearer tok"}, {}) == "tok"


class TestChallenge:
    def test_no_credentials_omit_error_parameter(self, stack):
        reply = mcp_post(stack.mcp_url, rpc("initialize", 1))
        assert reply.status == 401
        challenge = reply.header("www-authenticate")
        assert challenge.startswith("Bearer ")
        assert "resource_metadata=" in challenge
        assert "error=" not in challenge

    def test_invalid_token_carries_error_parameter(self, stack):
        expired = mint(stack, "developer-persona", lifetime=-3600)
        reply = mcp_post(stack.mcp_url, rpc("initialize", 1), token=expired)
        assert reply.status == 401
        assert 'error="invalid_token"' in reply.header("www-authenticate")

    def test_challenge_metadata_url_is_followable(self, stack):
        reply = mcp_post(stack.mcp_url, rpc("initialize", 1))
        challenge = reply.header("www-authenticate")
        url = challenge.split('resource_metadata="')[1].split('"')[0]
        followed = httpclient.get(url)
        assert followed.status == 200
        assert set(followed.json()) == set(REFERENCE_METADATA)

    def test_access_log_line_emitted(self, stack, caplog):
        with caplog.at_level(logging.INFO, logger="mcpidg.server"):
            mcp_post(stack.mcp_url, rpc("initialize", 1))
        assert '"POST /mcp HTTP/1.1" 401 Unauthorized' in [
            r.getMessage() for r in caplog.records
        ]

    def test_malformed_header_scheme_is_challenged(self, stack):
        reply = mcp_post(
            stack.mcp_url, rpc("initialize", 1),
            extra_headers={"Authorization": "Basic dXNlcg=="},
        )
        assert reply.status == 401
        assert 'error="invalid_token"' in reply.header("www-authenticate")


class TestDispatch:
    def test_full_status_sequence(self, stack):
        token = mint(stack, "developer-persona")
        assert mcp_post(stack.mcp_url, rpc("initialize", 1)).status == 401
        origin = stack.server.metadata_url.rsplit("/.well-known", 1)[0]
        assert httpclient.get(f"{origin}/.well-known/oauth-protected-resource").status == 200
        assert mcp_post(stack.mcp_url, rpc("notifications/initialized"), token).status == 202
        call = rpc("tools/call", 2, {"name": "docs_search", "arguments": {}})
        assert mcp_post(stack.mcp_url, call, token).status == 200

    def test_initialize_result_shape(self, stack):
        token = mint(stack, "developer-persona")
        reply = mcp_post(stack.mcp_url, rpc("initialize", 7), token)
        doc = reply.json()
        assert doc["id"] == 7
        assert doc["result"]["serverInfo"]["name"] == "mcpidg"
        assert "capabilities" in doc["result"]

    def test_tools_list_is_scope_filtered(self, stack):
        operator = mint(stack, "operator-persona")
        doc = mcp_post(stack.mcp_url, rpc("tools/list", 3), operator).json()
        assert [t["name"] for t in doc["result"]["tools"]] == ["ops_status"]
        developer = mint(stack, "developer-persona")
        doc = mcp_post(stack.mcp_url, rpc("tools/list", 4), developer).json()
        assert [t["name"] for t in doc["result"]["tools"]] == [
            "build_status", "code_search", "docs_search",
        ]

    def test_developer_docs_search_returns_stub_payload(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 5, {"name": "docs_search", "arguments": {"query": "sso"}})
        doc = mcp_post(stack.mcp_url, call, token).json()
        assert doc["result"]["tool"] == "docs_search"
        assert doc["result"]["query"] == "sso"
        records = read_records(stack.audit_path)
        assert records[-1]["decision"] == "allow"
        assert records[-1]["subject"] == "developer-persona"

    def test_contractor_code_search_denied_in_band(self, stack):
        token = mint(stack, "contractor-persona")
        call = rpc("tools/call", 6, {"name": "code_search", "arguments": {}})
        reply = mcp_post(stack.mcp_url, call, token)
        assert reply.status == 200  # authenticated: denial rides in-band
        doc = reply.json()
        assert doc["error"]["code"] == -32001
        assert doc["error"]["message"] == "forbidden"
        assert doc["error"]["data"]["reason"] == "no_matching_role"
        records = read_records(stack.audit_path)
        assert records[-1]["decision"] == "deny"
        assert records[-1]["deny_reason"]["kind"] == "no_matching_role"

    def test_missing_scope_denial_names_scopes(self, stack):
        token = mint(stack, "developer-persona",
                     scopes=frozenset({"openid", "profile"}))
        call = rpc("tools/call", 7, {"name": "docs_search", "arguments": {}})
        doc = mcp_post(stack.mcp_url, call, token).json()
        assert doc["error"]["code"] == -32001
        assert doc["error"]["data"]["missing_scopes"] == ["mcp.docs.read"]

    def test_unknown_method_not_found(self, stack):
        token = mint(stack, "developer-persona")
        doc = mcp_post(stack.mcp_url, rpc("resources/read", 8), token).json()
        assert doc["error"]["code"] == -32601

    def test_unknown_method_notification_still_202(self, stack):
        token = mint(stack, "developer-persona")
        assert mcp_post(stack.mcp_url, rpc("whatever/np"), token).status == 202

    def test_malformed_json_with_valid_token(self, stack):
        token = mint(stack, "developer-persona")
        reply = mcp_post(stack.mcp_url, b'{"jsonrpc":', token)
        doc = reply.json()
        assert doc["error"]["code"] == -32700
        assert doc["id"] is None

    def test_shape_violation_with_valid_token(self, stack):
        token = mint(stack, "developer-persona")
        doc = mcp_post(stack.mcp_url, {"jsonrpc": "1.0", "id": 1, "method": "x"}, token).json()
        assert doc["error"]["code"] == -32600

    def test_tools_call_bad_params(self, stack):
        token = mint(stack, "developer-persona")
        doc = mcp_post(stack.mcp_url, rpc("tools/call", 9, {"arguments": {}}), token).json()
        assert doc["error"]["code"] == -32602

    def test_body_bearer_mode_equivalent(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 10, {"name": "docs_search", "arguments": {"query": "q"}})
        via_header = mcp_post(stack.mcp_url, call, token, "header").json()
        via_body = mcp_post(stack.mcp_url, call, token, "body").json()
        assert via_header["result"] == via_body["result"]

    def test_body_bearer_in_wrong_shape_is_invalid_request(self, stack):
        token = mint(stack, "developer-persona")
        doc = {"jsonrpc": "1.0", "id": 1, "method": "x", "params": {"authorization": token}}
        reply = mcp_post(stack.mcp_url, doc)
        assert reply.status == 200  # authenticated through the body bearer
        assert reply.json()["error"]["code"] == -32600

    def test_body_is_decoded_once(self, stack, monkeypatch):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 12, {
            "name": "docs_search", "arguments": {"query": "q"}, "authorization": token,
        })
        body = json.dumps(call).encode()
        real_loads = json.loads
        body_decodes = []

        def counting_loads(text, *args, **kwargs):
            # Token segments and key documents are other strings.
            if text == body.decode():
                body_decodes.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        result = stack.server.app.handle_mcp_post({}, body)
        assert result.status == 200
        assert real_loads(result.body)["result"]["tool"] == "docs_search"
        assert len(body_decodes) == 1

    def test_unknown_tool_denied(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 11, {"name": "rm_rf", "arguments": {}})
        doc = mcp_post(stack.mcp_url, call, token).json()
        assert doc["error"]["code"] == -32001
        assert doc["error"]["data"]["reason"] == "unknown_tool"

    def test_initialize_with_id_of_notification_method(self, stack):
        token = mint(stack, "developer-persona")
        doc = mcp_post(stack.mcp_url, rpc("notifications/initialized", 12), token).json()
        assert doc["error"]["code"] == -32600

    def test_get_on_mcp_path_is_404(self, stack):
        assert httpclient.get(stack.mcp_url).status == 404

    def test_post_on_unknown_path_is_404(self, stack):
        origin = stack.mcp_url.rsplit("/mcp", 1)[0]
        reply = httpclient.post(f"{origin}/nope", b"{}", {"Content-Type": "application/json"})
        assert reply.status == 404


class TestAuthBeforeDispatch:
    def test_invalid_tokens_never_reach_tool_dispatch(self, counted_stack):
        stack, counting = counted_stack
        expired = stack.idp.core.issue_token_for("developer-persona", lifetime=-3600)
        call = rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})
        for token in (None, expired, "garbage.token.here"):
            reply = mcp_post(stack.mcp_url, call, token)
            assert reply.status == 401
        assert counting.calls == 0
        for record in read_records(stack.audit_path):
            assert record["decision"] == "unauthenticated"
            assert record["tool"] == "-"

    def test_masked_subject_in_log_unmasked_in_audit(self, stack, caplog):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 2, {"name": "docs_search", "arguments": {}})
        with caplog.at_level(logging.INFO, logger="mcpidg.tokens"):
            mcp_post(stack.mcp_url, call, token)
        assert "Authenticated user: d****************" in [
            r.getMessage() for r in caplog.records
        ]
        assert read_records(stack.audit_path)[-1]["subject"] == "developer-persona"


DEEP_JSON = b"[" * 200_000 + b"]" * 200_000
LONG_INTEGER = b'{"jsonrpc": "2.0", "id": ' + b"9" * 5000 + b', "method": "initialize"}'


def token_with_payload(payload: bytes) -> str:
    header = json.dumps({"alg": "RS256", "typ": "JWT", "kid": "k"}).encode()
    return f"{b64url_encode(header)}.{b64url_encode(payload)}.{b64url_encode(b'sig')}"


class TestHostileJson:
    """JSON too deep or with too long a number is rejected, never a 200."""

    @pytest.mark.parametrize("body", [DEEP_JSON, LONG_INTEGER], ids=["deep", "long-integer"])
    def test_body_without_credential_is_challenged(self, stack, caplog, body):
        reply = mcp_post(stack.mcp_url, body)
        assert reply.status == 401
        assert reply.header("www-authenticate") == (
            f'Bearer resource_metadata="{stack.server.metadata_url}"'
        )
        assert [r["deny_reason"] for r in read_records(stack.audit_path)] == [{"kind": "no_token"}]
        assert "unhandled server error" not in caplog.text

    @pytest.mark.parametrize("bearer_mode", ["header", "body"])
    @pytest.mark.parametrize(
        "payload",
        [b"[" * 20_000 + b"]" * 20_000, b'{"exp": ' + b"9" * 5000 + b"}"],
        ids=["deep", "long-integer"],
    )
    def test_token_payload_is_invalid_token(self, stack, caplog, payload, bearer_mode):
        token = token_with_payload(payload)
        reply = mcp_post(stack.mcp_url, rpc("initialize", 1), token, bearer_mode)
        assert reply.status == 401
        assert 'error="invalid_token"' in reply.header("www-authenticate")
        assert [r["deny_reason"] for r in read_records(stack.audit_path)] == [
            {"kind": "invalid_token"}
        ]
        assert "unhandled server error" not in caplog.text


class TestForgedKeyIds:
    def test_forged_kids_cost_at_most_one_key_refresh(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})
        assert mcp_post(stack.mcp_url, call, token).status == 200
        before = stack.idp.counters()["total"]
        for i in range(20):
            assert mcp_post(stack.mcp_url, call, with_kid(token, f"forged-{i}")).status == 401
        # One forced refresh is discovery plus JWKS; the rest are refused
        # from the cached keys.
        assert stack.idp.counters()["total"] - before <= 2

    def test_forged_kid_during_idp_outage_keeps_valid_tokens_working(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 2, {"name": "docs_search", "arguments": {"query": "sso"}})
        assert mcp_post(stack.mcp_url, call, token).status == 200
        stack.idp.stop()
        assert mcp_post(stack.mcp_url, call, with_kid(token, "forged")).status == 401
        reply = mcp_post(stack.mcp_url, call, token)
        assert reply.status == 200
        assert reply.json()["result"]["tool"] == "docs_search"


class TestAudit:
    def test_exactly_one_line_per_tool_call(self, stack):
        token = mint(stack, "developer-persona")
        calls = 1000
        for i in range(calls):
            call = rpc("tools/call", i, {"name": "docs_search", "arguments": {}})
            assert mcp_post(stack.mcp_url, call, token).status == 200
        records = read_records(stack.audit_path)
        assert len(records) == calls

    def test_concurrent_calls_interleave_without_torn_lines(self, stack):
        import threading

        token = mint(stack, "developer-persona")

        def worker(worker_id):
            for i in range(10):
                call = rpc("tools/call", f"{worker_id}-{i}",
                           {"name": "docs_search", "arguments": {}})
                assert mcp_post(stack.mcp_url, call, token).status == 200

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        records = read_records(stack.audit_path)  # every line parses
        assert len(records) == 80
        assert all(r["decision"] == "allow" for r in records)

    def test_request_ids_unique(self, stack):
        token = mint(stack, "developer-persona")
        for i in range(25):
            mcp_post(stack.mcp_url, rpc("tools/call", i, {"name": "docs_search",
                                                          "arguments": {}}), token)
        records = read_records(stack.audit_path)
        ids = [r["request_id"] for r in records]
        assert len(ids) == len(set(ids)) == 25

    def test_non_tool_methods_not_audited(self, stack):
        token = mint(stack, "developer-persona")
        mcp_post(stack.mcp_url, rpc("initialize", 1), token)
        mcp_post(stack.mcp_url, rpc("tools/list", 2), token)
        mcp_post(stack.mcp_url, rpc("notifications/initialized"), token)
        try:
            records = read_records(stack.audit_path)
        except FileNotFoundError:
            records = []
        assert records == []

    def test_record_field_names_and_latencies(self, stack):
        token = mint(stack, "developer-persona")
        mcp_post(stack.mcp_url, rpc("tools/call", 1, {"name": "docs_search",
                                                      "arguments": {}}), token)
        record = read_records(stack.audit_path)[0]
        assert set(record) == {
            "timestamp", "request_id", "subject", "roles", "scopes", "tool",
            "decision", "validation_latency_us", "total_latency_us",
        }
        assert record["total_latency_us"] >= record["validation_latency_us"] > 0
        assert record["tool"] == "docs_search"
        assert record["roles"] == ["developer"]

    def test_deny_records_replay_consistently(self, stack, registry, policy):
        tokens = {
            persona: mint(stack, persona)
            for persona in ("developer-persona", "contractor-persona", "operator-persona")
        }
        for persona, token in tokens.items():
            for tool in ("docs_search", "code_search", "build_status", "ops_status"):
                mcp_post(stack.mcp_url, rpc("tools/call", 1, {"name": tool,
                                                              "arguments": {}}), token)
        for record in read_records(stack.audit_path):
            identity = ValidatedIdentity(
                subject=record["subject"],
                scopes=frozenset(record["scopes"]),
                roles=frozenset(record["roles"]),
                expires_at=0,
                issuer=stack.issuer,
            )
            decision = authorize(identity, record["tool"], policy, registry)
            assert decision.outcome == record["decision"]
            if decision.outcome == "deny":
                assert record["deny_reason"]["kind"] == decision.reason

    def test_audit_sink_failure_is_fail_closed(self, tmp_path, stack):
        # Point the sink at a directory: every append must fail, and the
        # request must fail with it.
        stack.server.app.audit = AuditLog(str(tmp_path))
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})
        doc = mcp_post(stack.mcp_url, call, token).json()
        assert doc["error"]["code"] == -32603

    def test_append_failure_raises(self, tmp_path):
        sink = AuditLog(str(tmp_path))  # a directory, not a file
        record = AuditRecord(
            timestamp="2024-01-01T00:00:00+00:00", request_id="r", subject="s",
            roles=(), scopes=(), tool="-", decision="unauthenticated",
            deny_reason=None, validation_latency_us=0, total_latency_us=0,
        )
        with pytest.raises(AuditSinkFailure):
            sink.append(record)


class TestServeLifecycle:
    def test_occupied_port_is_bind_failure(self, stack, tmp_path):
        registry = default_registry()
        config = ServerConfig(
            bind_address=f"127.0.0.1:{stack.server.port}",
            audit_sink=str(tmp_path / "audit.jsonl"),
        )
        with pytest.raises(BindFailure):
            serve(config, default_policy(registry), registry)

    def test_graceful_stop_completes_in_flight_requests(self, tmp_path, stack):
        import threading
        import time

        from mcpidg.policy import ToolRegistry
        from mcpidg.policy import load_policy

        registry = ToolRegistry()
        registry.register(
            "docs_search", "slow stub", {"mcp.docs.read"},
            lambda args: time.sleep(0.4) or {"tool": "docs_search"},
        )
        policy = load_policy(
            {"rules": [{"role": "developer", "granted_scopes": ["mcp.docs.read"],
                        "allowed_tools": ["docs_search"]}]},
            registry,
        )
        handle = serve(
            ServerConfig(
                bind_address="127.0.0.1:0",
                issuer_url=stack.issuer,
                audit_sink=str(tmp_path / "slow-audit.jsonl"),
            ),
            policy,
            registry,
        )
        stack.idp.core.audience = handle.resource_url  # aud must match this server
        token = stack.idp.core.issue_token_for("developer-persona")
        outcome = {}

        def slow_call():
            reply = mcp_post(
                handle.resource_url,
                rpc("tools/call", 1, {"name": "docs_search", "arguments": {}}),
                token,
            )
            outcome["status"] = reply.status
            outcome["body"] = reply.json()

        worker = threading.Thread(target=slow_call)
        worker.start()
        time.sleep(0.15)  # request is now inside the slow handler
        handle.stop()  # must wait for it rather than cutting it off
        worker.join(timeout=5)
        assert outcome["status"] == 200
        assert outcome["body"]["result"]["tool"] == "docs_search"

    def test_graceful_stop_closes_the_listener(self, tmp_path):
        registry = default_registry()
        handle = serve(
            ServerConfig(bind_address="127.0.0.1:0",
                         audit_sink=str(tmp_path / "audit.jsonl")),
            default_policy(registry),
            registry,
        )
        url = handle.resource_url
        assert mcp_post(url, rpc("initialize", 1)).status == 401
        handle.stop()
        with pytest.raises(OSError):
            httpclient.get(url, timeout=2.0)

    def test_ephemeral_port_resolution(self, stack):
        assert stack.server.port != 0
        assert f":{stack.server.port}/mcp" in stack.server.resource_url
