import json
import logging
import os

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding

from conftest import mcp_post, rpc
from mcpidg import audit, harness, httpclient, protocol
from mcpidg.audit import AuditSinkFailure, AuditLog, read_records
from mcpidg.httpserve import BindFailure
from mcpidg.idp import UserRecord
from mcpidg.policy import authorize
from mcpidg.protocol import encode_json
from mcpidg.server import (
    MalformedAuthorizationHeader,
    McpApp,
    ServerConfig,
    ServerHandle,
    extract_bearer,
    log as server_log,
    serve,
)
from mcpidg.stack import start_stack
from mcpidg.tokens import ValidatedIdentity, b64url_encode
from mcpidg.tools import default_policy, default_registry

# The published descriptor, byte for byte: field order and compact separators.
REFERENCE_METADATA = (
    b'{"resource":"http://localhost:8000/mcp",'
    b'"scopes_supported":["openid","profile"],'
    b'"authorization_servers":["http://localhost:8081/realms/master"],'
    b'"bearer_methods_supported":["header","body"]}'
)


def mint(stack, persona, **kwargs):
    return stack.idp.core.issue_token_for(persona, **kwargs)


def with_kid(token: str, kid: str) -> str:
    """The token under a header naming another key; the signature no longer holds."""
    header = b64url_encode(json.dumps({"alg": "RS256", "typ": "JWT", "kid": kid}).encode())
    return header + token[token.index("."):]


class TestMetadataDocument:
    def test_reference_config_reproduces_published_descriptor(self, tmp_path, registry, policy):
        config = ServerConfig(
            resource_url="http://localhost:8000/mcp", audit_sink=str(tmp_path / "audit.jsonl")
        )
        reply = McpApp(config, policy, registry).get_metadata("", {}, b"")
        assert reply.status == 200
        assert reply.headers == {"Content-Type": "application/json"}
        assert reply.body == REFERENCE_METADATA

    def test_encoding_is_byte_stable(self, stack):
        expected = REFERENCE_METADATA.replace(
            b"http://localhost:8000/mcp", stack.server.resource_url.encode()
        ).replace(b"http://localhost:8081/realms/master", stack.issuer.encode())
        for _ in range(2):
            assert httpclient.get(stack.server.metadata_url).body == expected

    def test_served_identically_at_both_well_known_paths(self, stack):
        origin = stack.server.metadata_url.rsplit("/.well-known", 1)[0]
        bare = httpclient.get(f"{origin}/.well-known/oauth-protected-resource")
        suffixed = httpclient.get(f"{origin}/.well-known/oauth-protected-resource/mcp")
        assert bare.status == suffixed.status == 200
        assert bare.body == suffixed.body
        doc = bare.json()
        assert set(doc) == set(json.loads(REFERENCE_METADATA))
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

    def test_scope_lacking_token_gets_insufficient_scope_and_a_forged_one_invalid_token(
        self, stack
    ):
        lacking = mint(stack, "developer-persona", scopes=frozenset({"openid"}))
        forged = with_kid(mint(stack, "developer-persona"), "forged")
        challenges = []
        for token in (lacking, forged):
            reply = mcp_post(stack.mcp_url, rpc("initialize", 1), token=token)
            assert reply.status == 401
            challenges.append(reply.header("www-authenticate"))
        metadata = f'Bearer resource_metadata="{stack.server.metadata_url}"'
        assert challenges == [
            f'{metadata}, error="insufficient_scope", scope="openid profile"',
            f'{metadata}, error="invalid_token"',
        ]
        assert [r["deny_reason"] for r in read_records(stack.audit_path)] == [
            {"kind": "invalid_token"}, {"kind": "invalid_token"},
        ]

    def test_challenge_metadata_url_is_followable(self, stack):
        reply = mcp_post(stack.mcp_url, rpc("initialize", 1))
        challenge = reply.header("www-authenticate")
        url = challenge.split('resource_metadata="')[1].split('"')[0]
        followed = httpclient.get(url)
        assert followed.status == 200
        assert set(followed.json()) == set(json.loads(REFERENCE_METADATA))

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

        def counting(decode):
            def counted(text, *args, **kwargs):
                # Token segments and key documents are other strings.
                if text in (body, body.decode()):
                    body_decodes.append(text)
                return decode(text, *args, **kwargs)
            return counted

        monkeypatch.setattr(json, "loads", counting(real_loads))
        monkeypatch.setattr(protocol, "parse_json", counting(protocol.parse_json))
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


def signed_with_claim_text(core, claim: str, text: str) -> str:
    """A valid token of the core's, but one claim's value is the raw JSON ``text``."""
    claims = core.standard_claims("developer-persona", frozenset({"openid", "profile"}))
    payload = json.dumps(claims | {claim: "?"}).replace('"?"', text).encode()
    head = core.sign_claims({}).split(".")[0]
    signing_input = f"{head}.{b64url_encode(payload)}".encode()
    signature = core._keys[-1].private_key.sign(signing_input, padding.PKCS1v15(), hashes.SHA256())
    return f"{signing_input.decode()}.{b64url_encode(signature)}"


class TestHostileJson:
    """JSON too deep, with too long a number or a non-finite one is rejected, never a 200."""

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

    @pytest.mark.parametrize("number", ["NaN", "1e400"])
    def test_non_finite_number_in_body_is_parse_error(self, stack, number):
        body = (
            '{"jsonrpc":"2.0","id":1,"method":"tools/call",'
            f'"params":{{"name":"docs_search","arguments":{{"query":{number}}}}}}}'
        ).encode()
        reply = mcp_post(stack.mcp_url, body, mint(stack, "developer-persona"))
        assert reply.status == 200
        assert reply.json()["error"]["code"] == -32700

    @pytest.mark.parametrize(
        "claim, text", [("exp", "NaN"), ("iat", "1e400"), ("nbf", "-Infinity")]
    )
    def test_signed_non_finite_date_claim_is_invalid_token(self, stack, caplog, claim, text):
        token = signed_with_claim_text(stack.idp.core, claim, text)
        reply = mcp_post(stack.mcp_url, rpc("initialize", 1), token)
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


# The keys of an allow record, in order; deny_reason follows decision on the others.
RECORD_KEYS = [
    "timestamp", "request_id", "subject", "roles", "scopes", "tool", "decision",
    "validation_latency_us", "total_latency_us",
]


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

    def test_request_ids_stay_unique_across_threads_and_stacks(self, stack, tmp_path):
        import threading

        def serve_calls(local):
            token = mint(local, "developer-persona")

            def worker(worker_id):
                for i in range(10):
                    call = rpc("tools/call", f"{worker_id}-{i}",
                               {"name": "docs_search", "arguments": {}})
                    assert mcp_post(local.mcp_url, call, token).status == 200

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            return [r["request_id"] for r in read_records(local.audit_path)]

        with start_stack(audit_path=str(tmp_path / "second.jsonl")) as second:
            ids = [serve_calls(stack), serve_calls(second)]
        assert all(isinstance(i, str) for i in ids[0] + ids[1])
        assert len(set(ids[0])) == len(set(ids[1])) == 80
        assert set(ids[0]).isdisjoint(ids[1])

    def test_spliced_lines_escape_what_the_client_and_the_idp_chose(self, tmp_path):
        username = 'd\u00e9v"el\\oper'
        tool = 'a"b\\c\né '
        user = UserRecord(username, frozenset({"developer"}),
                          frozenset({"openid", "profile", "mcp.docs.read"}))
        with start_stack(audit_path=str(tmp_path / "audit.jsonl"), users=(user,)) as local:
            token = local.idp.core.issue_token_for(username)
            for name in (tool, "docs_search"):
                call = rpc("tools/call", 1, {"name": name, "arguments": {}})
                assert mcp_post(local.mcp_url, call, token).status == 200
            assert mcp_post(local.mcp_url, rpc("tools/call", 2, {"name": tool})).status == 401
        with open(local.audit_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        records = [json.loads(line) for line in lines]
        assert [json.dumps(r, separators=(",", ":")) for r in records] == lines
        assert [(r["decision"], r["subject"], r["tool"]) for r in records] == [
            ("deny", username, tool),
            ("allow", username, "docs_search"),
            ("unauthenticated", "-", "-"),
        ]
        assert records[0]["deny_reason"] == {"kind": "unknown_tool"}

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
        assert list(record) == RECORD_KEYS
        assert record["total_latency_us"] >= record["validation_latency_us"] > 0
        assert record["tool"] == "docs_search"
        assert record["roles"] == ["developer"]

    def test_each_decision_writes_its_keys_in_order_on_one_compact_line(self, stack):
        call = rpc("tools/call", 1, {"name": "code_search", "arguments": {}})
        assert mcp_post(stack.mcp_url, call, mint(stack, "developer-persona")).status == 200
        assert mcp_post(stack.mcp_url, call, mint(stack, "contractor-persona")).status == 200
        assert mcp_post(stack.mcp_url, call).status == 401
        with open(stack.audit_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["decision"] for r in records] == ["allow", "deny", "unauthenticated"]
        with_reason = RECORD_KEYS[:7] + ["deny_reason"] + RECORD_KEYS[7:]
        assert [list(r) for r in records] == [RECORD_KEYS, with_reason, with_reason]
        assert [json.dumps(r, separators=(",", ":")) for r in records] == lines
        assert records[2]["deny_reason"] == {"kind": "no_token"}
        assert (records[2]["subject"], records[2]["roles"], records[2]["tool"]) == ("-", [], "-")

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

    @pytest.mark.parametrize(
        "token", [None, "garbage.token.here"], ids=["no-token", "invalid-token"]
    )
    def test_audit_sink_failure_without_a_credential_is_503(self, tmp_path, stack, caplog, token):
        stack.server.app.audit = AuditLog(str(tmp_path))  # a directory: every append fails
        with caplog.at_level(logging.INFO, logger="mcpidg"):
            reply = mcp_post(stack.mcp_url, rpc("initialize", 1), token)
        assert (reply.status, reply.header("retry-after")) == (503, "1")
        assert reply.header("www-authenticate") is None
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith("audit sink failure: ")

    def test_append_failure_raises(self, tmp_path):
        sink = AuditLog(str(tmp_path))  # a directory, not a file
        with pytest.raises(AuditSinkFailure):
            sink.append(encode_json({"decision": "unauthenticated"}))

    def test_append_refuses_a_record_that_is_not_a_str(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        sink = AuditLog(path)
        try:
            with pytest.raises(TypeError):
                sink.append({"n": 1})
            assert not os.path.exists(path)
            sink.append(encode_json({"n": 1}))
        finally:
            sink.close()
        assert read_records(path) == [{"n": 1}]

    def test_renamed_sink_is_followed_by_a_new_file(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})
        assert mcp_post(stack.mcp_url, call, token).status == 200
        rotated = stack.audit_path + ".1"
        os.rename(stack.audit_path, rotated)
        assert mcp_post(stack.mcp_url, call, token).status == 200
        assert mcp_post(stack.mcp_url, call, token).status == 200
        assert len(read_records(rotated)) == 1
        assert len(read_records(stack.audit_path)) == 2

    def test_removed_sink_is_recreated(self, stack):
        token = mint(stack, "developer-persona")
        call = rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})
        assert mcp_post(stack.mcp_url, call, token).status == 200
        os.remove(stack.audit_path)
        assert mcp_post(stack.mcp_url, call, token).status == 200
        assert len(read_records(stack.audit_path)) == 1

    def test_sink_reopens_after_a_failed_append(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        sink = AuditLog(path)
        record = encode_json({"decision": "unauthenticated"})
        try:
            sink.append(record)
            sink.path = str(tmp_path)  # a directory, not a file
            with pytest.raises(AuditSinkFailure):
                sink.append(record)
            sink.path = path
            sink.append(record)
        finally:
            sink.close()
        assert len(read_records(path)) == 2

    def test_torn_record_is_ended_before_the_next_one(self, tmp_path, monkeypatch):
        path = str(tmp_path / "audit.jsonl")
        real_write = os.write
        sink = AuditLog(path)
        try:
            sink.append(encode_json({"n": 1}))
            sink.close()  # the next open finds a file that ends its last line
            sink.append(encode_json({"n": 2}))
            monkeypatch.setattr(audit.os, "write", lambda fd, data: real_write(fd, data[:5]))
            with pytest.raises(AuditSinkFailure, match="5 of 14 bytes"):
                sink.append(encode_json({"n": {"n": 3}}))
            monkeypatch.undo()
            sink.append(encode_json({"n": 4}))
            sink.append(encode_json({"n": 5}))
        finally:
            sink.close()
        with open(path, "rb") as fh:
            assert fh.read() == b'{"n":1}\n{"n":2}\n{"n":\n{"n":4}\n{"n":5}\n'

    def test_reading_skips_a_torn_record_and_keeps_the_rest(self, tmp_path, caplog):
        path = tmp_path / "audit.jsonl"
        path.write_bytes(b'{"n":1}\n{"n":\n{"n":4}\n')
        with caplog.at_level(logging.WARNING, logger="mcpidg.audit"):
            assert read_records(str(path)) == [{"n": 1}, {"n": 4}]
        [warning] = caplog.records
        assert warning.levelno == logging.WARNING
        assert warning.getMessage().startswith(f"Skipped line 2 of {path}, not a whole record")


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

    def test_a_resource_with_another_path_is_served_at_that_path(
        self, tmp_path, stack, registry, policy
    ):
        handle = ServerHandle("127.0.0.1:0", server_log)
        resource = handle.origin + "/api/mcp"
        with handle.launch(
            ServerConfig(issuer_url=stack.issuer, resource_url=resource,
                         audit_sink=str(tmp_path / "api-audit.jsonl")),
            policy,
            registry,
        ):
            stack.idp.core.audience = resource  # aud must match this server
            transcript = harness.run_sequence(resource, "developer-persona")
            assert httpclient.post(handle.origin + "/mcp", b"{}").status == 404
        assert transcript.step(5).request_summary.endswith(
            "/.well-known/oauth-protected-resource/api/mcp"
        )
        assert transcript.final_step.response_summary.startswith("200 result ")

    def test_ephemeral_port_resolution(self, stack):
        assert stack.server.port != 0
        assert f":{stack.server.port}/mcp" in stack.server.resource_url
