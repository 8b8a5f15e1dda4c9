"""Generated hostile bodies, bearer tokens and forms, sent over HTTP to both servers.

The resource server must answer every token it cannot verify with a 401
challenge and exactly one `unauthenticated` audit record; the provider
must answer every hostile `/token` and `/authorize` form with an OAuth
error (RFC 6749 §5.2). Neither may answer 200 or log an unhandled error.
"""

from __future__ import annotations

import json
import os
import string
from urllib.parse import quote_from_bytes, urlencode

from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import mcp_post, rpc
from mcpidg import httpclient
from mcpidg.audit import read_records
from mcpidg.idp import DEFAULT_CLIENT_ID, DEFAULT_REDIRECT_URI
from mcpidg.tokens import b64url_encode

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# In RFC 4648 order, so XOR on a character's index flips bits of the 6 it encodes.
_B64URL = string.ascii_uppercase + string.ascii_lowercase + string.digits + "-_"
_SEGMENT = st.text(_B64URL, max_size=60)
_DEEP = st.integers(1, 20_000).map(lambda n: b"[" * n + b"]" * n)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
_BODIES = st.one_of(
    st.just(json.dumps(rpc("tools/call", 1, {"name": "docs_search", "arguments": {}})).encode()),
    _DEEP,
    st.integers(4_000, 20_000).map(lambda n: b"1" * n),  # past the int digit limit
    st.integers(0, 200_000).map(lambda n: json.dumps({"pad": "x" * n}).encode()),
    st.binary(max_size=200),  # mostly not UTF-8
    _JSON.map(lambda doc: json.dumps(doc).encode()),
)
# Each kind is applied to a real token that has already been verified once.
_CLAIMS = st.fixed_dictionaries(
    {"sub": st.text(max_size=20), "exp": st.integers(0, 2**40)},
    optional={"iss": st.text(max_size=20), "aud": st.text(max_size=20), "scope": st.text(max_size=30)},
)
_TOKENS = st.one_of(
    st.tuples(st.just("segments"), st.lists(_SEGMENT, min_size=1, max_size=4).map(".".join)),
    st.tuples(st.just("forged-payload"), _CLAIMS.map(lambda c: json.dumps(c).encode())),
    st.tuples(st.just("deep-payload"), _DEEP),
    st.tuples(
        st.just("one-byte-changed"),
        st.tuples(  # an index from either end; flipped bits, or a character outside the alphabet
            st.integers(-400, 400), st.integers(1, 63) | st.sampled_from("+/=.!~ ")
        ),
    ),
)


def _hostile_token(real: str, kind: str, data) -> str:
    head, _, signature = real.split(".")
    if kind == "segments":
        return data
    if kind in ("forged-payload", "deep-payload"):
        return f"{head}.{b64url_encode(data)}.{signature}"
    index, change = data
    index %= len(real)
    if isinstance(change, str):
        char = change if change != real[index] else "*"
    else:
        char = _B64URL[_B64URL.index(real[index]) ^ change] if real[index] != "." else "*"
    return real[:index] + char + real[index + 1 :]


def _audit_records(stack) -> list[dict]:
    return read_records(stack.audit_path) if os.path.exists(stack.audit_path) else []


@SETTINGS
@given(body=_BODIES, token=_TOKENS, where=st.sampled_from(["header", "body"]))
# The signature's last character has 4 unused low bits: flipping one leaves its bytes.
@example(body=b"{}", token=("one-byte-changed", (-1, 1)), where="header")
def test_unverified_token_gets_a_challenge_and_one_unauthenticated_record(
    stack, caplog, body, token, where
):
    real = stack.idp.core.issue_token_for("developer-persona")
    assert mcp_post(stack.mcp_url, rpc("tools/list", 1), real).status == 200  # now memoised
    hostile = _hostile_token(real, *token)
    headers = {"Content-Type": "application/json"}
    if where == "body":
        params = {"name": "docs_search", "authorization": hostile}
        body = json.dumps(rpc("tools/call", 2, params)).encode()
    else:
        headers["Authorization"] = f"Bearer {hostile}"
    before = len(_audit_records(stack))
    reply = httpclient.post(stack.mcp_url, body, headers)
    assert reply.status == 401
    assert 'resource_metadata="' in reply.header("www-authenticate")
    assert [r["decision"] for r in _audit_records(stack)[before:]] == ["unauthenticated"]
    assert "unhandled server error" not in caplog.text


_FIELD_NAMES = st.sampled_from(
    ["grant_type", "code", "code_verifier", "client_id", "redirect_uri", "response_type",
     "code_challenge", "code_challenge_method", "username", "scope", "state"]
) | st.text(max_size=8)
# Every value but a registered user's name: no form here can be granted.
_FIELD_VALUES = st.one_of(
    st.text(max_size=40),
    st.sampled_from(["authorization_code", "code", "S256", "plain", DEFAULT_CLIENT_ID,
                     DEFAULT_REDIRECT_URI, ""]),
    st.integers(0, 5_000).map(lambda n: "x" * n),
)
_FORMS = st.one_of(
    st.dictionaries(_FIELD_NAMES, _FIELD_VALUES, max_size=40).map(lambda f: urlencode(f).encode()),
    st.binary(max_size=300),
)
# RFC 6749 §5.2, and access_denied from §4.1.2.1 for the authorization endpoint.
OAUTH_ERRORS = {"invalid_request", "invalid_client", "invalid_grant", "unauthorized_client",
                "unsupported_grant_type", "invalid_scope", "access_denied"}


@SETTINGS
@given(form=_FORMS, endpoint=st.sampled_from(["token", "authorize"]))
def test_hostile_form_gets_an_oauth_error(stack, caplog, form, endpoint):
    if endpoint == "token":
        reply = httpclient.post(
            f"{stack.issuer}/token", form, {"Content-Type": "application/x-www-form-urlencoded"}
        )
    else:
        reply = httpclient.get(f"{stack.issuer}/authorize?{quote_from_bytes(form, safe='=&')}")
    assert reply.status in (400, 401)
    assert reply.header("content-type") == "application/json"
    error = reply.json()
    assert error["error"] in OAUTH_ERRORS
    assert isinstance(error["error_description"], str)
    assert (reply.status == 401) == (error["error"] == "invalid_client")
    assert "unhandled server error" not in caplog.text
