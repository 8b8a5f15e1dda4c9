"""Each identity-provider endpoint over the wire: what it counts, how it
answers an error, and which of its replies may be cached."""

from collections import Counter
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest

from mcpidg import httpclient
from mcpidg.harness import generate_pkce
from mcpidg.idp import DEFAULT_CLIENT_ID, DEFAULT_REDIRECT_URI

FORM = {"Content-Type": "application/x-www-form-urlencoded"}


def authorize(stack, pkce, client_id: str = DEFAULT_CLIENT_ID) -> httpclient.HttpReply:
    query = urlencode({
        "response_type": "code",
        "client_id": client_id,
        "redirect_uri": DEFAULT_REDIRECT_URI,
        "scope": "openid mcp.docs.read",
        "code_challenge": pkce.challenge,
        "code_challenge_method": "S256",
        "username": "developer-persona",
    })
    return httpclient.get(f"{stack.issuer}/authorize?{query}")


def token_form(authorized: httpclient.HttpReply, pkce) -> bytes:
    return urlencode({
        "grant_type": "authorization_code",
        "code": parse_qs(urlsplit(authorized.header("location")).query)["code"][0],
        "code_verifier": pkce.verifier,
        "client_id": DEFAULT_CLIENT_ID,
        "redirect_uri": DEFAULT_REDIRECT_URI,
    }).encode()


def counted(stack, send) -> tuple[httpclient.HttpReply, Counter]:
    """send()'s reply and what it added to the provider's counters."""
    before = Counter(stack.idp.counters())
    reply = send()
    return reply, Counter(stack.idp.counters()) - before


def one_of_each(stack) -> dict[str, tuple[httpclient.HttpReply, Counter]]:
    """One request to each endpoint in sign-in order, counted, by endpoint name."""
    pkce = generate_pkce()
    seen = {
        "discovery": counted(stack, lambda: httpclient.get(
            f"{stack.issuer}/.well-known/openid-configuration")),
        "jwks": counted(stack, lambda: httpclient.get(f"{stack.issuer}/jwks")),
        "authorize": counted(stack, lambda: authorize(stack, pkce)),
    }
    form = token_form(seen["authorize"][0], pkce)
    seen["token"] = counted(stack, lambda: httpclient.post(f"{stack.issuer}/token", form, FORM))
    return seen


def test_each_request_counts_its_endpoint_and_the_total_only(stack):
    seen = one_of_each(stack)
    assert {name: reply.status for name, (reply, _) in seen.items()} == {
        "discovery": 200, "jwks": 200, "authorize": 302, "token": 200,
    }
    for name, (_, added) in seen.items():
        assert added == Counter({name: 1, "total": 1}), name


def test_only_the_token_reply_is_no_store(stack):
    seen = one_of_each(stack)
    assert {name: reply.header("cache-control") for name, (reply, _) in seen.items()} == {
        "discovery": None, "jwks": None, "authorize": None, "token": "no-store",
    }
    assert seen["token"][0].header("pragma") is None  # deprecated (RFC 9111 §5.4)


def unknown_client(stack):
    return lambda: authorize(stack, generate_pkce(), client_id="unregistered")


def replayed_code(stack):
    pkce = generate_pkce()
    form = token_form(authorize(stack, pkce), pkce)
    assert httpclient.post(f"{stack.issuer}/token", form, FORM).status == 200
    return lambda: httpclient.post(f"{stack.issuer}/token", form, FORM)


@pytest.mark.parametrize("prepare, endpoint, status, error", [
    (unknown_client, "authorize", 401, "invalid_client"),
    (replayed_code, "token", 400, "invalid_grant"),
], ids=["authorize-unknown-client", "token-replayed-code"])
def test_error_reply_is_one_json_object_with_error_and_description(
    stack, prepare, endpoint, status, error
):
    reply, added = counted(stack, prepare(stack))
    assert added == Counter({endpoint: 1, "total": 1})
    assert reply.status == status
    assert reply.header("content-type") == "application/json"
    assert reply.header("cache-control") is None
    body = reply.json()
    assert sorted(body) == ["error", "error_description"]
    assert body["error"] == error
    assert isinstance(body["error_description"], str)
