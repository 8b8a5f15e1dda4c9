"""Conformance client: plays the IDE-extension side of the flow.

A cold run produces a 13-step transcript: the challenged request (1-2),
both metadata fetches (3-6), the PKCE authorization and token exchange
(7-9), and the authenticated MCP traffic (10-13). Steps 11-12 are the
server-side token validation, which the client cannot observe on the
wire; they are recorded as annotation steps and cross-checked against the
provider's request counters by the conformance command. A warm run (valid
cached token) contains steps 10-13 only and touches the identity provider
zero times.

Secrets hygiene: bearer tokens and PKCE verifiers never appear in the
transcript; only the verifier's S256 digest is recorded.
"""

from __future__ import annotations

import hashlib
import re
import secrets
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field, replace
from typing import Any
from urllib.parse import parse_qs, urlencode, urlsplit

from . import httpclient, protocol
from .httpserve import TOKEN
from .idp import DEFAULT_CLIENT_ID, DEFAULT_REDIRECT_URI, s256_challenge
from .server import WELL_KNOWN_PATH
from .tokens import discover_oidc
from .tokenstore import TokenStore

# Scope vocabulary the client is configured to request; the provider
# narrows it to what the authenticated user may actually be granted.
DEFAULT_REQUEST_SCOPES = frozenset(
    {"openid", "profile", "mcp.docs.read", "mcp.code.search", "mcp.ops.read"}
)


class TransportError(Exception):
    pass


class Unauthorized(Exception):
    """The server answered 401 to a request that carried a token."""


class AuthFlowError(Exception):
    pass


class StepFailure(Exception):
    def __init__(self, index: int, detail: str, transcript: "FlowTranscript"):
        super().__init__(f"step {index}: {detail}")
        self.index = index
        self.detail = detail
        self.transcript = transcript


@dataclass(frozen=True)
class StepRecord:
    index: int
    description: str
    request_summary: str
    response_summary: str
    wall_latency_us: int


@dataclass
class FlowTranscript:
    steps: list[StepRecord] = field(default_factory=list)

    def add(
        self,
        index: int,
        description: str,
        request_summary: str,
        response_summary: str,
        wall_latency_us: int = 0,
    ) -> None:
        if not 1 <= index <= 13:
            raise ValueError(f"step index {index} outside 1..13")
        if self.steps and index <= self.steps[-1].index:
            raise ValueError("step indices must be strictly increasing")
        self.steps.append(
            StepRecord(index, description, request_summary, response_summary, wall_latency_us)
        )

    def indices(self) -> list[int]:
        return [s.index for s in self.steps]

    def step(self, index: int) -> StepRecord | None:
        for record in self.steps:
            if record.index == index:
                return record
        return None

    @property
    def final_step(self) -> StepRecord:
        return self.steps[-1]

    def to_jsonl(self) -> str:
        return "\n".join(protocol.encode_json(asdict(s)) for s in self.steps)


@dataclass(frozen=True)
class PkcePair:
    verifier: str
    challenge: str  # S256 of the verifier


def generate_pkce() -> PkcePair:
    """Fresh high-entropy verifier (86 chars, within the 43-128 bound)."""
    verifier = secrets.token_urlsafe(64)
    return PkcePair(verifier=verifier, challenge=s256_challenge(verifier))


# One auth-param of a list (RFC 9110 §11.2 and §5.6.1): token BWS "=" BWS
# ( token / quoted-string ), then a comma or the end.
_AUTH_PARAM = re.compile(
    rf'[ \t,]*({TOKEN.pattern})[ \t]*=[ \t]*(?:({TOKEN.pattern})|"((?:[^"\\]|\\.)*)")'
    r"[ \t]*(?=,|\Z)"
)


def parse_www_authenticate(value: str) -> dict[str, str]:
    """Parse `Bearer k="v", ...` into its parameters, names lower-cased.

    A quoted value may hold commas and backslash quoted-pairs. Raises
    AuthFlowError for another scheme or a malformed parameter list.
    """
    scheme, _, rest = value.partition(" ")
    if scheme.lower() != "bearer":
        raise AuthFlowError(f"unexpected challenge scheme {scheme!r}")
    params: dict[str, str] = {}
    rest, position = rest.rstrip(" \t,"), 0
    while position < len(rest):
        match = _AUTH_PARAM.match(rest, position)
        if match is None:
            raise AuthFlowError(f"malformed challenge parameters {rest[position:][:80]!r}")
        name, token, quoted = match.groups()
        params[name.lower()] = token if quoted is None else re.sub(r"\\(.)", r"\1", quoted)
        position = match.end()
    return params


def _mcp_post(
    mcp_url: str,
    request: protocol.RpcRequest,
    token: str | None,
    bearer_mode: str = "header",
) -> httpclient.HttpReply:
    headers = {"Content-Type": "application/json"}
    if token is not None:
        if bearer_mode == "header":
            headers["Authorization"] = f"Bearer {token}"
        elif bearer_mode == "body":
            params = {**(request.params or {}), "authorization": token}
            request = replace(request, params=params)
        else:
            raise ValueError(f"unknown bearer mode {bearer_mode!r}")
    try:
        return httpclient.post(mcp_url, protocol.encode_request(request), headers)
    except OSError as exc:
        raise TransportError(f"POST {mcp_url} failed: {exc}") from exc


def _json_object(reply: httpclient.HttpReply, what: str) -> dict[str, Any]:
    """The reply body as a JSON object; raises AuthFlowError otherwise."""
    try:
        doc = reply.json()
    except protocol.ParseError as exc:
        raise AuthFlowError(f"{what} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise AuthFlowError(f"{what} is not a JSON object")
    return doc


def acquire_token(
    discovery: dict[str, Any],
    persona: str,
    pkce: PkcePair,
    scopes: frozenset[str],
    client_id: str = DEFAULT_CLIENT_ID,
    redirect_uri: str = DEFAULT_REDIRECT_URI,
) -> dict[str, Any]:
    """Run the authorization-code exchange; returns the token response.

    Raises AuthFlowError on any provider rejection, when the token_type
    is not Bearer, and also when the response carries a refresh_token --
    this deployment never issues one.
    A transport failure raises OSError.
    """
    state = secrets.token_urlsafe(16)
    query = urlencode(
        {
            "response_type": "code",
            "client_id": client_id,
            "redirect_uri": redirect_uri,
            "scope": " ".join(sorted(scopes)),
            "state": state,
            "code_challenge": pkce.challenge,
            "code_challenge_method": "S256",
            "username": persona,
        }
    )
    # RFC 6749 §3.1: the endpoint's own query component is kept.
    endpoint = discovery["authorization_endpoint"]
    reply = httpclient.get(f"{endpoint}{'&' if '?' in endpoint else '?'}{query}")
    if reply.status != 302:
        raise AuthFlowError(
            f"authorize endpoint returned {reply.status}: {reply.body.decode(errors='replace')}"
        )
    location = reply.header("location") or ""
    redirect_query = parse_qs(urlsplit(location).query)
    code = redirect_query.get("code", [""])[0]
    echoed_state = redirect_query.get("state", [""])[0]
    if not code:
        raise AuthFlowError("redirect carries no authorization code")
    if echoed_state != state:
        raise AuthFlowError("state parameter was not echoed back intact")

    form = urlencode(
        {
            "grant_type": "authorization_code",
            "code": code,
            "code_verifier": pkce.verifier,
            "client_id": client_id,
            "redirect_uri": redirect_uri,
        }
    ).encode("ascii")
    token_reply = httpclient.post(
        discovery["token_endpoint"], form, {"Content-Type": "application/x-www-form-urlencoded"}
    )
    if token_reply.status != 200:
        raise AuthFlowError(
            f"token endpoint returned {token_reply.status}: "
            f"{token_reply.body.decode(errors='replace')}"
        )
    response = _json_object(token_reply, "token response")
    if "refresh_token" in response:
        raise AuthFlowError("token response carries a refresh_token; none may be issued")
    if not isinstance(response.get("access_token"), str):
        raise AuthFlowError("token response lacks an access_token")
    # RFC 6749 §5.1 and §7.1: a type name, compared case-insensitively.
    token_type = response.get("token_type")
    if not isinstance(token_type, str) or token_type.lower() != "bearer":
        raise AuthFlowError(f"token response token_type {token_type!r:.40} is not Bearer")
    # RFC 6749 §5.1: a number of seconds; true and false are ints in Python.
    expires_in = response.get("expires_in", 0)
    if (
        isinstance(expires_in, bool)
        or not isinstance(expires_in, (int, float))
        or abs(expires_in) > sys.float_info.max
    ):
        raise AuthFlowError(f"token response expires_in {expires_in!r:.40} is not a number")
    return response


def call_tool(
    mcp_url: str,
    token: str,
    tool: str,
    arguments: dict[str, Any] | None = None,
    bearer_mode: str = "header",
) -> protocol.RpcResponse:
    """One authenticated tools/call; returns the parsed JSON-RPC response."""
    request = protocol.RpcRequest(
        "tools/call",
        id=str(uuid.uuid4()),
        params={"name": tool, "arguments": arguments or {}},
    )
    reply = _mcp_post(mcp_url, request, token, bearer_mode)
    if reply.status == 401:
        raise Unauthorized(f"server rejected the bearer token for {tool!r}")
    if reply.status != 200:
        raise TransportError(f"unexpected status {reply.status} for tools/call")
    return protocol.decode_response(reply.body)


def _summarize_rpc(reply: httpclient.HttpReply) -> str:
    """Step 13's summary of the tools/call reply, which step 10 has seen is a 200."""
    try:
        parsed = protocol.decode_response(reply.body)
    except protocol.ProtocolError:
        return f"{reply.status} (unparseable body)"
    if parsed.error is not None:
        return f"{reply.status} error {parsed.error.code}: {parsed.error.message}"
    return f"{reply.status} result keys={sorted((parsed.result or {}).keys())}"


def _us_since(started: float) -> int:
    return int((time.perf_counter() - started) * 1e6)


def _fetch_metadata(url: str, index: int, what: str, fail) -> tuple[httpclient.HttpReply, int]:
    """GET a well-known document, timed; a transport error fails step ``index``,
    a status other than 200 the step after it."""
    started = time.perf_counter()
    try:
        reply = httpclient.get(url)
    except OSError as exc:
        raise fail(index, f"{what} fetch failed: {exc}")
    if reply.status != 200:
        raise fail(index + 1, f"{what} endpoint returned {reply.status}")
    return reply, _us_since(started)


def run_sequence(
    mcp_url: str,
    persona: str,
    tool: str = "docs_search",
    token_store: TokenStore | None = None,
    bearer_mode: str = "header",
) -> FlowTranscript:
    """Drive the full end-to-end authorization sequence against a server.

    Returns the transcript; raises StepFailure (with the transcript so
    far) when a step cannot complete. A final tools/call carrying a
    JSON-RPC authorization error is a *completed* sequence -- deciding
    whether a deny was expected is the caller's business.
    """
    transcript = FlowTranscript()

    def fail(index: int, detail: str) -> StepFailure:
        return StepFailure(index, detail, transcript)

    cached = token_store.get(mcp_url) if token_store is not None else None
    if cached is not None:
        token = cached.access_token
    else:
        token = _cold_start(transcript, mcp_url, persona, token_store, fail)

    # Step 10: authenticated MCP traffic up to the tools/call request.
    started = time.perf_counter()
    for request in (
        protocol.RpcRequest("initialize", id=1),
        protocol.RpcRequest("notifications/initialized"),
        protocol.RpcRequest("tools/list", id=2),
        protocol.RpcRequest("tools/call", id=3, params={"name": tool, "arguments": {}}),
    ):
        try:
            reply = _mcp_post(mcp_url, request, token, bearer_mode)
        except TransportError as exc:
            raise fail(10, str(exc))
        wanted = 202 if request.is_notification else 200
        if reply.status == 401:
            raise fail(10, f"server rejected the bearer token on {request.method}")
        if reply.status != wanted:
            raise fail(10, f"{request.method} returned {reply.status}, wanted {wanted}")
    transcript.add(
        10,
        "MCP requests with bearer token",
        f"POST {mcp_url} x4 ({bearer_mode} bearer): initialize, "
        f"notifications/initialized, tools/list, tools/call {tool}",
        "initialize -> 200; notifications/initialized -> 202; tools/list -> 200",
        _us_since(started),
    )

    # Steps 11-12 happen between resource server and provider; annotate.
    transcript.add(
        11, "token validation against provider keys (server side)",
        "(not client-observable)", "see provider jwks counters",
    )
    transcript.add(
        12, "validation result (server side)",
        "(not client-observable)", "implied by authorized response",
    )
    transcript.add(13, "authorized MCP response", f"tools/call {tool}", _summarize_rpc(reply))
    return transcript


def _cold_start(
    transcript: FlowTranscript,
    mcp_url: str,
    persona: str,
    token_store: TokenStore | None,
    fail,
) -> str:
    """Steps 1-9: challenge, discovery, PKCE code flow. Returns the token."""
    started = time.perf_counter()
    try:
        bare = _mcp_post(mcp_url, protocol.RpcRequest("initialize", id=0), token=None)
    except TransportError as exc:
        raise fail(1, str(exc))
    transcript.add(
        1, "MCP request without token", f"POST {mcp_url} initialize (no credentials)",
        f"status {bare.status}", _us_since(started),
    )
    if bare.status != 401:
        raise fail(2, f"expected 401 challenge, got {bare.status}")
    challenge_header = bare.header("www-authenticate") or ""
    try:
        challenge = parse_www_authenticate(challenge_header)
    except AuthFlowError as exc:
        raise fail(2, str(exc))
    metadata_url = challenge.get("resource_metadata", "")
    if not metadata_url:
        raise fail(2, "401 challenge lacks a resource_metadata parameter")
    transcript.add(
        2, "401 challenge with metadata pointer",
        "(response to step 1)", f"WWW-Authenticate: {challenge_header}",
    )

    meta_reply, elapsed_us = _fetch_metadata(metadata_url, 3, "metadata", fail)
    try:
        metadata = _json_object(meta_reply, "resource metadata")
    except AuthFlowError as exc:
        raise fail(4, str(exc))
    # RFC 9728 §2: a string resource, and an array of issuer strings.
    resource = metadata.get("resource", "")
    servers = metadata.get("authorization_servers", [])
    if not isinstance(resource, str):
        raise fail(4, "resource metadata 'resource' is not a string")
    if not isinstance(servers, list) or not all(isinstance(s, str) for s in servers):
        raise fail(4, "resource metadata 'authorization_servers' is not an array of strings")
    # RFC 9728 §3.3 and §7.3: metadata for another resource is an impersonation.
    if resource != mcp_url:
        raise fail(4, f"resource metadata names resource {resource!r:.80}, not {mcp_url!r}")
    transcript.add(
        3, "GET resource metadata (challenge URL)", f"GET {metadata_url}",
        "status 200", elapsed_us,
    )
    transcript.add(
        4, "resource metadata with authorization server",
        "(response to step 3)",
        f"authorization_servers={servers}",
    )

    # RFC 9728 §3.1: the well-known path goes between the resource's host and its path.
    parts = urlsplit(resource)
    suffixed_url = f"{parts.scheme}://{parts.netloc}{WELL_KNOWN_PATH}{parts.path}"
    suffixed_reply, elapsed_us = _fetch_metadata(suffixed_url, 5, "suffixed metadata", fail)
    if suffixed_reply.body != meta_reply.body:
        raise fail(6, "metadata documents at the two well-known paths differ")
    transcript.add(
        5, "GET resource metadata (path-suffixed variant)", f"GET {suffixed_url}",
        "status 200", elapsed_us,
    )
    transcript.add(
        6, "resource metadata (identical to step 4)",
        "(response to step 5)", "body equals step 4 body",
    )

    if not servers:
        raise fail(7, "metadata names no authorization servers")
    issuer = servers[0]
    pkce = generate_pkce()
    verifier_digest = hashlib.sha256(pkce.verifier.encode("ascii")).hexdigest()
    started = time.perf_counter()
    try:
        discovery = discover_oidc(issuer)
        # acquire_token runs authorize (7) and token (8-9) together;
        # any provider rejection surfaces here.
        token_response = acquire_token(discovery, persona, pkce, DEFAULT_REQUEST_SCOPES)
    except (OSError, AuthFlowError) as exc:
        raise fail(7, str(exc))
    transcript.add(
        7, "authorization request (PKCE)",
        f"GET {discovery['authorization_endpoint']} "
        f"(S256 verifier sha256={verifier_digest[:16]}...)",
        "302 redirect with authorization code", _us_since(started),
    )
    transcript.add(
        8, "token request (PKCE)",
        f"POST {discovery['token_endpoint']} grant_type=authorization_code",
        "(see step 9)",
    )
    transcript.add(
        9, "access token issued",
        "(response to step 8)",
        f"token_type={token_response.get('token_type')} "
        f"expires_in={token_response.get('expires_in')} (token withheld)",
    )

    token = token_response["access_token"]
    if token_store is not None:
        token_store.put(
            mcp_url, token, time.time() + float(token_response.get("expires_in", 0))
        )
    return token
