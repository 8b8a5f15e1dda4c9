"""The HTTP-facing MCP resource server.

Serves the OAuth-protected-resource discovery document, challenges
unauthenticated requests with a machine-followable WWW-Authenticate
header, validates bearer tokens before the JSON-RPC request is decoded,
dispatches authorized tool calls, and appends one audit record per
access decision (fail-closed).
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any
from urllib.parse import urlsplit

from . import __version__, httpserve, protocol, tokens
from .audit import AuditLog, AuditSinkFailure
from .httpserve import Reply
from .policy import PolicyTable, ToolRegistry, authorize, visible_tools
from .tokens import (
    InsufficientScope, JwksCache, TokenError, ValidatedIdentity, VerifierConfig, verify_bearer,
)

log = logging.getLogger("mcpidg.server")

WELL_KNOWN_PATH = "/.well-known/oauth-protected-resource"
MCP_PATH = "/mcp"


class MalformedAuthorizationHeader(Exception):
    """Authorization header present but not a usable Bearer credential."""


@dataclass(frozen=True)
class ServerConfig:
    bind_address: str = "localhost:8000"
    issuer_url: str = "http://localhost:8081/realms/master"
    resource_url: str | None = None  # derived from bind + MCP_PATH when unset
    required_scopes: frozenset[str] = tokens.DEFAULT_REQUIRED_SCOPES
    audit_sink: str = "audit.jsonl"


def extract_bearer(headers: dict[str, str], doc: Any) -> str | None:
    """Token from the Authorization header, else from params.authorization.

    ``doc`` is the parsed POST body, or None when it is not JSON. The
    header wins when both are present. Raises
    MalformedAuthorizationHeader for non-Bearer schemes or an empty
    credential; returns None when nothing was presented at all.
    """
    auth = headers.get("authorization")
    if auth is not None:
        scheme, _, credential = auth.partition(" ")
        credential = credential.strip()
        if scheme.lower() != "bearer" or not credential:
            raise MalformedAuthorizationHeader(
                f"authorization scheme {scheme!r} is not a usable Bearer credential"
            )
        return credential
    if isinstance(doc, dict):
        params = doc.get("params")
        if isinstance(params, dict):
            token = params.get("authorization")
            if isinstance(token, str) and token:
                return token
    return None


INITIALIZE_RESULT = {
    "protocolVersion": "2025-06-18",
    "capabilities": {"tools": {"listChanged": False}},
    "serverInfo": {"name": "mcpidg", "version": __version__},
}


# An audit record's request_id: unique within the process by its counter,
# and across processes by its random prefix.
_REQUEST_ID_PREFIX = os.urandom(8).hex()
_REQUEST_SEQUENCE = itertools.count(1)

# A record's identity part when no token was accepted.
_ANONYMOUS_FIELDS = '"subject":"-","roles":[],"scopes":[]'


@lru_cache(maxsize=tokens.MAX_VERIFIED_TOKENS)
def _identity_fields(identity: ValidatedIdentity) -> str:
    """An audit record's subject, sorted roles and sorted scopes, encoded once per identity."""
    roles, scopes = sorted(identity.roles), sorted(identity.scopes)
    members = {"subject": identity.subject, "roles": roles, "scopes": scopes}
    return protocol.encode_json(members)[1:-1]  # without the braces


@lru_cache(maxsize=1)
def _utc_second(second: int) -> str:
    """The RFC 3339 UTC date and time of a whole second, formatted once per second."""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second))


def _rpc_reply(response: protocol.RpcResponse) -> Reply:
    return Reply(200, {"Content-Type": "application/json"}, protocol.encode_response(response))


class McpApp:
    """Transport-independent request pipeline behind the server's routes."""

    def __init__(self, config: ServerConfig, policy: PolicyTable, registry: ToolRegistry):
        if config.resource_url is None:
            raise ValueError("resource_url must be resolved before serving")
        self.config = config
        self.policy = policy
        self.registry = registry
        self.cache = JwksCache(config.issuer_url)
        self.audit = AuditLog(config.audit_sink)
        self.verifier_config = VerifierConfig(config.resource_url, config.required_scopes)
        origin = urlsplit(config.resource_url)
        self.metadata_url = f"{origin.scheme}://{origin.netloc}{WELL_KNOWN_PATH}"
        # The discovery document, byte-stable: fixed field order, compact separators.
        self.metadata = protocol.encode_json({
            "resource": config.resource_url,
            "scopes_supported": sorted(config.required_scopes),
            "authorization_servers": [config.issuer_url],
            "bearer_methods_supported": ["header", "body"],
        }).encode("utf-8")

    # -- responses ---------------------------------------------------------

    def challenge(self, error: str | None) -> Reply:
        """401 with a WWW-Authenticate header pointing at the metadata URL.

        ``error`` is the RFC 6750 §3.1 code, None when no credential was
        presented: "authenticate" rather than "re-authenticate". With
        "insufficient_scope" the header also names the scopes required
        (§3), so a client can tell that signing in again will not help.
        A rejected token is a 401 either way.
        """
        value = f'Bearer resource_metadata="{self.metadata_url}"'
        if error is not None:
            value += f', error="{error}"'
        if error == "insufficient_scope":
            value += f', scope="{" ".join(sorted(self.config.required_scopes))}"'
        return Reply(status=401, headers={"WWW-Authenticate": value})

    def get_metadata(self, query: str, headers: dict[str, str], body: bytes) -> Reply:
        """The route serving the discovery document."""
        return Reply(200, {"Content-Type": "application/json"}, self.metadata)

    # -- pipeline ----------------------------------------------------------

    def handle_mcp_post(self, headers: dict[str, str], body: bytes) -> Reply:
        """Authentication strictly precedes JSON-RPC decoding and dispatch.

        One pass: decide the outcome, answering at once those that leave no
        audit record; append the one record of an unauthenticated request
        or a tools/call decision; answer. The record reaches the sink before
        a challenge, a deny or a tool handler, or the decision is not carried out.
        """
        started = time.perf_counter()

        # A body that is not JSON is answered only after authentication.
        parse_error = None
        try:
            doc = protocol.parse_json(body)
        except protocol.ParseError as exc:
            doc, parse_error = None, exc

        # 1. Decide. Each unauthenticated outcome is a challenge with a record.
        identity, reason, error, validation_us = None, "no_token", None, 0
        try:
            token = extract_bearer(headers, doc)
        except MalformedAuthorizationHeader:
            token, reason, error = None, "malformed_authorization_header", "invalid_token"
        if token is not None:
            validation_started = time.perf_counter()
            try:
                identity = verify_bearer(token, self.verifier_config, self.cache)
            except InsufficientScope:
                reason, error = "invalid_token", "insufficient_scope"
            except TokenError:
                reason = error = "invalid_token"
            validation_us = int((time.perf_counter() - validation_started) * 1e6)

        tool, outcome, deny_reason = "-", "unauthenticated", {"kind": reason}
        if identity is not None:
            if parse_error is not None:
                return _rpc_reply(protocol.error_response(None, parse_error.code, str(parse_error)))
            try:
                request = protocol.decode_request(doc)
            except protocol.InvalidRequest as exc:
                return _rpc_reply(protocol.error_response(exc.request_id, exc.code, str(exc)))
            if request.is_notification:
                # Notifications never receive an RPC body, even for unknown
                # methods; the transport acknowledges with 202.
                return Reply(status=202)
            if request.method == "initialize":
                return _rpc_reply(protocol.RpcResponse(request.id, INITIALIZE_RESULT))
            if request.method == "tools/list":
                tools = visible_tools(identity, self.policy, self.registry)
                result = {
                    "tools": [
                        {
                            "name": t.name,
                            "description": t.description,
                            "required_scopes": sorted(t.required_scopes),
                        }
                        for t in tools
                    ]
                }
                return _rpc_reply(protocol.RpcResponse(request.id, result))
            if request.method != "tools/call":
                if request.method in protocol.METHODS:
                    # Only notification methods remain; carrying an id is a shape error.
                    return _rpc_reply(protocol.error_response(
                        request.id, protocol.INVALID_REQUEST,
                        f"method {request.method!r} is a notification and must not carry an id",
                    ))
                return _rpc_reply(protocol.error_response(
                    request.id, protocol.METHOD_NOT_FOUND, f"method not found: {request.method}"
                ))
            params = request.params or {}
            tool, arguments = params.get("name"), params.get("arguments", {})
            if not isinstance(tool, str) or not tool or not isinstance(arguments, dict):
                return _rpc_reply(protocol.error_response(
                    request.id, protocol.INVALID_PARAMS,
                    "tools/call requires a string 'name' and an object 'arguments'",
                ))
            decision = authorize(identity, tool, self.policy, self.registry)
            outcome, deny_reason = decision.outcome, None
            if not decision.allowed:
                deny_reason = {"kind": decision.reason}
                if decision.missing_scopes:
                    deny_reason["missing"] = sorted(decision.missing_scopes)

        # 2. Audit: the record's keys, in this order, on one compact line
        # spliced from encoded parts. The subject is unmasked; console logs
        # carry the masked form.
        second, micros = divmod(time.time_ns() // 1000, 1_000_000)
        denied = f'"deny_reason":{protocol.encode_json(deny_reason)},' if deny_reason else ""
        line = (
            f'{{"timestamp":"{_utc_second(second)}.{micros:06d}+00:00",'
            f'"request_id":"{_REQUEST_ID_PREFIX}-{next(_REQUEST_SEQUENCE)}",'
            f'{_identity_fields(identity) if identity else _ANONYMOUS_FIELDS},'
            f'"tool":{protocol.encode_json(tool)},"decision":"{outcome}",{denied}'
            f'"validation_latency_us":{validation_us},'
            f'"total_latency_us":{int((time.perf_counter() - started) * 1e6)}}}'
        )
        try:
            self.audit.append(line)
        except AuditSinkFailure as exc:
            log.error("audit sink failure: %s", exc)
            if identity is None:
                # No challenge: a token fetched now could not be used while the sink is down.
                return Reply(status=503, headers={"Retry-After": "1"})
            return _rpc_reply(protocol.error_response(
                request.id, protocol.INTERNAL_ERROR, "audit sink unavailable"
            ))

        # 3. Answer.
        if identity is None:
            return self.challenge(error)
        if not decision.allowed:
            data = {"reason": decision.reason, "tool": tool}
            if decision.missing_scopes:
                data["missing_scopes"] = sorted(decision.missing_scopes)
            return _rpc_reply(
                protocol.error_response(request.id, protocol.FORBIDDEN, "forbidden", data)
            )
        try:
            payload = self.registry.call(tool, arguments)
        except Exception:
            log.exception("tool handler %r failed", tool)
            return _rpc_reply(protocol.error_response(
                request.id, protocol.INTERNAL_ERROR, "tool handler failure"
            ))
        return _rpc_reply(protocol.RpcResponse(request.id, payload))


class ServerHandle(httpserve.HttpServer):
    """A running resource server; stop() completes in-flight requests."""

    app: McpApp

    @property
    def resource_url(self) -> str:
        return self.app.config.resource_url  # type: ignore[return-value]

    @property
    def metadata_url(self) -> str:
        return self.app.metadata_url

    def stop(self) -> None:
        super().stop()
        self.app.audit.close()  # no request is left to append

    def launch(
        self, config: ServerConfig, policy: PolicyTable, registry: ToolRegistry
    ) -> "ServerHandle":
        """serve on this bound listener: config.bind_address is not read."""
        resolved = replace(config, resource_url=config.resource_url or self.origin + MCP_PATH)
        app = self.app = McpApp(resolved, policy, registry)
        path = urlsplit(resolved.resource_url).path
        self.routes = {
            ("GET", WELL_KNOWN_PATH): app.get_metadata,
            # RFC 9728 §3.1: the well-known path goes between the host and the resource's path.
            ("GET", WELL_KNOWN_PATH + path): app.get_metadata,
            # Looked up per call, so a wrapper set on McpApp later still applies.
            ("POST", path or "/"): lambda query, headers, body: app.handle_mcp_post(headers, body),
        }
        self.start("mcpidg-server")
        return self


def serve(config: ServerConfig, policy: PolicyTable, registry: ToolRegistry) -> ServerHandle:
    """Bind, resolve the externally visible resource URL, and start serving."""
    return ServerHandle(config.bind_address, log).launch(config, policy, registry)
