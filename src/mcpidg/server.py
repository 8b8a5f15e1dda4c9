"""The HTTP-facing MCP resource server.

Serves the OAuth-protected-resource discovery document, challenges
unauthenticated requests with a machine-followable WWW-Authenticate
header, validates bearer tokens before the JSON-RPC request is decoded,
dispatches authorized tool calls, and appends one audit record per tool
invocation (fail-closed).
"""

from __future__ import annotations

import json
import logging
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any
from urllib.parse import urlsplit

from . import __version__, httpserve, protocol
from .audit import AuditLog, AuditRecord, AuditSinkFailure, utc_timestamp
from .httpserve import Reply
from .policy import PolicyTable, ToolRegistry, authorize, visible_tools
from .tokens import DEFAULT_JWKS_TTL, JwksCache, TokenError, VerifierConfig, verify_bearer

log = logging.getLogger("mcpidg.server")

WELL_KNOWN_PATH = "/.well-known/oauth-protected-resource"
MCP_PATH = "/mcp"
BEARER_METHODS = ("header", "body")


class MalformedAuthorizationHeader(Exception):
    """Authorization header present but not a usable Bearer credential."""


@dataclass(frozen=True)
class ProtectedResourceMetadata:
    """The discovery document advertised at the well-known paths."""

    resource: str
    scopes_supported: tuple[str, ...]
    authorization_servers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.authorization_servers:
            raise ValueError("authorization_servers must not be empty")

    def to_dict(self) -> dict[str, Any]:
        return {
            "resource": self.resource,
            "scopes_supported": list(self.scopes_supported),
            "authorization_servers": list(self.authorization_servers),
            "bearer_methods_supported": list(BEARER_METHODS),
        }

    def to_json_bytes(self) -> bytes:
        # Byte-stable: fixed field order, compact separators.
        return json.dumps(self.to_dict(), separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class ServerConfig:
    bind_address: str = "localhost:8000"
    issuer_url: str = "http://localhost:8081/realms/master"
    resource_url: str | None = None  # derived from bind + MCP_PATH when unset
    required_scopes: frozenset[str] = frozenset({"openid", "profile"})
    jwks_ttl: float = DEFAULT_JWKS_TTL
    audit_sink: str = "audit.jsonl"
    policy_path: str | None = None


def metadata_document(config: ServerConfig) -> ProtectedResourceMetadata:
    if config.resource_url is None:
        raise ValueError("resource_url must be resolved before building metadata")
    return ProtectedResourceMetadata(
        resource=config.resource_url,
        scopes_supported=tuple(sorted(config.required_scopes)),
        authorization_servers=(config.issuer_url,),
    )


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


class McpApp:
    """Transport-independent request pipeline behind the server's routes."""

    def __init__(self, config: ServerConfig, policy: PolicyTable, registry: ToolRegistry):
        if config.resource_url is None:
            raise ValueError("resource_url must be resolved before serving")
        self.config = config
        self.policy = policy
        self.registry = registry
        self.cache = JwksCache(config.issuer_url, ttl=config.jwks_ttl)
        self.audit = AuditLog(config.audit_sink)
        self.verifier_config = VerifierConfig(config.resource_url, config.required_scopes)
        origin = urlsplit(config.resource_url)
        self.metadata_url = f"{origin.scheme}://{origin.netloc}{WELL_KNOWN_PATH}"
        self.metadata = metadata_document(config)

    # -- responses ---------------------------------------------------------

    def challenge(self, token_presented: bool) -> Reply:
        """401 with a WWW-Authenticate header pointing at the metadata URL.

        The error parameter appears only when a credential was presented
        and rejected, distinguishing "authenticate" from "re-authenticate".
        """
        value = f'Bearer resource_metadata="{self.metadata_url}"'
        if token_presented:
            value += ', error="invalid_token"'
        return Reply(status=401, headers={"WWW-Authenticate": value})

    def get_metadata(self, query: str, headers: dict[str, str], body: bytes) -> Reply:
        """The route serving the discovery document."""
        return Reply(200, {"Content-Type": "application/json"}, self.metadata.to_json_bytes())

    def _rpc_result(self, response: protocol.RpcResponse) -> Reply:
        return Reply(
            status=200,
            headers={"Content-Type": "application/json"},
            body=protocol.encode_response(response),
        )

    def _rpc_error(
        self,
        request_id: protocol.RequestId | None,
        code: int,
        message: str,
        data: Any = None,
    ) -> Reply:
        return self._rpc_result(protocol.error_response(request_id, code, message, data))

    # -- audit -------------------------------------------------------------

    def _append_audit(
        self,
        *,
        subject: str,
        roles: frozenset[str],
        scopes: frozenset[str],
        tool: str,
        decision: str,
        deny_reason: dict[str, Any] | None,
        validation_us: int,
        started: float,
    ) -> None:
        record = AuditRecord(
            timestamp=utc_timestamp(),
            request_id=str(uuid.uuid4()),
            subject=subject,
            roles=tuple(sorted(roles)),
            scopes=tuple(sorted(scopes)),
            tool=tool,
            decision=decision,
            deny_reason=deny_reason,
            validation_latency_us=validation_us,
            total_latency_us=int((time.perf_counter() - started) * 1e6),
        )
        self.audit.append(record)

    # -- pipeline ----------------------------------------------------------

    def handle_mcp_post(self, headers: dict[str, str], body: bytes) -> Reply:
        """Authentication strictly precedes JSON-RPC decoding and dispatch."""
        started = time.perf_counter()

        def audit_unauthenticated(reason: str, validation_us: int = 0) -> None:
            self._append_audit(
                subject="-",
                roles=frozenset(),
                scopes=frozenset(),
                tool="-",
                decision="unauthenticated",
                deny_reason={"kind": reason},
                validation_us=validation_us,
                started=started,
            )

        # A body that is not JSON is answered only after authentication.
        parse_error = None
        try:
            doc = protocol.parse_json(body)
        except protocol.ParseError as exc:
            doc, parse_error = None, exc

        try:
            token = extract_bearer(headers, doc)
        except MalformedAuthorizationHeader:
            audit_unauthenticated("malformed_authorization_header")
            return self.challenge(token_presented=True)
        if token is None:
            audit_unauthenticated("no_token")
            return self.challenge(token_presented=False)

        validation_started = time.perf_counter()
        try:
            identity = verify_bearer(token, self.verifier_config, self.cache)
        except TokenError:
            validation_us = int((time.perf_counter() - validation_started) * 1e6)
            audit_unauthenticated("invalid_token", validation_us)
            return self.challenge(token_presented=True)
        validation_us = int((time.perf_counter() - validation_started) * 1e6)

        if parse_error is not None:
            return self._rpc_error(None, parse_error.code, str(parse_error))
        try:
            request = protocol.decode_request(doc)
        except protocol.InvalidRequest as exc:
            return self._rpc_error(exc.request_id, exc.code, str(exc))

        if request.is_notification:
            # Notifications never receive an RPC body, even for unknown
            # methods; the transport acknowledges with 202.
            return Reply(status=202)

        if request.method == "initialize":
            return self._rpc_result(
                protocol.RpcResponse(id=request.id, result=self._initialize_result())
            )
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
            return self._rpc_result(protocol.RpcResponse(id=request.id, result=result))
        if request.method == "tools/call":
            return self._handle_tool_call(request, identity, validation_us, started)
        if request.method in protocol.METHODS:
            # Only notification methods remain; carrying an id is a shape error.
            return self._rpc_error(
                request.id, protocol.INVALID_REQUEST,
                f"method {request.method!r} is a notification and must not carry an id",
            )
        return self._rpc_error(
            request.id, protocol.METHOD_NOT_FOUND, f"method not found: {request.method}"
        )

    def _initialize_result(self) -> dict[str, Any]:
        return {
            "protocolVersion": "2025-06-18",
            "capabilities": {"tools": {"listChanged": False}},
            "serverInfo": {"name": "mcpidg", "version": __version__},
        }

    def _handle_tool_call(
        self,
        request: protocol.RpcRequest,
        identity,
        validation_us: int,
        started: float,
    ) -> Reply:
        params = dict(request.params or {})
        # Transport-level field, never forwarded to handlers or audit.
        params.pop("authorization", None)
        name = params.get("name")
        arguments = params.get("arguments", {})
        if not isinstance(name, str) or not name or not isinstance(arguments, dict):
            return self._rpc_error(
                request.id, protocol.INVALID_PARAMS,
                "tools/call requires a string 'name' and an object 'arguments'",
            )

        decision = authorize(identity, name, self.policy, self.registry)
        deny_reason: dict[str, Any] | None = None
        if not decision.allowed:
            deny_reason = {"kind": decision.reason}
            if decision.missing_scopes:
                deny_reason["missing"] = sorted(decision.missing_scopes)

        try:
            self._append_audit(
                subject=identity.subject,
                roles=identity.roles,
                scopes=identity.scopes,
                tool=name,
                decision=decision.outcome,
                deny_reason=deny_reason,
                validation_us=validation_us,
                started=started,
            )
        except AuditSinkFailure as exc:
            log.error("audit sink failure: %s", exc)
            return self._rpc_error(
                request.id, protocol.INTERNAL_ERROR, "audit sink unavailable"
            )

        if not decision.allowed:
            data = {"reason": decision.reason, "tool": name}
            if decision.missing_scopes:
                data["missing_scopes"] = sorted(decision.missing_scopes)
            return self._rpc_error(request.id, protocol.FORBIDDEN, "forbidden", data)

        try:
            payload = self.registry.call(name, arguments)
        except Exception:
            log.exception("tool handler %r failed", name)
            return self._rpc_error(
                request.id, protocol.INTERNAL_ERROR, "tool handler failure"
            )
        return self._rpc_result(protocol.RpcResponse(id=request.id, result=payload))


class ServerHandle(httpserve.HttpServer):
    """A running resource server; stop() completes in-flight requests."""

    app: McpApp

    @property
    def resource_url(self) -> str:
        return self.app.config.resource_url  # type: ignore[return-value]

    @property
    def metadata_url(self) -> str:
        return self.app.metadata_url


def serve(config: ServerConfig, policy: PolicyTable, registry: ToolRegistry) -> ServerHandle:
    """Bind, resolve the externally visible resource URL, and start serving."""
    handle = ServerHandle(config.bind_address, log)
    resolved = replace(config, resource_url=config.resource_url or handle.origin + MCP_PATH)
    app = handle.app = McpApp(resolved, policy, registry)
    handle.routes = {
        ("GET", WELL_KNOWN_PATH): app.get_metadata,
        ("GET", WELL_KNOWN_PATH + MCP_PATH): app.get_metadata,
        # Looked up per call, so a wrapper set on McpApp later still applies.
        ("POST", MCP_PATH): lambda query, headers, body: app.handle_mcp_post(headers, body),
    }
    handle.start("mcpidg-server")
    return handle
