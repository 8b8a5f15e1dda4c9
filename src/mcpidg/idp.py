"""Embedded deterministic OAuth 2.0 / OIDC provider.

Drives the full authorization sequence without a browser: the authorize
endpoint takes the username directly and auto-approves, simulating an
already-authenticated session. PKCE (S256) is mandatory, authorization
codes are single-use with short expiry, access tokens are short-lived
RS256 JWTs, and no refresh tokens are ever issued. Key rotation exists so
stale-JWKS scenarios can be exercised.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import secrets
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable
from urllib.parse import parse_qs, urlencode, urlsplit

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from . import httpserve, protocol
from .httpserve import Reply
from .tokens import DISCOVERY_PATH, b64url_encode

log = logging.getLogger("mcpidg.idp")

TOKEN_LIFETIME_S = 300
CODE_LIFETIME_S = 60.0
ISSUER_PATH = "/realms/master"
# A token request has 5 fields and an authorize request 8; parse_qs
# raises ValueError past this many, before building them all.
MAX_FORM_FIELDS = 32


class IdpError(Exception):
    """Rendered as an OAuth error JSON body."""

    oauth_error = "invalid_request"
    http_status = 400


class UnknownClient(IdpError):
    oauth_error = "invalid_client"
    http_status = 401


class RedirectUriNotWhitelisted(IdpError):
    oauth_error = "invalid_request"


class MissingPkceChallenge(IdpError):
    oauth_error = "invalid_request"


class UnsupportedChallengeMethod(IdpError):
    oauth_error = "invalid_request"


class UnknownUser(IdpError):
    oauth_error = "access_denied"


class UnsupportedGrantType(IdpError):
    oauth_error = "unsupported_grant_type"


class InvalidGrant(IdpError):
    oauth_error = "invalid_grant"


class PkceVerificationFailed(IdpError):
    oauth_error = "invalid_grant"


@dataclass(frozen=True)
class UserRecord:
    username: str
    roles: frozenset[str]
    grantable_scopes: frozenset[str]


@dataclass(frozen=True)
class ClientRegistration:
    client_id: str
    redirect_uris: frozenset[str]


@dataclass
class AuthorizationCodeRecord:
    code: str
    client_id: str
    redirect_uri: str
    code_challenge: str
    username: str
    scopes: frozenset[str]
    expires_at: float


@dataclass
class SigningKey:
    kid: str
    private_key: rsa.RSAPrivateKey


def default_users() -> tuple[UserRecord, ...]:
    base = frozenset({"openid", "profile"})
    return (
        UserRecord(
            "developer-persona",
            frozenset({"developer"}),
            base | {"mcp.docs.read", "mcp.code.search"},
        ),
        UserRecord(
            "contractor-persona", frozenset({"contractor"}), base | {"mcp.docs.read"}
        ),
        UserRecord(
            "operator-persona", frozenset({"operator"}), base | {"mcp.ops.read"}
        ),
    )


DEFAULT_CLIENT_ID = "ide-extension"
DEFAULT_REDIRECT_URI = "http://localhost:33418/callback"


def default_clients() -> tuple[ClientRegistration, ...]:
    return (
        ClientRegistration(
            client_id=DEFAULT_CLIENT_ID,
            redirect_uris=frozenset(
                {DEFAULT_REDIRECT_URI, "http://127.0.0.1:33418/callback"}
            ),
        ),
    )


def s256_challenge(verifier: str) -> str:
    # UTF-8, so a non-ASCII verifier fails to match instead of raising.
    return b64url_encode(hashlib.sha256(verifier.encode("utf-8")).digest())


def load_fixtures(
    document: Any,
) -> tuple[tuple[UserRecord, ...], tuple[ClientRegistration, ...]]:
    """Users and client registrations from a config document.

    Either section may be omitted, in which case the shipped defaults
    apply. Schema: {"users": [{"username", "roles", "grantable_scopes"}],
    "clients": [{"client_id", "redirect_uris"}]}; every name is a string
    and every list an array of strings. ValueError names the first defect.
    """
    if not isinstance(document, dict):
        raise ValueError("fixtures must be a JSON object")

    def entries(section: str, name: str) -> list[dict[str, Any]]:
        found = document.get(section, [])
        if not isinstance(found, list) or not all(
            isinstance(entry, dict) and isinstance(entry.get(name), str) for entry in found
        ):
            raise ValueError(f"{section!r} must be an array of objects with a string {name!r}")
        return found

    def strings(entry: dict[str, Any], key: str) -> frozenset[str]:
        value = entry.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{key!r} must be an array of strings")
        return frozenset(value)

    users = tuple(
        UserRecord(entry["username"], strings(entry, "roles"), strings(entry, "grantable_scopes"))
        for entry in entries("users", "username")
    ) or default_users()
    clients = tuple(
        ClientRegistration(entry["client_id"], strings(entry, "redirect_uris"))
        for entry in entries("clients", "client_id")
    ) or default_clients()
    return users, clients


def _rsa_jwk(kid: str, key: rsa.RSAPrivateKey) -> dict[str, str]:
    numbers = key.public_key().public_numbers()

    def enc(value: int) -> str:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return b64url_encode(raw)

    return {
        "kid": kid,
        "kty": "RSA",
        "alg": "RS256",
        "use": "sig",
        "n": enc(numbers.n),
        "e": enc(numbers.e),
    }


# kid values never repeat within a process lifetime, across every
# provider instance (next() on itertools.count is atomic in CPython).
_KID_SEQUENCE = itertools.count(1)


class MockIdp:
    """Protocol core; IdpHandle.launch's endpoint() adapter puts it on HTTP."""

    def __init__(
        self,
        issuer: str,
        audience: str,
        users: tuple[UserRecord, ...] | None = None,
        clients: tuple[ClientRegistration, ...] | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.issuer = issuer.rstrip("/")
        self.audience = audience
        self._clock = clock
        self.users = {u.username: u for u in (users or default_users())}
        self.clients = {c.client_id: c for c in (clients or default_clients())}
        self._codes: dict[str, AuthorizationCodeRecord] = {}
        self._code_lock = threading.Lock()
        self._keys: list[SigningKey] = []  # the last one is the active key
        self._key_lock = threading.Lock()
        self.rotate_keys(retain_old=False)

    # -- keys ----------------------------------------------------------------

    def rotate_keys(self, retain_old: bool) -> str:
        """Swap in a fresh signing key; drop retired keys unless retained."""
        key = SigningKey(
            kid=f"key-{next(_KID_SEQUENCE)}",
            private_key=rsa.generate_private_key(public_exponent=65537, key_size=2048),
        )
        with self._key_lock:
            if not retain_old:
                self._keys.clear()
            self._keys.append(key)
        return key.kid

    def active_kid(self) -> str:
        with self._key_lock:
            return self._keys[-1].kid

    def jwks_document(self) -> dict[str, Any]:
        with self._key_lock:
            return {"keys": [_rsa_jwk(k.kid, k.private_key) for k in self._keys]}

    # -- token minting -------------------------------------------------------

    def sign_claims(self, claims: dict[str, Any]) -> str:
        """RS256-sign a claims map with the active key (tests craft corpora with it)."""
        with self._key_lock:
            signer = self._keys[-1]
        header = {"alg": "RS256", "kid": signer.kid, "typ": "JWT"}
        signing_input = (
            b64url_encode(protocol.encode_json(header).encode())
            + "."
            + b64url_encode(protocol.encode_json(claims).encode())
        )
        signature = signer.private_key.sign(
            signing_input.encode("ascii"), padding.PKCS1v15(), hashes.SHA256()
        )
        return signing_input + "." + b64url_encode(signature)

    def standard_claims(
        self,
        username: str,
        scopes: frozenset[str],
        lifetime: float | None = None,
    ) -> dict[str, Any]:
        user = self.users[username]
        now = int(self._clock())
        return {
            "iss": self.issuer,
            "sub": username,
            "aud": [self.audience],
            "iat": now,
            "exp": now + int(TOKEN_LIFETIME_S if lifetime is None else lifetime),
            "jti": str(uuid.uuid4()),
            "scope": " ".join(sorted(scopes)),
            "roles": sorted(user.roles),
        }

    def issue_token_for(
        self,
        username: str,
        scopes: frozenset[str] | None = None,
        lifetime: float | None = None,
    ) -> str:
        """Direct mint, bypassing the code flow (test and bench helper)."""
        user = self.users[username]
        granted = user.grantable_scopes if scopes is None else scopes
        return self.sign_claims(self.standard_claims(username, frozenset(granted), lifetime))

    # -- endpoints -----------------------------------------------------------

    def discovery_document(self) -> dict[str, Any]:
        return {
            "issuer": self.issuer,
            "authorization_endpoint": f"{self.issuer}/authorize",
            "token_endpoint": f"{self.issuer}/token",
            "jwks_uri": f"{self.issuer}/jwks",
            "response_types_supported": ["code"],
            "code_challenge_methods_supported": ["S256"],
        }

    def handle_authorize(self, params: dict[str, str]) -> str:
        """Validate an authorization request and return the redirect location.

        Auto-approves as the named user; the granted scopes are the
        requested set intersected with the user's grantable scopes.
        """
        client_id = params.get("client_id", "")
        client = self.clients.get(client_id)
        if client is None:
            raise UnknownClient(f"client {client_id!r} is not registered")
        redirect_uri = params.get("redirect_uri", "")
        if redirect_uri not in client.redirect_uris:
            raise RedirectUriNotWhitelisted(
                f"redirect_uri {redirect_uri!r} is not whitelisted for client "
                f"{client_id!r}; add the exact URL (scheme, host, port and path) "
                f"to the client's registered redirect list"
            )
        if params.get("response_type") != "code":  # RFC 6749 §4.1.1: REQUIRED
            raise IdpError("response_type is required and must be code")
        challenge = params.get("code_challenge", "")
        if not challenge:
            raise MissingPkceChallenge("code_challenge is required (PKCE mandatory)")
        method = params.get("code_challenge_method", "")
        if method != "S256":
            raise UnsupportedChallengeMethod(
                f"code_challenge_method {method!r} unsupported; only S256"
            )
        username = params.get("username", "")
        user = self.users.get(username)
        if user is None:
            raise UnknownUser(f"no such user {username!r}")
        requested = frozenset(params.get("scope", "").split())
        granted = requested & user.grantable_scopes
        code = secrets.token_urlsafe(32)  # 256 bits of entropy
        now = self._clock()
        record = AuthorizationCodeRecord(
            code=code,
            client_id=client_id,
            redirect_uri=redirect_uri,
            code_challenge=challenge,
            username=username,
            scopes=granted,
            expires_at=now + CODE_LIFETIME_S,
        )
        with self._code_lock:
            # Codes are stored oldest first, so the expired ones lead.
            while self._codes:
                oldest = next(iter(self._codes.values()))
                if oldest.expires_at >= now:
                    break
                del self._codes[oldest.code]
            self._codes[code] = record
        query = {"code": code}
        if params.get("state"):
            query["state"] = params["state"]
        separator = "&" if "?" in redirect_uri else "?"
        return f"{redirect_uri}{separator}{urlencode(query)}"

    def handle_token(self, params: dict[str, str]) -> dict[str, Any]:
        """Redeem a code for an access token; never issues refresh tokens."""
        grant_type = params.get("grant_type")
        if grant_type is None:
            raise IdpError("grant_type is required")
        if grant_type != "authorization_code":
            raise UnsupportedGrantType(
                f"grant_type {grant_type!r:.40} unsupported (authorization_code only)"
            )
        code = params.get("code", "")
        verifier = params.get("code_verifier", "")
        now = self._clock()
        with self._code_lock:
            record = self._codes.get(code)
            if record is None:
                raise InvalidGrant("unknown or already redeemed authorization code")
            if now > record.expires_at:
                raise InvalidGrant("authorization code expired")
            if record.client_id != params.get("client_id"):
                raise InvalidGrant("client_id does not match the authorization code")
            if record.redirect_uri != params.get("redirect_uri"):
                raise InvalidGrant("redirect_uri does not match the authorization code")
            if s256_challenge(verifier) != record.code_challenge:
                raise PkceVerificationFailed(
                    "code_verifier does not match the bound code_challenge"
                )
            del self._codes[code]  # single use
        token = self.sign_claims(
            self.standard_claims(record.username, record.scopes)
        )
        return {
            "access_token": token,
            "token_type": "Bearer",
            "expires_in": TOKEN_LIFETIME_S,
            "scope": " ".join(sorted(record.scopes)),
        }


@dataclass(frozen=True)
class IdpConfig:
    bind_address: str = "localhost:8081"
    issuer_url: str | None = None  # derived from bind + ISSUER_PATH when unset
    audience: str = "http://localhost:8000/mcp"
    users: tuple[UserRecord, ...] | None = None  # None: default_users()
    clients: tuple[ClientRegistration, ...] | None = None  # None: default_clients()


def _json_reply(doc: dict[str, Any], status: int = 200) -> Reply:
    body = protocol.encode_json(doc).encode("utf-8")
    return Reply(status, {"Content-Type": "application/json"}, body)


def _form(data: str | bytes) -> dict[str, str]:
    """The fields of a form; IdpError if not UTF-8, past MAX_FORM_FIELDS or repeating
    one (RFC 6749 §3.1; a field without a value counts as omitted, as parse_qs does)."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        fields = parse_qs(text, max_num_fields=MAX_FORM_FIELDS)
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise IdpError(f"unusable form: {exc}") from None
    for name, values in fields.items():
        if len(values) > 1:
            raise IdpError(f"parameter {name!r:.40} is repeated")
    return {k: v[0] for k, v in fields.items()}


class IdpHandle(httpserve.HttpServer):
    """A running mock identity provider with per-endpoint request counters."""

    core: MockIdp

    def __init__(self, bind_address: str):
        super().__init__(bind_address, log)
        self._counters: Counter[str] = Counter()
        self._counter_lock = threading.Lock()

    @property
    def issuer(self) -> str:
        return self.core.issuer

    def counters(self) -> dict[str, int]:
        with self._counter_lock:
            return dict(self._counters)

    @property
    def total_requests(self) -> int:
        return self.counters().get("total", 0)

    def launch(self, config: IdpConfig) -> "IdpHandle":
        """serve_idp on this bound listener: config.bind_address is not read."""
        issuer = config.issuer_url or self.origin + ISSUER_PATH
        core = self.core = MockIdp(issuer, config.audience, config.users, config.clients)
        prefix = urlsplit(issuer).path.rstrip("/")

        def endpoint(name: str, answer: Callable[[str, bytes], Reply]) -> httpserve.Route:
            """The route that counts each request to name and answers an IdpError
            as one JSON object with error and error_description (RFC 6749 §5.2)."""

            def route(query: str, headers: dict[str, str], body: bytes) -> Reply:
                with self._counter_lock:
                    self._counters.update((name, "total"))
                try:
                    return answer(query, body)
                except IdpError as exc:
                    error = {"error": exc.oauth_error, "error_description": str(exc)}
                    return _json_reply(error, exc.http_status)

            return route

        def token(query: str, body: bytes) -> Reply:
            reply = _json_reply(core.handle_token(_form(body)))
            reply.headers["Cache-Control"] = "no-store"  # it holds a token (RFC 6749 §5.1)
            return reply

        # The answers look up core's methods per request, so a wrapper set on MockIdp later
        # still applies.
        self.routes = {
            ("GET", prefix + DISCOVERY_PATH): endpoint(
                "discovery", lambda query, body: _json_reply(core.discovery_document())
            ),
            ("GET", f"{prefix}/jwks"): endpoint(
                "jwks", lambda query, body: _json_reply(core.jwks_document())
            ),
            ("GET", f"{prefix}/authorize"): endpoint(
                "authorize",
                lambda query, body: Reply(302, {"Location": core.handle_authorize(_form(query))}),
            ),
            ("POST", f"{prefix}/token"): endpoint("token", token),
        }
        self.start("mcpidg-idp")
        return self


def serve_idp(config: IdpConfig) -> IdpHandle:
    """Bind, resolve the issuer URL, and start the provider."""
    return IdpHandle(config.bind_address).launch(config)
