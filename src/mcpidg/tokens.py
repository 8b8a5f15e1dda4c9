"""Bearer-token verification against an identity provider's published keys.

The pipeline is parse -> key lookup (cached JWKS) -> RS256 signature check
-> claims validation, composed by :func:`verify_bearer`. Every failure mode
has its own exception class so the server can challenge with precise
diagnostics and tests can pin the exact rejection reason. The algorithm is
fixed to RS256; ``none`` and HMAC algorithms are rejected before any key
material is touched, which closes the classic algorithm-confusion
downgrades.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from . import httpclient

log = logging.getLogger("mcpidg.tokens")

DEFAULT_JWKS_TTL = 300.0
# Least time between two forced key refreshes for one issuer (Keycloak's
# min-time-between-jwks-requests has the same default).
MIN_REFRESH_INTERVAL_S = 10.0
DEFAULT_CLOCK_SKEW = 30.0


class TokenError(Exception):
    """Base class for every bearer-token rejection."""


class MalformedToken(TokenError):
    """Not a three-segment base64url compact JWT, or segments not JSON."""


class UnsupportedAlgorithm(TokenError):
    """Header alg is anything other than RS256 (including "none")."""


class UnknownKeyId(TokenError):
    """No key in the JWKS matches the token's kid."""


class SignatureInvalid(TokenError):
    pass


class WrongIssuer(TokenError):
    pass


class WrongAudience(TokenError):
    pass


class Expired(TokenError):
    pass


class NotYetValid(TokenError):
    pass


class InsufficientScope(TokenError):
    def __init__(self, missing: frozenset[str]):
        super().__init__(f"token lacks required scopes: {sorted(missing)}")
        self.missing = frozenset(missing)


class JwksUnreachable(TokenError):
    """Key fetch failed: no fresh cached entry exists, or a forced refresh failed."""


class EmptySubject(TokenError):
    pass


def _b64url_decode(segment: str) -> bytes:
    pad = "=" * (-len(segment) % 4)
    try:
        return base64.urlsafe_b64decode(segment + pad)
    except (binascii.Error, ValueError) as exc:
        raise MalformedToken(f"invalid base64url segment: {exc}") from exc


def b64url_encode(raw: bytes) -> str:
    """Unpadded base64url, the JOSE wire form."""
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


@dataclass(frozen=True)
class CompactJwt:
    header: dict[str, Any]
    payload: dict[str, Any]
    signature: bytes
    signing_input: bytes

    @property
    def kid(self) -> str:
        return self.header.get("kid", "")


@dataclass(frozen=True)
class ValidatedIdentity:
    """The principal attached to a request.

    Instances are built by :func:`validate_claims`, whose only caller in
    the package is :func:`verify_bearer`; nothing else may mint one.
    """

    subject: str
    scopes: frozenset[str]
    roles: frozenset[str]
    expires_at: int
    issuer: str


class JwkSet:
    """An RSA signing-key set addressed by kid.

    Each key's public-key object is built once, here. A key that cannot
    be built (not RSA, unusable material) does not spoil the set: a token
    naming its kid fails with SignatureInvalid, the others still verify.
    """

    def __init__(self, keys: list[dict[str, Any]]):
        kids = [k.get("kid") for k in keys]
        if len(kids) != len(set(kids)):
            raise ValueError("duplicate kid values in key set")
        self._public_keys: dict[Any, rsa.RSAPublicKey] = {}
        self._unusable: dict[Any, str] = {}
        for jwk in keys:
            try:
                self._public_keys[jwk.get("kid")] = _public_key_from_jwk(jwk)
            except SignatureInvalid as exc:
                self._unusable[jwk.get("kid")] = str(exc)

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "JwkSet":
        keys = doc.get("keys")
        if not isinstance(keys, list):
            raise ValueError("JWKS document must carry a 'keys' array")
        return cls(keys)

    def public_key(self, kid: str) -> rsa.RSAPublicKey:
        public_key = self._public_keys.get(kid)
        if public_key is not None:
            return public_key
        if kid in self._unusable:
            raise SignatureInvalid(self._unusable[kid])
        raise UnknownKeyId(f"no key with kid {kid!r} in the key set")


def parse_compact(token: str) -> CompactJwt:
    """Split and decode the compact serialization without verifying it.

    Rejects anything that is not exactly three base64url segments with a
    JSON object header and payload, and any algorithm other than RS256 --
    before key material is ever consulted.
    """
    segments = token.split(".")
    if len(segments) != 3:
        raise MalformedToken(f"expected 3 segments, found {len(segments)}")
    header_b64, payload_b64, signature_b64 = segments
    try:
        header = json.loads(_b64url_decode(header_b64))
        payload = json.loads(_b64url_decode(payload_b64))
    except (RecursionError, ValueError) as exc:  # too deep, too long a number, not JSON
        raise MalformedToken(f"header/payload is not JSON: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(payload, dict):
        raise MalformedToken("header and payload must be JSON objects")
    alg = header.get("alg")
    if alg != "RS256":
        raise UnsupportedAlgorithm(f"algorithm {alg!r} is not accepted (RS256 only)")
    if not isinstance(header.get("kid"), str) or not header["kid"]:
        raise MalformedToken("header lacks a kid")
    return CompactJwt(
        header=header,
        payload=payload,
        signature=_b64url_decode(signature_b64),
        signing_input=f"{header_b64}.{payload_b64}".encode("ascii"),
    )


def _public_key_from_jwk(jwk: dict[str, Any]):
    if jwk.get("kty") != "RSA":
        raise SignatureInvalid(f"key {jwk.get('kid')!r} is not an RSA key")
    try:
        n = int.from_bytes(_b64url_decode(jwk["n"]), "big")
        e = int.from_bytes(_b64url_decode(jwk["e"]), "big")
        return rsa.RSAPublicNumbers(e, n).public_key()
    except (KeyError, TypeError, ValueError, MalformedToken) as exc:
        raise SignatureInvalid(f"key {jwk.get('kid')!r} has unusable material") from exc


def verify_signature(jwt: CompactJwt, keys: JwkSet) -> dict[str, Any]:
    """RSASSA-PKCS1-v1_5/SHA-256 over the signing input; returns raw claims."""
    public_key = keys.public_key(jwt.kid)
    try:
        public_key.verify(
            jwt.signature, jwt.signing_input, padding.PKCS1v15(), hashes.SHA256()
        )
    except InvalidSignature as exc:
        raise SignatureInvalid("signature does not verify") from exc
    return dict(jwt.payload)


def _audience_set(claims: dict[str, Any]) -> frozenset[str]:
    aud = claims.get("aud")
    if isinstance(aud, str):
        return frozenset({aud})
    if isinstance(aud, list):
        return frozenset(a for a in aud if isinstance(a, str))
    return frozenset()


def _scope_set(claims: dict[str, Any]) -> frozenset[str]:
    scope = claims.get("scope")
    if not isinstance(scope, str):
        return frozenset()
    return frozenset(scope.split())


def _role_set(claims: dict[str, Any]) -> frozenset[str]:
    roles = claims.get("roles")
    if not isinstance(roles, list):
        return frozenset()
    return frozenset(r for r in roles if isinstance(r, str))


def validate_claims(
    claims: dict[str, Any],
    expected_issuer: str,
    expected_resource: str,
    required_scopes: frozenset[str],
    now: float,
    skew: float = DEFAULT_CLOCK_SKEW,
) -> ValidatedIdentity:
    """Semantic validation of signature-verified claims.

    Checks run in a fixed order so each single-field defect maps to one
    error class: issuer, audience, lifetime window, then scopes.
    """
    if claims.get("iss") != expected_issuer:
        raise WrongIssuer(
            f"token issuer {claims.get('iss')!r} != expected {expected_issuer!r}"
        )
    audience = _audience_set(claims)
    if expected_resource not in audience:
        raise WrongAudience(
            f"audience {sorted(audience)} does not include {expected_resource!r}"
        )
    exp = claims.get("exp")
    if not isinstance(exp, (int, float)) or isinstance(exp, bool):
        raise Expired("token carries no usable exp claim")
    iat = claims.get("iat")
    iat = int(iat) if isinstance(iat, (int, float)) and not isinstance(iat, bool) else 0
    if exp <= iat:
        raise Expired("token validity window is empty or inverted (exp <= iat)")
    if now > exp + skew:
        raise Expired(f"token expired at {int(exp)} (now {int(now)})")
    nbf = claims.get("nbf")
    if isinstance(nbf, (int, float)) and not isinstance(nbf, bool):
        not_before = int(nbf)
        if now < not_before - skew:
            raise NotYetValid(f"token not valid before {not_before} (now {int(now)})")
    scopes = _scope_set(claims)
    missing = frozenset(required_scopes) - scopes
    if missing:
        raise InsufficientScope(missing)
    subject = claims.get("sub")
    if not isinstance(subject, str) or not subject:
        raise MalformedToken("sub claim missing or empty")
    return ValidatedIdentity(
        subject=subject,
        scopes=scopes,
        roles=_role_set(claims),
        expires_at=int(exp),
        issuer=claims["iss"],
    )


# A fetcher resolves an issuer to its current JwkSet (normally two HTTP
# round trips: OIDC discovery, then the jwks_uri it names).
JwksFetcher = Callable[[str], JwkSet]


def fetch_jwks_via_discovery(issuer: str, timeout: float = 5.0) -> JwkSet:
    """Default fetcher: <issuer>/.well-known/openid-configuration -> jwks_uri."""
    discovery_url = issuer.rstrip("/") + "/.well-known/openid-configuration"
    reply = httpclient.get(discovery_url, timeout=timeout)
    if reply.status != 200:
        raise OSError(f"discovery endpoint returned {reply.status}")
    document = reply.json()
    if document.get("issuer") != issuer:
        # Mix-up defense: keys must come from the issuer we asked about.
        raise OSError(
            f"discovery issuer {document.get('issuer')!r} != requested {issuer!r}"
        )
    jwks_uri = document.get("jwks_uri")
    if not isinstance(jwks_uri, str):
        raise OSError("discovery document lacks jwks_uri")
    keys_reply = httpclient.get(jwks_uri, timeout=timeout)
    if keys_reply.status != 200:
        raise OSError(f"JWKS endpoint returned {keys_reply.status}")
    return JwkSet.from_document(keys_reply.json())


class JwksCache:
    """One issuer's key set, with ttl, hit/miss counts and single-flight.

    The set is never served once it is ttl old. Concurrent misses coalesce
    into one fetch while hits proceed without blocking each other, and a
    failed fetch answers every caller that waited on it; a caller that
    arrives afterwards fetches again. A forced refresh (``get(refresh=True)``,
    for a token whose kid the cached set lacks) is attempted at most once
    per MIN_REFRESH_INTERVAL_S, so forged kids cannot drive the identity
    provider; a failed one keeps the current set.
    """

    def __init__(
        self,
        issuer: str,
        ttl: float = DEFAULT_JWKS_TTL,
        fetcher: JwksFetcher = fetch_jwks_via_discovery,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.issuer = issuer
        self.ttl = ttl
        self._fetcher = fetcher
        self._clock = clock
        self._entry: tuple[JwkSet, float] | None = None
        self._last_forced: float | None = None
        # The last failed fetch's exception; each failed fetch raises a new
        # one, so a waiter can tell whether a fetch failed while it waited.
        self._failure: Exception | None = None
        self._lock = threading.Lock()
        self._fetch_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _fresh_entry(self) -> JwkSet | None:
        if self._entry is None:
            return None
        jwk_set, fetched_at = self._entry
        if self._clock() - fetched_at >= self.ttl:
            return None
        return jwk_set

    def _unreachable(self, exc: Exception) -> JwksUnreachable:
        return JwksUnreachable(f"could not fetch keys for issuer {self.issuer!r}: {exc}")

    def get(self, refresh: bool = False) -> JwkSet:
        """The issuer's key set; ``refresh`` asks to refetch a fresh set.

        Inside MIN_REFRESH_INTERVAL_S of the last forced refresh, failed
        or not, the current set is returned without a fetch.
        """
        with self._lock:
            jwk_set = self._fresh_entry()
            if jwk_set is not None and not refresh:
                self.hits += 1
                return jwk_set
            failure_seen = self._failure
        with self._fetch_lock:
            with self._lock:
                jwk_set = self._fresh_entry()
                forced = refresh and jwk_set is not None
                if forced:
                    now, last = self._clock(), self._last_forced
                    if last is None or now - last >= MIN_REFRESH_INTERVAL_S:
                        self._last_forced = now
                        jwk_set = None
                if jwk_set is not None:
                    # Another caller completed the fetch while we waited, or a
                    # forced refresh is not yet due.
                    self.hits += 1
                    return jwk_set
                if not forced and self._failure is not failure_seen:
                    # The fetch this caller waited on failed; share its answer.
                    self.misses += 1
                    raise self._unreachable(self._failure) from self._failure
            try:
                jwk_set = self._fetcher(self.issuer)
            except Exception as exc:
                with self._lock:
                    self.misses += 1
                    self._failure = exc
                if forced:
                    log.warning(
                        "Forced key refresh for issuer %s failed, keeping the cached keys: %s",
                        self.issuer,
                        exc,
                    )
                raise self._unreachable(exc) from exc
            with self._lock:
                self.misses += 1
                self._entry = (jwk_set, self._clock())
            return jwk_set

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


def mask_subject(subject: str) -> str:
    """First character kept, the rest replaced by asterisks."""
    if not subject:
        raise EmptySubject("cannot mask an empty subject")
    return subject[0] + "*" * (len(subject) - 1)


@dataclass(frozen=True)
class VerifierConfig:
    resource: str
    required_scopes: frozenset[str] = frozenset({"openid", "profile"})


def verify_bearer(
    token: str,
    config: VerifierConfig,
    cache: JwksCache,
    now: float | None = None,
) -> ValidatedIdentity:
    """Full bearer validation; the package's only caller of validate_claims.

    The token must name the cache's issuer, whose keys verify its
    signature. A kid the cached key set lacks asks the cache for a forced
    refresh, which picks up a key rotated in since the last fetch. The
    cache attempts at most one per MIN_REFRESH_INTERVAL_S; inside
    that interval the token fails with UnknownKeyId without a fetch, and
    if the refresh fails it fails with JwksUnreachable, the cached keys
    kept for every other token.
    """
    log.info("Verifying token...")
    jwt = parse_compact(token)
    keys = cache.get()
    try:
        claims = verify_signature(jwt, keys)
    except UnknownKeyId:
        keys = cache.get(refresh=True)
        claims = verify_signature(jwt, keys)
    identity = validate_claims(
        claims,
        expected_issuer=cache.issuer,
        expected_resource=config.resource,
        required_scopes=config.required_scopes,
        now=time.time() if now is None else now,
    )
    log.info("Authenticated user: %s", mask_subject(identity.subject))
    return identity
