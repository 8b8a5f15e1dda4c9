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
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from . import httpclient

log = logging.getLogger("mcpidg.tokens")

DEFAULT_JWKS_TTL = 300.0
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
    """Key fetch failed and no fresh cached entry exists."""


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
    """An RSA signing-key set addressed by kid."""

    def __init__(self, keys: list[dict[str, Any]]):
        kids = [k.get("kid") for k in keys]
        if len(kids) != len(set(kids)):
            raise ValueError("duplicate kid values in key set")
        self.keys = list(keys)

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "JwkSet":
        keys = doc.get("keys")
        if not isinstance(keys, list):
            raise ValueError("JWKS document must carry a 'keys' array")
        return cls(keys)

    def find(self, kid: str) -> dict[str, Any] | None:
        for key in self.keys:
            if key.get("kid") == kid:
                return key
        return None

    def __len__(self) -> int:
        return len(self.keys)


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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    except (KeyError, MalformedToken) as exc:
        raise SignatureInvalid(f"key {jwk.get('kid')!r} has unusable material") from exc
    return rsa.RSAPublicNumbers(e, n).public_key()


def verify_signature(jwt: CompactJwt, keys: JwkSet) -> dict[str, Any]:
    """RSASSA-PKCS1-v1_5/SHA-256 over the signing input; returns raw claims."""
    jwk = keys.find(jwt.kid)
    if jwk is None:
        raise UnknownKeyId(f"no key with kid {jwt.kid!r} in the key set")
    public_key = _public_key_from_jwk(jwk)
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
        raise Expired("token lifetime is empty or inverted (exp <= iat)")
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


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    hit_latencies: deque = field(default_factory=lambda: deque(maxlen=4096))
    miss_latencies: deque = field(default_factory=lambda: deque(maxlen=4096))

    def snapshot(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class JwksCache:
    """Per-issuer key cache with ttl, hit/miss accounting, and single-flight.

    Entries older than ttl are never served; concurrent misses for one
    issuer coalesce into a single backing fetch while hits proceed without
    blocking each other.
    """

    def __init__(self, ttl: float = DEFAULT_JWKS_TTL, clock: Callable[[], float] = time.monotonic):
        self.ttl = ttl
        self._clock = clock
        self._entries: dict[str, tuple[JwkSet, float]] = {}
        self._lock = threading.Lock()
        self._fetch_locks: dict[str, threading.Lock] = {}
        self.stats = CacheStats()

    def _fresh_entry(self, issuer: str) -> JwkSet | None:
        entry = self._entries.get(issuer)
        if entry is None:
            return None
        jwk_set, fetched_at = entry
        if self._clock() - fetched_at >= self.ttl:
            return None
        return jwk_set

    def _fetch_lock(self, issuer: str) -> threading.Lock:
        with self._lock:
            return self._fetch_locks.setdefault(issuer, threading.Lock())

    def _record(self, hit: bool, started: float) -> None:
        elapsed_us = (time.perf_counter() - started) * 1e6
        with self._lock:
            if hit:
                self.stats.hits += 1
                self.stats.hit_latencies.append(elapsed_us)
            else:
                self.stats.misses += 1
                self.stats.miss_latencies.append(elapsed_us)

    def get(self, issuer: str, fetcher: JwksFetcher) -> JwkSet:
        started = time.perf_counter()
        with self._lock:
            jwk_set = self._fresh_entry(issuer)
        if jwk_set is not None:
            self._record(hit=True, started=started)
            return jwk_set
        with self._fetch_lock(issuer):
            with self._lock:
                jwk_set = self._fresh_entry(issuer)
            if jwk_set is not None:
                # Another caller completed the fetch while we waited.
                self._record(hit=True, started=started)
                return jwk_set
            try:
                jwk_set = fetcher(issuer)
            except Exception as exc:
                self._record(hit=False, started=started)
                raise JwksUnreachable(
                    f"could not fetch keys for issuer {issuer!r}: {exc}"
                ) from exc
            if not isinstance(jwk_set, JwkSet):
                jwk_set = JwkSet.from_document(jwk_set)
            with self._lock:
                self._entries[issuer] = (jwk_set, self._clock())
            self._record(hit=False, started=started)
            return jwk_set

    def invalidate(self, issuer: str) -> None:
        with self._lock:
            self._entries.pop(issuer, None)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return self.stats.snapshot()


def mask_subject(subject: str) -> str:
    """First character kept, the rest replaced by asterisks."""
    if not subject:
        raise EmptySubject("cannot mask an empty subject")
    return subject[0] + "*" * (len(subject) - 1)


@dataclass(frozen=True)
class VerifierConfig:
    issuer: str
    resource: str
    required_scopes: frozenset[str] = frozenset({"openid", "profile"})
    skew: float = DEFAULT_CLOCK_SKEW


def verify_bearer(
    token: str,
    config: VerifierConfig,
    cache: JwksCache,
    now: float | None = None,
    fetcher: JwksFetcher = fetch_jwks_via_discovery,
) -> ValidatedIdentity:
    """Full bearer validation; the package's only caller of validate_claims.

    An UnknownKeyId triggers exactly one forced cache refresh (covers key
    rotation between fetches) before the failure propagates.
    """
    log.info("Verifying token...")
    jwt = parse_compact(token)
    keys = cache.get(config.issuer, fetcher)
    try:
        claims = verify_signature(jwt, keys)
    except UnknownKeyId:
        cache.invalidate(config.issuer)
        keys = cache.get(config.issuer, fetcher)
        claims = verify_signature(jwt, keys)
    identity = validate_claims(
        claims,
        expected_issuer=config.issuer,
        expected_resource=config.resource,
        required_scopes=config.required_scopes,
        now=time.time() if now is None else now,
        skew=config.skew,
    )
    log.info("Authenticated user: %s", mask_subject(identity.subject))
    return identity
