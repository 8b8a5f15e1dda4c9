import json
import logging
import threading
import time

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import TEST_ISSUER, TEST_RESOURCE
from mcpidg.idp import MockIdp
from mcpidg.tokens import (
    EmptySubject,
    Expired,
    InsufficientScope,
    JwkSet,
    JwksCache,
    JwksUnreachable,
    MalformedToken,
    NotYetValid,
    SignatureInvalid,
    UnknownKeyId,
    UnsupportedAlgorithm,
    VerifierConfig,
    WrongAudience,
    WrongIssuer,
    b64url_encode,
    mask_subject,
    parse_compact,
    validate_claims,
    verify_bearer,
    verify_signature,
)

NOW = 1_700_000_000


def make_config(**overrides) -> VerifierConfig:
    base = dict(
        resource=TEST_RESOURCE,
        required_scopes=frozenset({"openid", "profile"}),
    )
    base.update(overrides)
    return VerifierConfig(**base)


class CountingFetcher:
    """Counts fetches; while ``down`` is set, each one fails as an outage would."""

    def __init__(self, core: MockIdp):
        self.core = core
        self.calls = 0
        self.down = False

    def __call__(self, issuer: str) -> JwkSet:
        assert issuer == TEST_ISSUER
        self.calls += 1
        if self.down:
            raise OSError("down")
        return JwkSet.from_document(self.core.jwks_document())


def unsigned_token(header: dict, claims: dict, signature: bytes = b"") -> str:
    head = b64url_encode(json.dumps(header).encode())
    body = b64url_encode(json.dumps(claims).encode())
    return f"{head}.{body}.{b64url_encode(signature)}"


# -- parse_compact ------------------------------------------------------------


class TestParseCompact:
    def test_minted_token_parses_and_matches_independent_decoder(self, signer):
        token = signer.issue_token_for("developer-persona")
        jwt = parse_compact(token)
        assert jwt.header["alg"] == "RS256"
        assert jwt.kid == signer.active_kid()
        # Oracle: a locally written compact decoder sees the same content.
        header, claims, signature, signing_input = oracles.decode_compact(token)
        assert jwt.header == header
        assert jwt.payload == claims
        assert jwt.signature == signature
        assert jwt.signing_input == signing_input

    def test_two_segments_rejected(self):
        with pytest.raises(MalformedToken):
            parse_compact("abc.def")

    def test_empty_string_rejected(self):
        with pytest.raises(MalformedToken):
            parse_compact("")

    def test_alg_none_rejected_before_key_lookup(self):
        token = unsigned_token({"alg": "none", "kid": "k"}, {"sub": "alice"})
        with pytest.raises(UnsupportedAlgorithm):
            parse_compact(token)

    @pytest.mark.parametrize("alg", ["HS256", "HS512", "ES256", "rs256", None])
    def test_non_rs256_algorithms_rejected(self, alg):
        token = unsigned_token({"alg": alg, "kid": "k"}, {"sub": "alice"})
        with pytest.raises(UnsupportedAlgorithm):
            parse_compact(token)

    def test_invalid_base64_rejected(self):
        with pytest.raises(MalformedToken):
            parse_compact("!!!.###.$$$")

    def test_non_json_header_rejected(self):
        head = b64url_encode(b"not json")
        with pytest.raises(MalformedToken):
            parse_compact(f"{head}.{head}.{head}")

    def test_missing_kid_rejected(self):
        token = unsigned_token({"alg": "RS256"}, {"sub": "alice"})
        with pytest.raises(MalformedToken):
            parse_compact(token)


# -- verify_signature ----------------------------------------------------------


class TestVerifySignature:
    def test_minted_token_verifies_and_oracle_agrees(self, signer):
        token = signer.issue_token_for("developer-persona")
        jwt = parse_compact(token)
        keys = JwkSet.from_document(signer.jwks_document())
        claims = verify_signature(jwt, keys)
        assert claims["sub"] == "developer-persona"
        assert oracles.verify_token_against_jwks(token, signer.jwks_document())

    def test_kid_mismatch_is_unknown_key(self, signer, idp_core):
        token = signer.issue_token_for("developer-persona")
        other_keys = JwkSet.from_document(idp_core.jwks_document())
        with pytest.raises(UnknownKeyId):
            verify_signature(parse_compact(token), other_keys)

    def test_flipped_payload_bit_invalidates(self, signer):
        token = signer.issue_token_for("developer-persona")
        head, body, sig = token.split(".")
        raw = bytearray(oracles.b64url_to_bytes(body))
        raw[len(raw) // 2] ^= 0x01
        tampered = f"{head}.{b64url_encode(bytes(raw))}.{sig}"
        keys = JwkSet.from_document(signer.jwks_document())
        with pytest.raises(SignatureInvalid):
            verify_signature(parse_compact(tampered), keys)
        assert not oracles.verify_token_against_jwks(tampered, signer.jwks_document())

    def test_flipped_signature_bit_invalidates(self, signer):
        token = signer.issue_token_for("developer-persona")
        head, body, sig = token.split(".")
        raw = bytearray(oracles.b64url_to_bytes(sig))
        raw[0] ^= 0x80
        tampered = f"{head}.{body}.{b64url_encode(bytes(raw))}"
        keys = JwkSet.from_document(signer.jwks_document())
        with pytest.raises(SignatureInvalid):
            verify_signature(parse_compact(tampered), keys)
        assert not oracles.verify_token_against_jwks(tampered, signer.jwks_document())

    def test_duplicate_kids_rejected_at_construction(self):
        jwk = {"kid": "k1", "kty": "RSA", "n": "AQ", "e": "AQAB"}
        with pytest.raises(ValueError):
            JwkSet([jwk, dict(jwk)])

    def test_unusable_key_does_not_poison_the_set(self, signer):
        unusable = [
            {"kid": "ec-key", "kty": "EC", "crv": "P-256", "x": "AQ", "y": "AQ"},
            {"kid": "no-modulus", "kty": "RSA", "e": "AQAB"},
            {"kid": "tiny-modulus", "kty": "RSA", "n": "AQ", "e": "AQAB"},
        ]
        keys = JwkSet(signer.jwks_document()["keys"] + unusable)
        token = signer.issue_token_for("developer-persona")
        assert verify_signature(parse_compact(token), keys)["sub"] == "developer-persona"
        for jwk in unusable:
            forged = unsigned_token({"alg": "RS256", "kid": jwk["kid"]}, {}, b"\x00")
            with pytest.raises(SignatureInvalid):
                verify_signature(parse_compact(forged), keys)


# -- validate_claims -----------------------------------------------------------


def claims_for(**overrides):
    base = {
        "iss": TEST_ISSUER,
        "sub": "developer-persona",
        "aud": [TEST_RESOURCE],
        "iat": NOW - 10,
        "exp": NOW + 300,
        "scope": "openid profile mcp.docs.read",
        "roles": ["developer"],
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


class TestValidateClaims:
    def test_required_scope_gate_passes_with_superset(self):
        identity = validate_claims(
            claims_for(),
            TEST_ISSUER,
            TEST_RESOURCE,
            frozenset({"openid", "profile"}),
            now=NOW,
            skew=0,
        )
        assert identity.scopes == {"openid", "profile", "mcp.docs.read"}
        assert identity.roles == {"developer"}
        assert identity.subject == "developer-persona"

    def test_expired_boundary(self):
        with pytest.raises(Expired):
            validate_claims(
                claims_for(exp=NOW - 1),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
                skew=0,
            )

    def test_skew_tolerates_recent_expiry(self):
        identity = validate_claims(
            claims_for(exp=NOW - 1),
            TEST_ISSUER,
            TEST_RESOURCE,
            frozenset(),
            now=NOW,
            skew=30,
        )
        assert identity.expires_at == NOW - 1

    def test_missing_scope_names_the_difference(self):
        with pytest.raises(InsufficientScope) as excinfo:
            validate_claims(
                claims_for(scope="openid"),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset({"openid", "profile"}),
                now=NOW,
            )
        assert excinfo.value.missing == {"profile"}

    def test_wrong_issuer(self):
        with pytest.raises(WrongIssuer):
            validate_claims(
                claims_for(iss="http://evil.test"),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
            )

    def test_wrong_audience(self):
        with pytest.raises(WrongAudience):
            validate_claims(
                claims_for(aud=["http://other.test/mcp"]),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
            )

    def test_string_audience_accepted(self):
        identity = validate_claims(
            claims_for(aud=TEST_RESOURCE),
            TEST_ISSUER,
            TEST_RESOURCE,
            frozenset(),
            now=NOW,
        )
        assert identity.subject == "developer-persona"
        # A string naming another resource is still checked, not waved through.
        with pytest.raises(WrongAudience):
            validate_claims(
                claims_for(aud="http://other.test/mcp"),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
            )

    def test_not_yet_valid_respects_skew(self):
        with pytest.raises(NotYetValid):
            validate_claims(
                claims_for(nbf=NOW + 31),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
                skew=30,
            )
        validate_claims(  # inside skew: accepted
            claims_for(nbf=NOW + 30),
            TEST_ISSUER,
            TEST_RESOURCE,
            frozenset(),
            now=NOW,
            skew=30,
        )

    def test_inverted_lifetime_rejected(self):
        with pytest.raises(Expired):
            validate_claims(
                claims_for(iat=NOW + 100, exp=NOW + 50),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
            )

    def test_missing_exp_rejected(self):
        with pytest.raises(Expired):
            validate_claims(
                claims_for(exp=None),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
            )

    def test_missing_subject_rejected(self):
        with pytest.raises(MalformedToken):
            validate_claims(
                claims_for(sub=None),
                TEST_ISSUER,
                TEST_RESOURCE,
                frozenset(),
                now=NOW,
            )


# -- mask_subject --------------------------------------------------------------


class TestMaskSubject:
    def test_masks_all_but_first(self):
        assert mask_subject("alice") == "a****"

    def test_single_character(self):
        assert mask_subject("x") == "x"

    def test_length_preserved(self):
        assert mask_subject("administrator") == "a" + "*" * 12

    def test_empty_rejected(self):
        with pytest.raises(EmptySubject):
            mask_subject("")

    @given(st.text(min_size=1, max_size=64))
    def test_mask_properties(self, subject):
        masked = mask_subject(subject)
        assert len(masked) == len(subject)
        assert masked[0] == subject[0]
        assert set(masked[1:]) <= {"*"}


# -- JwksCache.get --------------------------------------------------------------


class TestJwksCache:
    def test_miss_then_hit_without_refetch(self, signer):
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher)
        cache.get()
        cache.get()
        assert fetcher.calls == 1
        assert cache.snapshot() == {"hits": 1, "misses": 1}

    def test_expired_entry_forces_refetch(self, signer):
        clock = [0.0]
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: clock[0])
        cache.get()
        clock[0] = 300.0  # exactly ttl old: stale, never used
        cache.get()
        assert fetcher.calls == 2
        assert cache.snapshot() == {"hits": 0, "misses": 2}

    def test_zero_ttl_always_misses(self, signer):
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=0, fetcher=fetcher)
        for _ in range(3):
            cache.get()
        assert fetcher.calls == 3

    def test_fetch_failure_with_empty_cache(self):
        def broken(issuer):
            raise OSError("boom 500")

        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=broken)
        with pytest.raises(JwksUnreachable):
            cache.get()

    def test_stale_entry_not_used_on_fetch_failure(self, signer):
        clock = [0.0]
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: clock[0])
        cache.get()
        clock[0] = 10_000.0
        fetcher.down = True
        with pytest.raises(JwksUnreachable):
            cache.get()

    def test_concurrent_misses_single_flight(self, signer):
        release = threading.Event()
        calls = [0]

        def slow_fetcher(issuer):
            calls[0] += 1
            release.wait(timeout=5)
            return JwkSet.from_document(signer.jwks_document())

        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=slow_fetcher)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get())) for _ in range(8)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert calls[0] == 1, "concurrent misses must coalesce into one fetch"
        assert len(results) == 8
        snapshot = cache.snapshot()
        assert snapshot["hits"] + snapshot["misses"] == 8
        assert snapshot["misses"] == 1

    def test_failed_fetch_answers_every_caller_that_waited(self):
        release = threading.Event()
        calls = [0]

        def slow_broken(issuer):
            calls[0] += 1
            release.wait(timeout=5)
            raise OSError("down")

        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=slow_broken)
        errors = []

        def get():
            try:
                cache.get()
            except JwksUnreachable as exc:
                errors.append(exc)

        threads = [threading.Thread(target=get) for _ in range(8)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        release.set()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert calls[0] == 1, "callers waiting on a failed fetch must share its failure"
        assert len(errors) == 8
        with pytest.raises(JwksUnreachable):
            cache.get()
        assert calls[0] == 2, "a caller arriving after the failure fetches again"

    def test_failed_forced_refresh_keeps_the_fresh_entry(self, signer):
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: 0.0)
        warm = cache.get()
        fetcher.down = True
        with pytest.raises(JwksUnreachable):
            cache.get(refresh=True)
        assert cache.get() is warm
        # A failed attempt also starts the interval: no retry inside it.
        assert cache.get(refresh=True) is warm
        assert fetcher.calls == 2  # the warming fetch and one failed refresh


# -- verify_bearer ---------------------------------------------------------------


class TestVerifyBearer:
    def test_developer_token_yields_identity(self, signer, caplog):
        token = signer.issue_token_for("developer-persona")
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        with caplog.at_level(logging.INFO, logger="mcpidg.tokens"):
            identity = verify_bearer(token, make_config(), cache)
        assert "developer" in identity.roles
        assert identity.subject == "developer-persona"
        messages = [r.getMessage() for r in caplog.records]
        assert "Verifying token..." in messages
        assert "Authenticated user: d****************" in messages

    def test_empty_token_malformed(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        with pytest.raises(MalformedToken):
            verify_bearer("", make_config(), cache)

    def test_key_rotation_triggers_one_forced_refresh(self):
        core = MockIdp(issuer=TEST_ISSUER, audience=TEST_RESOURCE)
        fetcher = CountingFetcher(core)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher)
        cache.get()  # warm with the old key set
        core.rotate_keys(retain_old=False)
        token = core.issue_token_for("developer-persona")
        identity = verify_bearer(token, make_config(), cache)
        assert identity.subject == "developer-persona"
        assert fetcher.calls == 2, "stale cache must force exactly one refresh"

    def test_dropped_key_fails_after_single_refresh(self):
        core = MockIdp(issuer=TEST_ISSUER, audience=TEST_RESOURCE)
        token = core.issue_token_for("developer-persona")
        core.rotate_keys(retain_old=False)
        fetcher = CountingFetcher(core)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher)
        with pytest.raises(UnknownKeyId):
            verify_bearer(token, make_config(), cache)
        assert fetcher.calls == 2

    def test_unknown_kids_refresh_at_most_once_per_interval(self, signer):
        clock = [0.0]
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: clock[0])
        cache.get()
        forged = unsigned_token({"alg": "RS256", "kid": "forged"}, claims_for())
        for now, calls in ((0.0, 2), (9.9, 2), (10.0, 3)):
            clock[0] = now
            with pytest.raises(UnknownKeyId):
                verify_bearer(forged, make_config(), cache)
            assert fetcher.calls == calls, f"at t={now}"

    def test_rotated_key_verifies_once_the_interval_has_passed(self):
        core = MockIdp(issuer=TEST_ISSUER, audience=TEST_RESOURCE)
        clock = [0.0]
        fetcher = CountingFetcher(core)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: clock[0])
        cache.get()
        forged = unsigned_token({"alg": "RS256", "kid": "forged"}, claims_for())
        with pytest.raises(UnknownKeyId):
            verify_bearer(forged, make_config(), cache)
        core.rotate_keys(retain_old=False)
        token = core.issue_token_for("developer-persona")
        clock[0] = 5.0
        with pytest.raises(UnknownKeyId):
            verify_bearer(token, make_config(), cache)
        clock[0] = 10.0
        identity = verify_bearer(token, make_config(), cache)
        assert identity.subject == "developer-persona"
        assert fetcher.calls == 3

    def test_concurrent_unknown_kids_share_one_refresh(self, signer):
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: 0.0)
        cache.get()
        start = threading.Barrier(8)
        errors = []

        def verify(i):
            forged = unsigned_token({"alg": "RS256", "kid": f"forged-{i}"}, claims_for())
            start.wait(timeout=5)
            try:
                verify_bearer(forged, make_config(), cache)
            except UnknownKeyId as exc:
                errors.append(exc)

        threads = [threading.Thread(target=verify, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert len(errors) == 8
        assert fetcher.calls == 2, "8 unknown kids must share one forced refresh"

    def test_retained_key_still_verifies(self):
        core = MockIdp(issuer=TEST_ISSUER, audience=TEST_RESOURCE)
        token = core.issue_token_for("developer-persona")
        core.rotate_keys(retain_old=True)
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(core))
        identity = verify_bearer(token, make_config(), cache)
        assert identity.subject == "developer-persona"

    def test_deterministic_given_same_inputs(self, signer):
        token = signer.issue_token_for("operator-persona")
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        first = verify_bearer(token, make_config(), cache, now=NOW)
        second = verify_bearer(token, make_config(), cache, now=NOW)
        assert first == second

    def test_single_field_mutations_map_to_designated_errors(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        config = make_config()
        cases = [
            (signer.sign_claims(signer.standard_claims("developer-persona",
                frozenset({"openid", "profile"})) | {"iss": "http://evil.test"}),
             WrongIssuer),
            (signer.sign_claims(signer.standard_claims("developer-persona",
                frozenset({"openid", "profile"})) | {"aud": ["http://elsewhere"]}),
             WrongAudience),
            (signer.sign_claims(signer.standard_claims("developer-persona",
                frozenset({"openid", "profile"}), lifetime=-3600)),
             Expired),
            (signer.sign_claims(signer.standard_claims("developer-persona",
                frozenset({"openid", "profile"})) | {"nbf": int(time.time()) + 9000}),
             NotYetValid),
            (signer.sign_claims(signer.standard_claims("developer-persona",
                frozenset({"openid"}))),
             InsufficientScope),
        ]
        for token, expected_error in cases:
            with pytest.raises(expected_error):
                verify_bearer(token, config, cache)
