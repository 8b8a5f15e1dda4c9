import json
import logging
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import TEST_ISSUER, TEST_RESOURCE
from mcpidg import tokens
from mcpidg.idp import MockIdp
from mcpidg.policy import authorize
from mcpidg.tokens import (
    DEFAULT_CLOCK_SKEW,
    MAX_VERIFIED_TOKENS,
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

    @pytest.mark.parametrize("signature", ["-_9", "-_8=", "+_8", "-/8", "-_8!"])
    def test_segment_not_in_canonical_base64url_rejected(self, signature):
        head, body, _ = unsigned_token({"alg": "RS256", "kid": "k"}, {"sub": "alice"}).split(".")
        assert parse_compact(f"{head}.{body}.-_8").signature == b"\xfb\xff"
        with pytest.raises(MalformedToken):  # the first four decode to the same bytes
            parse_compact(f"{head}.{body}.{signature}")

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


class TestClaimsOfTheWrongType:
    """A signed token whose claim has the wrong JSON type gets nothing from it."""

    @staticmethod
    def token(signer, **overrides) -> str:
        claims = signer.standard_claims("developer-persona", frozenset({"openid", "profile"}))
        return signer.sign_claims(claims | overrides)

    def test_scope_as_an_array_grants_no_scope(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        with pytest.raises(InsufficientScope) as excinfo:
            verify_bearer(self.token(signer, scope=["openid", "profile"]), make_config(), cache)
        assert excinfo.value.missing == {"openid", "profile"}

    def test_audience_as_a_number_names_no_resource(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        with pytest.raises(WrongAudience):
            verify_bearer(self.token(signer, aud=42), make_config(), cache)

    def test_roles_as_a_string_grant_no_role(self, signer, policy, registry):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        identity = verify_bearer(self.token(signer, roles="developer"), make_config(), cache)
        assert identity.roles == frozenset()  # not the string's characters
        decision = authorize(identity, "docs_search", policy, registry)
        assert (decision.outcome, decision.reason) == ("deny", "no_matching_role")


# -- verified-token memo ----------------------------------------------------------


@pytest.fixture
def signature_checks(monkeypatch):
    """The kids of the tokens verify_bearer hands to verify_signature, in order."""
    kids = []
    real = tokens.verify_signature

    def counted(jwt, keys):
        kids.append(jwt.kid)
        return real(jwt, keys)

    monkeypatch.setattr(tokens, "verify_signature", counted)
    return kids


class TestVerifiedTokenMemo:
    def test_token_is_verified_again_after_each_new_key_set(self, signer, signature_checks):
        clock = [0.0]
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: clock[0])
        token = signer.issue_token_for("developer-persona")
        kid = parse_compact(token).kid

        def verify_twice():
            for _ in range(2):
                assert verify_bearer(token, make_config(), cache).subject == "developer-persona"

        verify_twice()
        assert signature_checks == [kid]
        clock[0] = 300.0  # ttl refetch
        verify_twice()
        assert signature_checks == [kid, kid]
        forged = unsigned_token({"alg": "RS256", "kid": "forged"}, claims_for())
        with pytest.raises(UnknownKeyId):
            verify_bearer(forged, make_config(), cache)  # forced refresh
        verify_twice()
        assert [k for k in signature_checks if k == kid] == [kid, kid, kid]
        assert fetcher.calls == 3

    def test_token_whose_key_was_rotated_out_is_rejected(self):
        core = MockIdp(issuer=TEST_ISSUER, audience=TEST_RESOURCE)
        clock = [0.0]
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=CountingFetcher(core),
                          clock=lambda: clock[0])
        token = core.issue_token_for("developer-persona")
        verify_bearer(token, make_config(), cache)
        core.rotate_keys(retain_old=False)
        clock[0] = 300.0
        with pytest.raises(UnknownKeyId):
            verify_bearer(token, make_config(), cache)
        assert cache.recall(token, make_config()) is None, "a new key set forgets every token"

    def test_failed_signature_is_never_remembered(self, signer, signature_checks):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        other = signer.issue_token_for("developer-persona")
        forged = token[: token.rindex(".")] + other[other.rindex("."):]
        for _ in range(2):
            with pytest.raises(SignatureInvalid):
                verify_bearer(forged, make_config(), cache)
        assert cache.recall(forged, make_config()) is None
        assert len(signature_checks) == 2

    def test_remembered_token_still_expires(self, signer, signature_checks):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        exp = parse_compact(token).payload["exp"]
        verify_bearer(token, make_config(), cache, now=exp)
        with pytest.raises(Expired):
            verify_bearer(token, make_config(), cache, now=exp + DEFAULT_CLOCK_SKEW + 1)
        assert len(signature_checks) == 1

    def test_claims_are_validated_once_per_config(self, signer, signature_checks, monkeypatch):
        validations = []
        real = tokens.validate_claims

        def counted(claims, *args, **kwargs):
            validations.append(kwargs["expected_resource"])
            return real(claims, *args, **kwargs)

        monkeypatch.setattr(tokens, "validate_claims", counted)
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        first = verify_bearer(token, make_config(), cache)
        assert verify_bearer(token, make_config(), cache) is first
        assert validations == [TEST_RESOURCE]
        other = make_config(resource="http://other.test/mcp")
        for _ in range(2):
            with pytest.raises(WrongAudience):
                verify_bearer(token, other, cache)
        assert verify_bearer(token, make_config(), cache) is first
        assert validations == [TEST_RESOURCE] + ["http://other.test/mcp"] * 2
        assert len(signature_checks) == 3, "only an accepted token is remembered"

    def test_failed_claims_are_validated_again_on_each_call(self, signer, signature_checks):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.sign_claims(claims_for(exp=int(time.time()) + 300, scope="openid"))
        for _ in range(2):
            with pytest.raises(InsufficientScope):
                verify_bearer(token, make_config(), cache)
        assert cache.recall(token, make_config()) is None
        assert len(signature_checks) == 2

    def test_remembered_token_is_not_yet_valid_before_its_nbf(self, signer, signature_checks):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        nbf = NOW + 60
        token = signer.sign_claims(claims_for(nbf=nbf))
        verify_bearer(token, make_config(), cache, now=nbf)
        verify_bearer(token, make_config(), cache, now=nbf - DEFAULT_CLOCK_SKEW)
        with pytest.raises(NotYetValid, match=f"not valid before {nbf} "):
            verify_bearer(token, make_config(), cache, now=nbf - DEFAULT_CLOCK_SKEW - 1)
        assert len(signature_checks) == 1

    def test_remembered_token_expires_with_the_message_of_validate_claims(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        claims = claims_for()
        token = signer.sign_claims(claims)
        verify_bearer(token, make_config(), cache, now=NOW)
        late = claims["exp"] + DEFAULT_CLOCK_SKEW + 1
        with pytest.raises(Expired) as on_memo:
            verify_bearer(token, make_config(), cache, now=late)
        with pytest.raises(Expired) as in_full:
            validate_claims(claims, TEST_ISSUER, TEST_RESOURCE, frozenset(), now=late)
        assert str(on_memo.value) == str(in_full.value)
        assert str(on_memo.value) == f"token expired at {claims['exp']} (now {int(late)})"

    def test_memo_keeps_the_newest_tokens_up_to_its_bound(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        minted = [signer.issue_token_for("developer-persona")
                  for _ in range(MAX_VERIFIED_TOKENS + 1)]
        for token in minted:
            verify_bearer(token, make_config(), cache)
        assert cache.recall(minted[0], make_config()) is None
        assert all(cache.recall(token, make_config()) is not None for token in minted[1:])

    def test_a_token_in_use_stays_remembered_among_others(self, signer, signature_checks):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        in_use = signer.issue_token_for("developer-persona")
        verify_bearer(in_use, make_config(), cache)
        for _ in range(MAX_VERIFIED_TOKENS):
            verify_bearer(signer.issue_token_for("developer-persona"), make_config(), cache)
            verify_bearer(in_use, make_config(), cache)
        assert len(signature_checks) == 1 + MAX_VERIFIED_TOKENS, (
            "the least recently used token is dropped, not the oldest"
        )

    def test_a_set_stored_during_the_signature_check_is_not_answered_by_the_memo(
        self, signer, signature_checks, monkeypatch, caplog
    ):
        clock = [0.0]
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=CountingFetcher(signer),
                          clock=lambda: clock[0])
        token = signer.issue_token_for("developer-persona")
        counted = tokens.verify_signature

        def replaced_midway(jwt, keys):
            if not signature_checks:
                clock[0] += 300.0  # ttl passed: this get() stores a new set
                cache.get()
            return counted(jwt, keys)

        monkeypatch.setattr(tokens, "verify_signature", replaced_midway)
        assert verify_bearer(token, make_config(), cache).subject == "developer-persona"
        assert cache.recall(token, make_config()) is None
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        assert len(signature_checks) == 2
        assert logged(caplog, token, make_config(), cache) == []

    def test_concurrent_verifications_of_one_token_agree(self, signer):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        start = threading.Barrier(4)
        identities = []

        def verify():
            start.wait(timeout=5)
            for _ in range(50):
                identities.append(verify_bearer(token, make_config(), cache))

        threads = [threading.Thread(target=verify) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(identities) == 200
        assert all(identity == identities[0] for identity in identities)


# -- what verify_bearer logs ------------------------------------------------------


VERIFYING = "Verifying token..."
AUTHENTICATED = "Authenticated user: d****************"


def logged(caplog, token, config, cache, raises=None, **kwargs) -> list[str]:
    """The messages of one verify_bearer call, which must raise ``raises`` if given."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mcpidg.tokens"):
        if raises is None:
            verify_bearer(token, config, cache, **kwargs)
        else:
            with pytest.raises(raises):
                verify_bearer(token, config, cache, **kwargs)
    return [r.getMessage() for r in caplog.records if r.name == "mcpidg.tokens"]


class TestVerificationLog:
    """The pair is logged when a token is verified, not when the memo recognises it."""

    def test_a_remembered_token_builds_no_record(self, signer, caplog):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        for _ in range(2):
            assert logged(caplog, token, make_config(), cache) == []

    def test_a_new_key_set_logs_the_pair_again(self, signer, caplog):
        clock = [0.0]
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=CountingFetcher(signer),
                          clock=lambda: clock[0])
        token = signer.issue_token_for("developer-persona")
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        clock[0] = 300.0  # ttl refetch
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        assert logged(caplog, token, make_config(), cache) == []

    def test_another_config_logs_verifying_and_only_a_pass_authenticates(self, signer, caplog):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        elsewhere = make_config(resource="http://other.test/mcp")
        for _ in range(2):
            assert logged(caplog, token, elsewhere, cache, raises=WrongAudience) == [VERIFYING]
        assert logged(caplog, token, make_config(), cache) == []
        fewer_scopes = make_config(required_scopes=frozenset({"openid"}))
        assert logged(caplog, token, fewer_scopes, cache) == [VERIFYING, AUTHENTICATED]
        assert logged(caplog, token, fewer_scopes, cache) == []
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]

    @pytest.mark.parametrize(
        "kind", ["forged", "expired", "malformed", "unknown_kid", "claims_failed"]
    )
    def test_a_rejected_token_logs_verifying_on_each_call_and_never_authenticated(
        self, signer, caplog, kind
    ):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        other = signer.issue_token_for("developer-persona")
        token, error = {
            "forged": (token[: token.rindex(".")] + other[other.rindex("."):], SignatureInvalid),
            "expired": (signer.issue_token_for("developer-persona", lifetime=-3600), Expired),
            "malformed": ("not-a-jwt", MalformedToken),
            "unknown_kid": (unsigned_token({"alg": "RS256", "kid": "forged"}, claims_for()),
                            UnknownKeyId),
            # Never remembered, as only accepted tokens are: each call verifies it whole again.
            "claims_failed": (signer.sign_claims(claims_for(exp=int(time.time()) + 300,
                                                            scope="openid")), InsufficientScope),
        }[kind]
        for _ in range(2):
            assert logged(caplog, token, make_config(), cache, raises=error) == [VERIFYING]

    def test_a_remembered_token_that_expires_is_rejected_by_the_recheck_alone(self, signer, caplog):
        cache = JwksCache(TEST_ISSUER, fetcher=CountingFetcher(signer))
        token = signer.issue_token_for("developer-persona")
        exp = parse_compact(token).payload["exp"]
        assert logged(caplog, token, make_config(), cache, now=exp) == [VERIFYING, AUTHENTICATED]
        late = exp + DEFAULT_CLOCK_SKEW + 1
        assert logged(caplog, token, make_config(), cache, raises=Expired, now=late) == []

    def test_a_remembered_token_under_a_stale_set_is_refused_as_a_new_one_is(self, signer, caplog):
        clock = [0.0]
        fetcher = CountingFetcher(signer)
        cache = JwksCache(TEST_ISSUER, ttl=300, fetcher=fetcher, clock=lambda: clock[0])
        token = signer.issue_token_for("developer-persona")
        never_seen = signer.issue_token_for("developer-persona")
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        clock[0], fetcher.down = 300.0, True  # ttl passed, the provider unreachable
        for each in (token, never_seen):
            assert logged(caplog, each, make_config(), cache, raises=JwksUnreachable) == [VERIFYING]
        fetcher.down = False
        assert logged(caplog, token, make_config(), cache) == [VERIFYING, AUTHENTICATED]
        assert logged(caplog, token, make_config(), cache) == []
