import secrets
import threading
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest

import oracles
from conftest import TEST_ISSUER, TEST_RESOURCE
from mcpidg import httpclient
from mcpidg.idp import (
    ClientRegistration,
    IdpError,
    InvalidGrant,
    MissingPkceChallenge,
    MockIdp,
    PkceVerificationFailed,
    RedirectUriNotWhitelisted,
    UnknownClient,
    UnknownUser,
    UnsupportedChallengeMethod,
    default_clients,
    s256_challenge,
)
from mcpidg.harness import generate_pkce

CLIENT_ID = "ide-extension"
REDIRECT = "http://localhost:33418/callback"


def authorize_params(pkce, persona="developer-persona", **overrides):
    params = {
        "response_type": "code",
        "client_id": CLIENT_ID,
        "redirect_uri": REDIRECT,
        "scope": "openid profile mcp.docs.read mcp.code.search",
        "state": "xyz",
        "code_challenge": pkce.challenge,
        "code_challenge_method": "S256",
        "username": persona,
    }
    params.update(overrides)
    return params


def code_from(location: str) -> str:
    return parse_qs(urlsplit(location).query)["code"][0]


def token_params(code, pkce, **overrides):
    params = {
        "grant_type": "authorization_code",
        "code": code,
        "code_verifier": pkce.verifier,
        "client_id": CLIENT_ID,
        "redirect_uri": REDIRECT,
    }
    params.update(overrides)
    return params


def _post_token(stack, form: str):
    return httpclient.post(
        f"{stack.issuer}/token", form.encode(),
        {"Content-Type": "application/x-www-form-urlencoded"},
    )


class TestAuthorize:
    def test_happy_path_redirects_with_code_and_state(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        assert location.startswith(REDIRECT + "?")
        query = parse_qs(urlsplit(location).query)
        assert query["state"] == ["xyz"]
        assert len(query["code"][0]) >= 22  # >= 128 bits of urlsafe entropy

    def test_unknown_client(self, idp_core):
        with pytest.raises(UnknownClient):
            idp_core.handle_authorize(
                authorize_params(generate_pkce(), client_id="rogue")
            )

    def test_unwhitelisted_redirect_uri_names_the_fix(self, idp_core):
        with pytest.raises(RedirectUriNotWhitelisted) as excinfo:
            idp_core.handle_authorize(
                authorize_params(generate_pkce(), redirect_uri="http://evil/cb")
            )
        assert "whitelisted" in str(excinfo.value)
        assert "redirect" in str(excinfo.value)

    def test_missing_pkce_challenge(self, idp_core):
        with pytest.raises(MissingPkceChallenge):
            idp_core.handle_authorize(
                authorize_params(generate_pkce(), code_challenge="")
            )

    def test_plain_challenge_method_rejected(self, idp_core):
        with pytest.raises(UnsupportedChallengeMethod):
            idp_core.handle_authorize(
                authorize_params(generate_pkce(), code_challenge_method="plain")
            )

    def test_unregistered_user_is_access_denied(self, idp_core):
        with pytest.raises(UnknownUser) as excinfo:
            idp_core.handle_authorize(authorize_params(generate_pkce(), persona="intruder"))
        assert excinfo.value.oauth_error == "access_denied"
        assert idp_core._codes == {}

    @pytest.mark.parametrize("response_type", [None, "token"], ids=["absent", "token"])
    def test_response_type_other_than_code_is_invalid_request(self, idp_core, response_type):
        params = authorize_params(generate_pkce(), response_type=response_type)
        if response_type is None:
            del params["response_type"]  # RFC 6749 §4.1.1: REQUIRED
        with pytest.raises(IdpError) as excinfo:
            idp_core.handle_authorize(params)
        assert excinfo.value.oauth_error == "invalid_request"

    def test_scopes_intersected_with_grantable(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(
            authorize_params(pkce, persona="contractor-persona",
                             scope="openid mcp.docs.read mcp.ops.read")
        )
        response = idp_core.handle_token(token_params(code_from(location), pkce))
        _, claims, _, _ = oracles.decode_compact(response["access_token"])
        assert claims["scope"] == "mcp.docs.read openid"  # ops scope silently dropped


class TestToken:
    def test_matching_verifier_mints_persona_claims(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        response = idp_core.handle_token(token_params(code_from(location), pkce))
        assert response["token_type"] == "Bearer"
        assert response["expires_in"] == 300
        header, claims, _, _ = oracles.decode_compact(response["access_token"])
        assert header["alg"] == "RS256"
        assert claims["iss"] == TEST_ISSUER
        assert claims["sub"] == "developer-persona"
        assert claims["aud"] == [TEST_RESOURCE]
        assert claims["roles"] == ["developer"]
        assert claims["exp"] - claims["iat"] == 300
        assert set(claims["scope"].split()) == {
            "openid", "profile", "mcp.docs.read", "mcp.code.search",
        }

    def test_minted_token_verifies_under_served_jwks(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        response = idp_core.handle_token(token_params(code_from(location), pkce))
        assert oracles.verify_token_against_jwks(
            response["access_token"], idp_core.jwks_document()
        )

    def test_wrong_verifier_one_char_off(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        bad = pkce.verifier[:-1] + ("A" if pkce.verifier[-1] != "A" else "B")
        with pytest.raises(PkceVerificationFailed):
            idp_core.handle_token(
                token_params(code_from(location), pkce, code_verifier=bad)
            )

    def test_replayed_code_rejected(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        params = token_params(code_from(location), pkce)
        idp_core.handle_token(params)
        with pytest.raises(InvalidGrant):
            idp_core.handle_token(params)

    def test_unknown_code_rejected(self, idp_core):
        with pytest.raises(InvalidGrant):
            idp_core.handle_token(token_params("never-issued", generate_pkce()))

    def test_expired_code_rejected(self):
        clock = [1000.0]
        core = MockIdp(
            issuer=TEST_ISSUER, audience=TEST_RESOURCE, clock=lambda: clock[0]
        )
        pkce = generate_pkce()
        location = core.handle_authorize(authorize_params(pkce))
        clock[0] += 61.0  # past the 60 s code lifetime
        with pytest.raises(InvalidGrant):
            core.handle_token(token_params(code_from(location), pkce))

    def test_redirect_mismatch_rejected(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        with pytest.raises(InvalidGrant):
            idp_core.handle_token(
                token_params(
                    code_from(location), pkce,
                    redirect_uri="http://127.0.0.1:33418/callback",
                )
            )

    def test_no_refresh_token_ever(self, idp_core):
        for persona in ("developer-persona", "contractor-persona", "operator-persona"):
            pkce = generate_pkce()
            location = idp_core.handle_authorize(
                authorize_params(pkce, persona=persona)
            )
            response = idp_core.handle_token(token_params(code_from(location), pkce))
            assert "refresh_token" not in response

    def test_failed_verifier_does_not_consume_the_code(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        code = code_from(location)
        with pytest.raises(PkceVerificationFailed):
            idp_core.handle_token(token_params(code, pkce, code_verifier="wrong" * 9))
        response = idp_core.handle_token(token_params(code, pkce))
        assert "access_token" in response

    def test_code_redeemed_by_another_client_is_invalid_grant_and_kept(self):
        other = ClientRegistration("other-ide", frozenset({REDIRECT}))
        core = MockIdp(
            issuer=TEST_ISSUER, audience=TEST_RESOURCE, clients=default_clients() + (other,)
        )
        pkce = generate_pkce()
        code = code_from(core.handle_authorize(authorize_params(pkce)))
        with pytest.raises(InvalidGrant):
            core.handle_token(token_params(code, pkce, client_id="other-ide"))
        response = core.handle_token(token_params(code, pkce))
        assert "access_token" in response


class TestCodePurge:
    def test_no_code_record_outlives_its_redemption(self, idp_core):
        for _ in range(25):
            pkce = generate_pkce()
            location = idp_core.handle_authorize(authorize_params(pkce))
            idp_core.handle_token(token_params(code_from(location), pkce))
        assert idp_core._codes == {}

    def test_expired_codes_dropped_when_a_new_code_is_granted(self):
        clock = [1000.0]
        core = MockIdp(
            issuer=TEST_ISSUER, audience=TEST_RESOURCE, clock=lambda: clock[0]
        )
        for _ in range(5):
            core.handle_authorize(authorize_params(generate_pkce()))
        clock[0] += 61.0  # past the 60 s code lifetime
        pkce = generate_pkce()
        fresh = code_from(core.handle_authorize(authorize_params(pkce)))
        assert list(core._codes) == [fresh]
        core.handle_token(token_params(fresh, pkce))


class TestConcurrentRedemption:
    def test_exactly_one_of_n_racing_redemptions_succeeds(self, idp_core):
        pkce = generate_pkce()
        location = idp_core.handle_authorize(authorize_params(pkce))
        params = token_params(code_from(location), pkce)
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def redeem():
            barrier.wait()
            try:
                idp_core.handle_token(dict(params))
                result = "success"
            except InvalidGrant:
                result = "invalid_grant"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=redeem) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert outcomes.count("success") == 1
        assert outcomes.count("invalid_grant") == 7


class TestKeys:
    def test_fresh_provider_serves_one_key(self, idp_core):
        assert len(idp_core.jwks_document()["keys"]) == 1

    def test_rotation_with_retention_keeps_old_key(self, idp_core):
        old_kid = idp_core.active_kid()
        new_kid = idp_core.rotate_keys(retain_old=True)
        kids = [k["kid"] for k in idp_core.jwks_document()["keys"]]
        assert sorted(kids) == sorted([old_kid, new_kid])
        assert old_kid != new_kid
        assert idp_core.active_kid() == new_kid  # exactly one active key

    def test_rotation_without_retention_drops_old_key(self, idp_core):
        old_kid = idp_core.active_kid()
        idp_core.rotate_keys(retain_old=False)
        kids = [k["kid"] for k in idp_core.jwks_document()["keys"]]
        assert old_kid not in kids and len(kids) == 1

    def test_kids_never_repeat(self, idp_core):
        kids = {idp_core.active_kid()}
        for _ in range(3):
            kids.add(idp_core.rotate_keys(retain_old=True))
        assert len(kids) == 4

    def test_jwk_material_is_unpadded_and_usable(self, idp_core):
        # jwk_public_numbers asserts the unpadded form and the oracle
        # verifies a signature with the parsed numbers.
        token = idp_core.issue_token_for("operator-persona")
        assert oracles.verify_token_against_jwks(token, idp_core.jwks_document())
        for jwk in idp_core.jwks_document()["keys"]:
            n, e = oracles.jwk_public_numbers(jwk)
            assert e == 65537
            assert n.bit_length() == 2048
            assert jwk["kty"] == "RSA" and jwk["alg"] == "RS256" and jwk["use"] == "sig"


class TestRoundTripProperty:
    def test_random_personas_and_scopes_round_trip(self, idp_core):
        rng = secrets.SystemRandom()
        personas = list(idp_core.users)
        for _ in range(20):
            persona = rng.choice(personas)
            grantable = sorted(idp_core.users[persona].grantable_scopes)
            requested = frozenset(rng.sample(grantable, rng.randint(0, len(grantable))))
            pkce = generate_pkce()
            location = idp_core.handle_authorize(
                authorize_params(pkce, persona=persona, scope=" ".join(requested))
            )
            response = idp_core.handle_token(token_params(code_from(location), pkce))
            token = response["access_token"]
            assert oracles.verify_token_against_jwks(token, idp_core.jwks_document())
            _, claims, _, _ = oracles.decode_compact(token)
            assert frozenset(claims["scope"].split()) == requested
            assert "refresh_token" not in response


class TestHttpSurface:
    """The wire-level endpoints under the issuer base path."""

    def test_discovery_served_at_well_known_location(self, stack):
        reply = httpclient.get(
            f"{stack.issuer}/.well-known/openid-configuration"
        )
        assert reply.status == 200
        doc = reply.json()
        assert doc["issuer"] == stack.issuer
        assert doc["response_types_supported"] == ["code"]
        assert doc["code_challenge_methods_supported"] == ["S256"]
        for field in ("authorization_endpoint", "token_endpoint", "jwks_uri"):
            assert doc[field].startswith(stack.issuer)

    def test_authorize_and_token_over_http(self, stack):
        pkce = generate_pkce()
        discovery = httpclient.get(
            f"{stack.issuer}/.well-known/openid-configuration"
        ).json()
        query = urlencode(authorize_params(pkce))
        reply = httpclient.get(f"{discovery['authorization_endpoint']}?{query}")
        assert reply.status == 302
        code = code_from(reply.header("location"))
        token_reply = httpclient.post(
            discovery["token_endpoint"],
            urlencode(token_params(code, pkce)).encode(),
            {"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert token_reply.status == 200
        body = token_reply.json()
        assert body["token_type"] == "Bearer"
        assert "refresh_token" not in body

    def test_http_error_rendering(self, stack):
        pkce = generate_pkce()
        query = urlencode(authorize_params(pkce, redirect_uri="http://evil/cb"))
        reply = httpclient.get(f"{stack.issuer}/authorize?{query}")
        assert reply.status == 400
        body = reply.json()
        assert body["error"] == "invalid_request"
        assert "whitelisted" in body["error_description"]

    def test_wrong_verifier_over_http_is_invalid_grant(self, stack):
        pkce = generate_pkce()
        query = urlencode(authorize_params(pkce))
        reply = httpclient.get(f"{stack.issuer}/authorize?{query}")
        code = code_from(reply.header("location"))
        token_reply = httpclient.post(
            f"{stack.issuer}/token",
            urlencode(token_params(code, pkce, code_verifier="A" * 43)).encode(),
            {"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert token_reply.status == 400
        assert token_reply.json()["error"] == "invalid_grant"

    def test_token_body_not_utf8_is_invalid_request(self, stack):
        reply = httpclient.post(
            f"{stack.issuer}/token",
            b"grant_type=authorization_code&code=\xff\xfe",
            {"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert reply.status == 400
        assert reply.json()["error"] == "invalid_request"

    def test_non_ascii_verifier_over_http_is_invalid_grant(self, stack):
        pkce = generate_pkce()
        query = urlencode(authorize_params(pkce))
        reply = httpclient.get(f"{stack.issuer}/authorize?{query}")
        code = code_from(reply.header("location"))
        token_reply = httpclient.post(
            f"{stack.issuer}/token",
            urlencode(token_params(code, pkce, code_verifier="\u00e9" * 43)).encode(),
            {"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert token_reply.status == 400
        assert token_reply.json()["error"] == "invalid_grant"

    def test_token_request_past_the_field_cap_is_invalid_request(self, stack):
        pkce = generate_pkce()
        query = urlencode(authorize_params(pkce))
        code = code_from(httpclient.get(f"{stack.issuer}/authorize?{query}").header("location"))
        padded = dict(token_params(code, pkce), **{f"pad{i}": "x" for i in range(40)})
        token_reply = httpclient.post(
            f"{stack.issuer}/token",
            urlencode(padded).encode(),
            {"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert token_reply.status == 400
        assert token_reply.json()["error"] == "invalid_request"
        assert "access_token" not in token_reply.json()

    def test_authorize_request_without_response_type_is_invalid_request(self, stack):
        params = authorize_params(generate_pkce())
        del params["response_type"]
        reply = httpclient.get(f"{stack.issuer}/authorize?{urlencode(params)}")
        assert reply.status == 400
        assert reply.json()["error"] == "invalid_request"
        assert reply.header("location") is None

    def test_authorize_request_past_the_field_cap_is_invalid_request(self, stack):
        params = dict(authorize_params(generate_pkce()), **{f"pad{i}": "x" for i in range(40)})
        reply = httpclient.get(f"{stack.issuer}/authorize?{urlencode(params)}")
        assert reply.status == 400
        assert reply.json()["error"] == "invalid_request"

    @pytest.mark.parametrize("repeat", ["username=operator-persona", "state=abc"])
    def test_repeated_authorize_parameter_is_invalid_request(self, stack, repeat):
        query = f"{urlencode(authorize_params(generate_pkce()))}&{repeat}"
        reply = httpclient.get(f"{stack.issuer}/authorize?{query}")
        assert reply.status == 400  # RFC 6749 §3.1: no parameter more than once
        assert reply.json()["error"] == "invalid_request"
        assert "repeated" in reply.json()["error_description"]

    def test_repeated_token_parameter_is_invalid_request_and_keeps_the_code(self, stack):
        pkce = generate_pkce()
        query = urlencode(authorize_params(pkce))
        code = code_from(httpclient.get(f"{stack.issuer}/authorize?{query}").header("location"))
        form = urlencode(token_params(code, pkce))
        reply = _post_token(stack, f"{form}&code_verifier={'A' * 43}")
        assert reply.status == 400
        assert reply.json()["error"] == "invalid_request"
        assert _post_token(stack, form).status == 200

    @pytest.mark.parametrize("grant_type, error", [
        ("password", "unsupported_grant_type"),
        ("refresh_token", "unsupported_grant_type"),
        ("", "invalid_request"),
        (None, "invalid_request"),
    ], ids=["password", "refresh-token", "blank", "absent"])
    def test_grant_type_errors_per_rfc_6749(self, stack, grant_type, error):
        form = {"client_id": CLIENT_ID, "code": "c"}
        if grant_type is not None:
            form["grant_type"] = grant_type
        reply = _post_token(stack, urlencode(form))
        assert reply.status == 400  # RFC 6749 §5.2
        assert reply.json()["error"] == error

    def test_default_config_derives_reference_issuer(self):
        from mcpidg.idp import IdpConfig, serve_idp

        handle = serve_idp(IdpConfig())  # reference bind localhost:8081
        try:
            assert handle.issuer == "http://localhost:8081/realms/master"
            reply = httpclient.get(
                "http://localhost:8081/realms/master/.well-known/openid-configuration"
            )
            assert reply.status == 200
            assert reply.json()["issuer"] == handle.issuer
        finally:
            handle.stop()

    def test_request_counters_track_endpoints(self, stack):
        before = stack.idp.counters().get("discovery", 0)
        httpclient.get(f"{stack.issuer}/.well-known/openid-configuration")
        httpclient.get(f"{stack.issuer}/jwks")
        counters = stack.idp.counters()
        assert counters["discovery"] == before + 1
        assert counters["jwks"] >= 1


class TestFixtureLoading:
    def test_document_overrides_users_and_clients(self):
        from mcpidg.idp import load_fixtures

        users, clients = load_fixtures({
            "users": [{"username": "auditor", "roles": ["auditor"],
                       "grantable_scopes": ["openid", "mcp.docs.read"]}],
            "clients": [{"client_id": "ci-bot",
                         "redirect_uris": ["http://localhost:9/cb"]}],
        })
        assert users[0].username == "auditor"
        assert users[0].roles == {"auditor"}
        assert clients[0].client_id == "ci-bot"

    def test_omitted_sections_fall_back_to_defaults(self):
        from mcpidg.idp import default_clients, default_users, load_fixtures

        users, clients = load_fixtures({})
        assert users == default_users()
        assert clients == default_clients()

    @pytest.mark.parametrize("document", [
        [],
        {"users": {"username": "auditor"}},
        {"users": [1]},
        {"users": [{"roles": ["auditor"]}]},
        {"users": [{"username": 7}]},
        {"users": [{"username": "auditor", "roles": "developer"}]},
        {"users": [{"username": "auditor", "grantable_scopes": ["openid", 1]}]},
        {"clients": [{"redirect_uris": ["http://localhost:9/cb"]}]},
        {"clients": [{"client_id": "ci-bot", "redirect_uris": "http://localhost:9/cb"}]},
    ])
    def test_malformed_document_is_value_error(self, document):
        from mcpidg.idp import load_fixtures

        with pytest.raises(ValueError):
            load_fixtures(document)

    def test_fixture_users_drive_the_flow(self, tmp_path):
        import json as json_mod

        from mcpidg.idp import load_fixtures
        from mcpidg.stack import start_stack

        document = {
            "users": [{"username": "auditor", "roles": ["auditor"],
                       "grantable_scopes": ["openid", "profile"]}],
        }
        users, clients = load_fixtures(document)
        local = start_stack(
            audit_path=str(tmp_path / "audit.jsonl"), users=users, clients=clients
        )
        try:
            token = local.idp.core.issue_token_for("auditor")
            _, claims, _, _ = oracles.decode_compact(token)
            assert claims["sub"] == "auditor"
            assert claims["roles"] == ["auditor"]
        finally:
            local.stop()


def test_s256_challenge_matches_direct_hash_oracle():
    import base64
    import hashlib

    verifier = "dBjftJeZ4CVP-mB92K27uhbUJU1p1r_wW1gFWFOEjXk"
    expected = (
        base64.urlsafe_b64encode(hashlib.sha256(verifier.encode()).digest())
        .rstrip(b"=")
        .decode()
    )
    assert s256_challenge(verifier) == expected
