from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from mcpidg.policy import (
    Decision,
    PolicyFormatError,
    PolicyTable,
    UnknownToolInPolicy,
    authorize,
    load_policy,
    visible_tools,
)
from mcpidg.tokens import ValidatedIdentity
from mcpidg.tools import default_policy, default_registry

ROLES = ("developer", "contractor", "operator")
TOOL_NAMES = ("build_status", "code_search", "docs_search", "ops_search")
SCOPE_UNIVERSE = (
    "openid",
    "profile",
    "mcp.docs.read",
    "mcp.code.search",
    "mcp.ops.read",
)

# Independent re-derivation of the shipped role/scope/tool mapping, used
# as a brute-force oracle. Kept deliberately separate from the policy
# document and the engine.
ORACLE_ROLE_GRANTS = {
    "developer": {"docs_search", "code_search", "build_status"},
    "contractor": {"docs_search"},
    "operator": {"ops_status"},
}
ORACLE_TOOL_SCOPES = {
    "docs_search": {"mcp.docs.read"},
    "code_search": {"mcp.code.search"},
    "build_status": {"mcp.code.search"},
    "ops_status": {"mcp.ops.read"},
}


def oracle_allows(roles: frozenset, scopes: frozenset, tool: str) -> bool:
    role_grant = any(tool in ORACLE_ROLE_GRANTS.get(role, set()) for role in roles)
    return role_grant and ORACLE_TOOL_SCOPES[tool] <= scopes


def identity(roles=(), scopes=()) -> ValidatedIdentity:
    return ValidatedIdentity(
        subject="test-subject",
        scopes=frozenset(scopes),
        roles=frozenset(roles),
        expires_at=0,
        issuer="http://idp.test/realms/master",
    )


def powerset(items):
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


@pytest.fixture
def table(registry):
    return default_policy(registry)


class TestLoadPolicy:
    def test_default_document_reproduces_role_mapping(self, table):
        by_role = {rule.role: rule for rule in table.rules}
        assert set(by_role) == {"developer", "contractor", "operator"}
        dev = by_role["developer"]
        assert dev.granted_scopes == {"mcp.docs.read", "mcp.code.search"}
        assert dev.allowed_tools == {"docs_search", "code_search", "build_status"}
        assert by_role["contractor"].granted_scopes == {"mcp.docs.read"}
        assert by_role["contractor"].allowed_tools == {"docs_search"}
        assert by_role["operator"].granted_scopes == {"mcp.ops.read"}
        assert by_role["operator"].allowed_tools == {"ops_status"}

    def test_unknown_tool_is_an_error(self, registry):
        doc = {"rules": [{"role": "developer", "granted_scopes": [],
                          "allowed_tools": ["nonexistent"]}]}
        with pytest.raises(UnknownToolInPolicy):
            load_policy(doc, registry)

    def test_empty_rules_is_a_valid_table_that_denies_everything(self, registry):
        table = load_policy({"rules": []}, registry)
        dev = identity(roles={"developer"}, scopes=SCOPE_UNIVERSE)
        for tool in registry.names():
            assert not authorize(dev, tool, table, registry).allowed

    def test_duplicate_roles_merge_by_union(self, registry):
        doc = {
            "rules": [
                {"role": "developer", "granted_scopes": ["mcp.docs.read"],
                 "allowed_tools": ["docs_search"]},
                {"role": "developer", "granted_scopes": ["mcp.code.search"],
                 "allowed_tools": ["code_search"]},
            ]
        }
        table = load_policy(doc, registry)
        assert len(table.rules) == 1
        rule = table.rules[0]
        assert rule.granted_scopes == {"mcp.docs.read", "mcp.code.search"}
        assert rule.allowed_tools == {"docs_search", "code_search"}

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"rules": "nope"},
            {"rules": [42]},
            {"rules": [{"role": ""}]},
            {"rules": [{"role": "r", "granted_scopes": "x"}]},
            {"rules": [{"role": "r", "allowed_tools": [3]}]},
        ],
    )
    def test_malformed_documents_rejected(self, registry, doc):
        with pytest.raises(PolicyFormatError):
            load_policy(doc, registry)


class TestAuthorize:
    def test_developer_code_search_allowed(self, registry, table):
        dev = identity(
            roles={"developer"},
            scopes={"openid", "profile", "mcp.docs.read", "mcp.code.search"},
        )
        assert authorize(dev, "code_search", table, registry) == Decision(
            outcome="allow", reason="ok"
        )

    def test_contractor_code_search_denied_by_role(self, registry, table):
        contractor = identity(
            roles={"contractor"}, scopes={"openid", "profile", "mcp.docs.read"}
        )
        decision = authorize(contractor, "code_search", table, registry)
        assert decision.outcome == "deny"
        assert decision.reason == "no_matching_role"

    def test_role_without_scope_denied_with_missing_set(self, registry, table):
        dev = identity(roles={"developer"}, scopes={"openid", "profile"})
        decision = authorize(dev, "docs_search", table, registry)
        assert decision.outcome == "deny"
        assert decision.reason == "missing_scope"
        assert decision.missing_scopes == {"mcp.docs.read"}

    def test_unknown_tool_reason_takes_precedence(self, registry, table):
        nobody = identity()
        decision = authorize(nobody, "no_such_tool", table, registry)
        assert decision.reason == "unknown_tool"

    def test_default_deny_for_empty_identity(self, registry, table):
        nobody = identity()
        for tool in registry.names():
            decision = authorize(nobody, tool, table, registry)
            assert decision.outcome == "deny"
            assert decision.reason == "no_matching_role"


class TestVisibleTools:
    def test_operator_sees_only_ops_status(self, registry, table):
        operator = identity(roles={"operator"}, scopes={"openid", "profile", "mcp.ops.read"})
        assert [t.name for t in visible_tools(operator, table, registry)] == ["ops_status"]

    def test_identity_without_roles_sees_nothing(self, registry, table):
        assert visible_tools(identity(), table, registry) == []

    def test_developer_list_is_name_sorted(self, registry, table):
        dev = identity(
            roles={"developer"},
            scopes={"openid", "profile", "mcp.docs.read", "mcp.code.search"},
        )
        names = [t.name for t in visible_tools(dev, table, registry)]
        assert names == ["build_status", "code_search", "docs_search"]


class TestBruteForceOracle:
    def test_full_instance_space_matches_oracle(self, registry, table):
        """Every (role subset, scope subset, tool) cell against the
        independently re-derived mapping."""
        checked = 0
        for roles in powerset(ROLES):
            for scopes in powerset(SCOPE_UNIVERSE):
                ident = identity(roles=roles, scopes=scopes)
                for tool in registry.names():
                    expected = oracle_allows(frozenset(roles), frozenset(scopes), tool)
                    decision = authorize(ident, tool, table, registry)
                    assert decision.allowed == expected, (roles, scopes, tool)
                    checked += 1
        assert checked == 8 * 32 * 4

    def test_visible_tools_equals_allow_set(self, registry, table):
        for roles in powerset(ROLES):
            for scopes in powerset(SCOPE_UNIVERSE):
                ident = identity(roles=roles, scopes=scopes)
                visible = {t.name for t in visible_tools(ident, table, registry)}
                allowed = {
                    tool
                    for tool in registry.names()
                    if authorize(ident, tool, table, registry).allowed
                }
                assert visible == allowed


_role_sets = st.frozensets(st.sampled_from(ROLES), max_size=3)
_scope_sets = st.frozensets(st.sampled_from(SCOPE_UNIVERSE), max_size=5)


@given(
    roles=_role_sets,
    scopes=_scope_sets,
    extra_role=st.sampled_from(ROLES),
    extra_scope=st.sampled_from(SCOPE_UNIVERSE),
)
def test_monotonicity_growing_identity_never_revokes(roles, scopes, extra_role, extra_scope):
    registry = default_registry()
    table = default_policy(registry)
    base = identity(roles=roles, scopes=scopes)
    grown = identity(roles=roles | {extra_role}, scopes=scopes | {extra_scope})
    for tool in registry.names():
        if authorize(base, tool, table, registry).allowed:
            assert authorize(grown, tool, table, registry).allowed


def test_scope_conjunction_quadrants(registry):
    """Role-without-scope and scope-without-role both deny; only the
    conjunction allows."""
    table = default_policy(registry)
    cases = [
        (identity(roles={"developer"}, scopes={"mcp.docs.read"}), "docs_search", True),
        (identity(roles={"developer"}, scopes=set()), "docs_search", False),
        (identity(roles=set(), scopes={"mcp.docs.read"}), "docs_search", False),
        (identity(roles=set(), scopes=set()), "docs_search", False),
    ]
    for ident, tool, expected in cases:
        assert authorize(ident, tool, table, registry).allowed == expected


def test_decision_deny_always_carries_reason(registry):
    table = PolicyTable(rules=())
    decision = authorize(identity(), "docs_search", table, registry)
    assert decision.outcome == "deny" and decision.reason in {
        "unknown_tool",
        "no_matching_role",
        "missing_scope",
    }
