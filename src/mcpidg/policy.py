"""Role/scope policy mapping identities to permitted tools.

Authorization is a conjunction: a rule must grant the tool to one of the
identity's roles AND the identity's scopes must cover the tool's required
scopes. Anything not explicitly allowed is denied, with a machine-readable
reason. Tables are immutable after load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol

from . import protocol


class PolicyError(Exception):
    pass


class PolicyFormatError(PolicyError):
    """Document does not match the policy schema."""


class UnknownToolInPolicy(PolicyError):
    def __init__(self, tool: str, role: str):
        super().__init__(f"policy grants unknown tool {tool!r} to role {role!r}")
        self.tool = tool
        self.role = role


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    description: str
    required_scopes: frozenset[str]


class ToolRegistry:
    """Registered tools and their stub handlers, keyed by unique name."""

    def __init__(self) -> None:
        self._tools: dict[str, tuple[ToolDescriptor, Callable[[dict], dict]]] = {}

    def register(
        self,
        name: str,
        description: str,
        required_scopes: Iterable[str],
        handler: Callable[[dict], dict],
    ) -> ToolDescriptor:
        if name in self._tools:
            raise ValueError(f"tool {name!r} already registered")
        descriptor = ToolDescriptor(
            name=name,
            description=description,
            required_scopes=frozenset(required_scopes),
        )
        self._tools[name] = (descriptor, handler)
        return descriptor

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def names(self) -> list[str]:
        return sorted(self._tools)

    def descriptor(self, name: str) -> ToolDescriptor:
        return self._tools[name][0]

    def descriptors(self) -> list[ToolDescriptor]:
        return [self._tools[name][0] for name in self.names()]

    def call(self, name: str, arguments: dict[str, Any]) -> dict[str, Any]:
        return self._tools[name][1](arguments)


@dataclass(frozen=True)
class PolicyRule:
    role: str
    granted_scopes: frozenset[str]
    allowed_tools: frozenset[str]


@dataclass(frozen=True)
class PolicyTable:
    rules: tuple[PolicyRule, ...]


class HasRolesAndScopes(Protocol):
    roles: frozenset[str]
    scopes: frozenset[str]


@dataclass(frozen=True)
class Decision:
    """Outcome of one authorization check; deny always names its reason."""

    outcome: str  # "allow" | "deny"
    reason: str  # "ok" | "unknown_tool" | "no_matching_role" | "missing_scope"
    missing_scopes: frozenset[str] = frozenset()

    @property
    def allowed(self) -> bool:
        return self.outcome == "allow"


ALLOW = Decision(outcome="allow", reason="ok")


def load_policy(document: dict[str, Any], registry: ToolRegistry) -> PolicyTable:
    """Validate a policy document against the registry.

    Duplicate roles merge by set union of scopes and tools; tool names that
    do not resolve against the registry are a hard error.
    """
    if not isinstance(document, dict) or not isinstance(document.get("rules"), list):
        raise PolicyFormatError("policy document must carry a 'rules' array")
    merged: dict[str, tuple[set[str], set[str]]] = {}  # in first-seen role order
    for i, entry in enumerate(document["rules"]):
        if not isinstance(entry, dict):
            raise PolicyFormatError(f"rules[{i}] must be an object")
        role = entry.get("role")
        if not isinstance(role, str) or not role:
            raise PolicyFormatError(f"rules[{i}].role must be a non-empty string")
        scopes = entry.get("granted_scopes", [])
        tools = entry.get("allowed_tools", [])
        if not isinstance(scopes, list) or not all(isinstance(s, str) for s in scopes):
            raise PolicyFormatError(f"rules[{i}].granted_scopes must be a string array")
        if not isinstance(tools, list) or not all(isinstance(t, str) for t in tools):
            raise PolicyFormatError(f"rules[{i}].allowed_tools must be a string array")
        for tool in tools:
            if tool not in registry:
                raise UnknownToolInPolicy(tool, role)
        granted, allowed = merged.setdefault(role, (set(), set()))
        granted.update(scopes)
        allowed.update(tools)
    return PolicyTable(rules=tuple(
        PolicyRule(role, frozenset(granted), frozenset(allowed))
        for role, (granted, allowed) in merged.items()
    ))


def load_policy_file(path: str, registry: ToolRegistry) -> PolicyTable:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        document = protocol.parse_json(data)
    except protocol.ParseError as exc:
        raise PolicyFormatError(f"policy file {path!r} is not usable JSON: {exc}") from exc
    return load_policy(document, registry)


def authorize(
    identity: HasRolesAndScopes,
    tool: str,
    table: PolicyTable,
    registry: ToolRegistry,
) -> Decision:
    """Default-deny check; first failing reason wins in the fixed order
    unknown_tool -> no_matching_role -> missing_scope."""
    if tool not in registry:
        return Decision(outcome="deny", reason="unknown_tool")
    if not any(
        rule.role in identity.roles and tool in rule.allowed_tools
        for rule in table.rules
    ):
        return Decision(outcome="deny", reason="no_matching_role")
    missing = registry.descriptor(tool).required_scopes - identity.scopes
    if missing:
        return Decision(outcome="deny", reason="missing_scope", missing_scopes=missing)
    return ALLOW


def visible_tools(
    identity: HasRolesAndScopes,
    table: PolicyTable,
    registry: ToolRegistry,
) -> list[ToolDescriptor]:
    """Exactly the tools authorize() allows, in stable name order."""
    return [
        registry.descriptor(name)
        for name in registry.names()
        if authorize(identity, name, table, registry).allowed
    ]
