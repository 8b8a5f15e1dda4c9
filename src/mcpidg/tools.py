"""The four stub tools behind the resource server.

Handlers return canned deterministic payloads so conformance runs can
assert exact results; the real enterprise backends they stand in for
(documentation index, code catalog, build system, deployment status) are
out of scope.
"""

from __future__ import annotations

from importlib import resources
from typing import Any

from . import protocol
from .policy import PolicyTable, ToolRegistry, load_policy

SCOPE_DOCS_READ = "mcp.docs.read"
SCOPE_CODE_SEARCH = "mcp.code.search"
SCOPE_OPS_READ = "mcp.ops.read"


def _docs_search(arguments: dict[str, Any]) -> dict[str, Any]:
    query = arguments.get("query", "")
    return {
        "tool": "docs_search",
        "query": query,
        "results": [
            {"title": "Getting started", "path": "docs/getting-started.md"},
            {"title": "Service onboarding", "path": "docs/onboarding.md"},
        ],
    }


def _code_search(arguments: dict[str, Any]) -> dict[str, Any]:
    query = arguments.get("query", "")
    return {
        "tool": "code_search",
        "query": query,
        "matches": [
            {"repo": "platform/gateway", "file": "src/auth.py", "line": 42},
            {"repo": "platform/gateway", "file": "src/routes.py", "line": 7},
        ],
    }


def _build_status(arguments: dict[str, Any]) -> dict[str, Any]:
    pipeline = arguments.get("pipeline", "main")
    return {
        "tool": "build_status",
        "pipeline": pipeline,
        "status": "green",
        "last_build": "2024-11-04T09:30:00Z",
    }


def _ops_status(arguments: dict[str, Any]) -> dict[str, Any]:
    environment = arguments.get("environment", "production")
    return {
        "tool": "ops_status",
        "environment": environment,
        "deployed_version": "1.4.2",
        "healthy": True,
    }


def default_registry() -> ToolRegistry:
    registry = ToolRegistry()
    registry.register(
        "docs_search",
        "Search internal documentation indices",
        {SCOPE_DOCS_READ},
        _docs_search,
    )
    registry.register(
        "code_search",
        "Search the internal code catalog",
        {SCOPE_CODE_SEARCH},
        _code_search,
    )
    # Build queries ride on the code-search grant; no dedicated build scope
    # exists in the shipped scope vocabulary.
    registry.register(
        "build_status",
        "Query build system pipeline status",
        {SCOPE_CODE_SEARCH},
        _build_status,
    )
    registry.register(
        "ops_status",
        "Query deployment and service status",
        {SCOPE_OPS_READ},
        _ops_status,
    )
    return registry


def default_policy_document() -> dict[str, Any]:
    """The shipped role/scope/tool mapping (see data/default_policy.json)."""
    return protocol.parse_json(
        resources.files("mcpidg").joinpath("data/default_policy.json").read_bytes()
    )


def default_policy(registry: ToolRegistry | None = None) -> PolicyTable:
    return load_policy(default_policy_document(), registry or default_registry())
