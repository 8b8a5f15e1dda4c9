"""Expected outcomes, written out here independently of the package.

The tables below are the shipped policy and tool payloads as a user of
the server sees them: which persona may call which tool, the canned
payload an allowed call returns, and the JSON-RPC error a denied call
returns. The benchmark checks every reply against them, and after the
servers stop it reconciles the audit file against what it sent.
"""

from __future__ import annotations

import json
from collections import Counter

PERSONAS = ("developer-persona", "contractor-persona", "operator-persona")
TOOLS = ("docs_search", "code_search", "build_status", "ops_status")

ALLOWED = {
    "developer-persona": frozenset({"docs_search", "code_search", "build_status"}),
    "contractor-persona": frozenset({"docs_search"}),
    "operator-persona": frozenset({"ops_status"}),
}
# Roles and grantable scopes line up in the shipped fixtures, so every deny
# is a role miss rather than a scope miss.
DENY_CODE = -32001
DENY_REASON = "no_matching_role"

ALLOW_PAIRS = tuple((p, t) for p in PERSONAS for t in TOOLS if t in ALLOWED[p])
DENY_PAIRS = tuple((p, t) for p in PERSONAS for t in TOOLS if t not in ALLOWED[p])

QUERIES = ("auth flow", "onboarding", "rate limit", "gateway", "jwks", "retry policy")
PIPELINES = ("main", "release", "nightly")
ENVIRONMENTS = ("production", "staging")


def arguments_for(tool: str, rng) -> dict:
    if tool in ("docs_search", "code_search"):
        return {"query": rng.choice(QUERIES)}
    if tool == "build_status":
        return {"pipeline": rng.choice(PIPELINES)}
    return {"environment": rng.choice(ENVIRONMENTS)}


def expected_payload(tool: str, arguments: dict) -> dict:
    if tool == "docs_search":
        return {
            "tool": "docs_search",
            "query": arguments.get("query", ""),
            "results": [
                {"title": "Getting started", "path": "docs/getting-started.md"},
                {"title": "Service onboarding", "path": "docs/onboarding.md"},
            ],
        }
    if tool == "code_search":
        return {
            "tool": "code_search",
            "query": arguments.get("query", ""),
            "matches": [
                {"repo": "platform/gateway", "file": "src/auth.py", "line": 42},
                {"repo": "platform/gateway", "file": "src/routes.py", "line": 7},
            ],
        }
    if tool == "build_status":
        return {
            "tool": "build_status",
            "pipeline": arguments.get("pipeline", "main"),
            "status": "green",
            "last_build": "2024-11-04T09:30:00Z",
        }
    return {
        "tool": "ops_status",
        "environment": arguments.get("environment", "production"),
        "deployed_version": "1.4.2",
        "healthy": True,
    }


class Expectation:
    """What one legitimate MCP request must return, and what it audits."""

    __slots__ = ("kind", "request_id", "payload", "tool", "visible", "audit_key")

    def __init__(self, kind, request_id, payload=None, tool=None, visible=None, audit_key=None):
        self.kind = kind  # "allow" | "deny" | "list"
        self.request_id = request_id
        self.payload = payload
        self.tool = tool
        self.visible = visible
        self.audit_key = audit_key

    def mismatch(self, status: int, body: bytes) -> str | None:
        """None when the reply is the expected one, else a description."""
        if status != 200:
            return f"status {status}"
        try:
            doc = json.loads(body)
        except ValueError:
            return "unparseable body"
        if doc.get("id") != self.request_id:
            return f"id {doc.get('id')!r} != {self.request_id!r}"
        if self.kind == "allow":
            if doc.get("result") != self.payload:
                return f"result {doc.get('result') or doc.get('error')!r}"
        elif self.kind == "deny":
            error = doc.get("error") or {}
            data = error.get("data") or {}
            if (
                error.get("code") != DENY_CODE
                or data.get("reason") != DENY_REASON
                or data.get("tool") != self.tool
            ):
                return f"expected deny, got {doc!r}"
        else:
            tools = (doc.get("result") or {}).get("tools")
            if not isinstance(tools, list) or [t.get("name") for t in tools] != self.visible:
                return f"tools/list {tools!r}"
        return None


def check_challenge(status: int, headers: dict[str, str], metadata_url: str, presented: bool) -> str | None:
    """A refused credential gets 401 pointing at the protected-resource metadata."""
    if status != 401:
        return f"status {status}, wanted 401"
    value = headers.get("www-authenticate", "")
    if f'resource_metadata="{metadata_url}"' not in value:
        return f"WWW-Authenticate {value!r} lacks resource_metadata"
    if presented != ('error="invalid_token"' in value):
        return f"WWW-Authenticate {value!r} has the wrong error parameter"
    return None


def audit_key_for_call(persona: str, tool: str) -> tuple:
    decision = "allow" if tool in ALLOWED[persona] else "deny"
    return (decision, persona, tool)


def unauthenticated_key(kind: str) -> tuple:
    return ("unauthenticated", kind)


def reconcile_audit(path: str, expected: Counter) -> tuple[int, Counter]:
    """Compare the audit file to the records the traffic should have produced.

    Returns (mismatched record count, records found). Records are keyed
    by decision plus subject and tool for tool calls, or by reason for
    unauthenticated requests.
    """
    found: Counter = Counter()
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                decision = record.get("decision")
                if decision == "unauthenticated":
                    found[("unauthenticated", (record.get("deny_reason") or {}).get("kind"))] += 1
                else:
                    found[(decision, record.get("subject"), record.get("tool"))] += 1
    except FileNotFoundError:
        pass
    diff = sum(((expected - found) + (found - expected)).values())
    return diff, found
