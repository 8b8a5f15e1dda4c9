"""In-memory spans around the public functions of mcpidg's layers.

`install()` replaces each target, named by import path, with a wrapper
that records (name, start_ns, duration_ns, self_ns, children, tag).
Self time is the span's duration minus the time its traced children
covered on the same thread. Spans stay in memory until `dump()`. A
target that no longer exists is reported as missing, never raised.

Names that `mcpidg.server` imported directly (`verify_bearer`,
`authorize`, `visible_tools`) are wrapped where the server looks them
up, in addition to their home module. Timestamps come from
`time.monotonic_ns()`, which on Linux is one clock for every process, so
spans from the servers line up with the load generator's window.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

# (span name, module, attribute path within the module)
TARGETS = (
    ("server.handle_mcp_post", "mcpidg.server", "McpApp.handle_mcp_post"),
    ("server.extract_bearer", "mcpidg.server", "extract_bearer"),
    ("tokens.verify_bearer", "mcpidg.server", "verify_bearer"),
    ("tokens.verify_bearer", "mcpidg.tokens", "verify_bearer"),
    ("tokens.parse_compact", "mcpidg.tokens", "parse_compact"),
    ("tokens.verify_signature", "mcpidg.tokens", "verify_signature"),
    ("tokens.validate_claims", "mcpidg.tokens", "validate_claims"),
    ("tokens.jwks_get", "mcpidg.tokens", "JwksCache.get"),
    ("protocol.decode_request", "mcpidg.protocol", "decode_request"),
    ("protocol.encode_response", "mcpidg.protocol", "encode_response"),
    ("policy.authorize", "mcpidg.server", "authorize"),
    ("policy.authorize", "mcpidg.policy", "authorize"),
    ("policy.visible_tools", "mcpidg.server", "visible_tools"),
    ("tools.call", "mcpidg.policy", "ToolRegistry.call"),
    ("audit.append", "mcpidg.audit", "AuditLog.append"),
    ("idp.handle_token", "mcpidg.idp", "MockIdp.handle_token"),
    ("idp.handle_authorize", "mcpidg.idp", "MockIdp.handle_authorize"),
    ("idp.jwks_document", "mcpidg.idp", "MockIdp.jwks_document"),
    ("httpclient.request", "mcpidg.httpclient", "request"),
    ("httpclient.connect", "http.client", "HTTPConnection.connect"),
    ("harness.acquire_token", "mcpidg.harness", "acquire_token"),
    ("harness.discover_oidc", "mcpidg.harness", "discover_oidc"),
    ("tokenstore.put", "mcpidg.tokenstore", "TokenStore.put"),
    ("tokenstore.get", "mcpidg.tokenstore", "TokenStore.get"),
)


def _bearer_mode(args, result, exc):
    if "authorization" in args[0]:
        return "header"
    return "body" if result else "none"


def _error_class(args, result, exc):
    return "ok" if exc is None else type(exc).__name__


TAGGERS = {
    # The benchmark's request-id header, joined with the client's latency.
    "server.handle_mcp_post": lambda args, result, exc: args[1].get("x-bench-request-id"),
    "server.extract_bearer": _bearer_mode,
    "tokens.verify_bearer": _error_class,
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def wrap(self, name, fn):
        tagger = TAGGERS.get(name)
        spans = self.spans
        local = self._local
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0, 0]  # child ns covered, child count
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1] += 1
                tag = tagger(args, result, exc) if tagger else None
                spans.append((name, start, duration, duration - frame[0], frame[1], tag))

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.append(f"{name}: {target} ({exc})")
                continue
            if not callable(original):
                self.missing.append(f"{name}: {target} is not callable")
                continue
            setattr(owner, attr, self.wrap(name, original))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def load(path: str) -> tuple[list[str], list[tuple]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["missing"], [tuple(span) for span in doc["spans"]]
