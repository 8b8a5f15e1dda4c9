"""Turning records and spans into the benchmark's metrics.

`PREDICTIONS` records, for each per-layer metric, which end-to-end
metric on which workload it is expected to move; the traced run prints
it beside the numbers.
"""

from __future__ import annotations

import math
from collections import defaultdict

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "reject_p50_ms": "ms",
    "reject_p90_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
    "idp_rss_mb": "MB",
}

# Per-layer metric -> (span name, span tag or None) for p50 self times.
SELF_TIMES = {
    "server.handle_mcp_post_us": ("server.handle_mcp_post", None),
    "server.extract_bearer_header_us": ("server.extract_bearer", "header"),
    "server.extract_bearer_body_us": ("server.extract_bearer", "body"),
    "tokens.verify_bearer_us": ("tokens.verify_bearer", None),
    "tokens.parse_compact_us": ("tokens.parse_compact", None),
    "tokens.verify_signature_us": ("tokens.verify_signature", None),
    "tokens.validate_claims_us": ("tokens.validate_claims", None),
    "tokens.jwks_get_us": ("tokens.jwks_get", None),
    "protocol.decode_request_us": ("protocol.decode_request", None),
    "protocol.encode_response_us": ("protocol.encode_response", None),
    "policy.authorize_us": ("policy.authorize", None),
    "policy.visible_tools_us": ("policy.visible_tools", None),
    "tools.call_us": ("tools.call", None),
    "audit.append_us": ("audit.append", None),
    "idp.handle_token_us": ("idp.handle_token", None),
    "idp.handle_authorize_us": ("idp.handle_authorize", None),
    "idp.jwks_document_us": ("idp.jwks_document", None),
    "httpclient.request_us": ("httpclient.request", None),
    "harness.acquire_token_us": ("harness.acquire_token", None),
    "harness.discover_oidc_us": ("harness.discover_oidc", None),
    "tokenstore.put_us": ("tokenstore.put", None),
    "tokenstore.get_us": ("tokenstore.get", None),
}

REJECT_CLASSES = ("MalformedToken", "UnsupportedAlgorithm", "SignatureInvalid", "UnknownKeyId")

LAYER_UNITS = {
    "server.transport_us": "us",
    "server.connections_per_req": "conn/req",
    **{name: "us" for name in SELF_TIMES},
    "tokens.jwks_hit_ratio": "ratio",
    "tokens.jwks_fetch_us": "us",
    "tokens.jwks_fetches_per_reject": "fetch/reject",
    **{f"tokens.rejects.{cls}": "count" for cls in REJECT_CLASSES},
    "audit.records_per_req": "rec/req",
    "idp.requests_per_sign_in": "req/sign-in",
    "idp.cpu_ms_per_sign_in": "ms",
    "idp.requests_per_reject": "req/reject",
    "httpclient.connections_per_req": "conn/req",
    "loadgen.late_p90_ms": "ms",
    "loadgen.cpu_util": "cores",
    "trace.overhead_pct": "%",
    "trace.missing_targets": "count",
}

PREDICTIONS = {
    "server.transport_us": "op_p50_ms, ops_per_s on steady_calls",
    "server.connections_per_req": "op_p50_ms, ops_per_s on steady_calls",
    "server.handle_mcp_post_us": "op_p50_ms, server_cpu_ms_per_req on steady_calls",
    "server.extract_bearer_body_us": "op_p50_ms, server_cpu_ms_per_req on steady_calls",
    "tokens.verify_bearer_us": "op_p50_ms on steady_calls",
    "tokens.verify_signature_us": "op_p50_ms on steady_calls",
    "tokens.jwks_hit_ratio": "op_p90_ms, reject_p50_ms on under_attack",
    "tokens.jwks_fetches_per_reject": "op_p90_ms, reject_p50_ms on under_attack",
    "protocol.decode_request_us": "server_cpu_ms_per_req on steady_calls (small)",
    "policy.authorize_us": "server_cpu_ms_per_req on steady_calls (small)",
    "audit.append_us": "op_p50_ms on steady_calls, reject_p50_ms on under_attack",
    "idp.handle_token_us": "op_p50_ms on sign_in",
    "idp.requests_per_sign_in": "op_p50_ms on sign_in",
    "idp.requests_per_reject": "reject_p50_ms on under_attack",
    "httpclient.request_us": "op_p50_ms on sign_in",
    "tokenstore.put_us": "op_p50_ms on sign_in",
    "loadgen.late_p90_ms": "generator, not program, is the limit when high",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_tenth(values, higher_is_better: bool = False) -> float:
    """The value a tenth of the way from the best end of `values`."""
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[int(0.1 * len(ordered))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, window, ctx) -> dict[str, float]:
    """Per-layer metrics from spans whose start falls inside the window.

    `ctx` carries the generator-side numbers: client latency by request
    id, attacker records, sign-in count, connection counts, IdP access-log
    lines and CPU, and the untraced reference latency.
    """
    t0, t1 = window
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        if t0 <= span[1] <= t1:
            by_name[span[0]].append(span)

    def self_p50_us(name, tag):
        selected = [s[3] for s in by_name[name] if tag is None or s[5] == tag]
        return percentile(selected, 0.5) / 1e3

    out = {metric: self_p50_us(name, tag) for metric, (name, tag) in SELF_TIMES.items()}

    latency_by_id = ctx["latency_by_id"]
    transport = [
        latency_by_id[int(s[5])] - s[2]
        for s in by_name["server.handle_mcp_post"]
        if s[5] is not None and int(s[5]) in latency_by_id
    ]
    out["server.transport_us"] = percentile(transport, 0.5) / 1e3
    out["server.connections_per_req"] = ratio(ctx["wire_connections"], ctx["wire_requests"])

    jwks = by_name["tokens.jwks_get"]
    misses = [s for s in jwks if s[4] > 0]  # a miss fetches over HTTP
    rejects = ctx["rejects"]
    out["tokens.jwks_hit_ratio"] = ratio(len(jwks) - len(misses), len(jwks))
    out["tokens.jwks_fetch_us"] = percentile([s[2] for s in misses], 0.5) / 1e3
    out["tokens.jwks_fetches_per_reject"] = ratio(len(misses), rejects)
    for cls in REJECT_CLASSES:
        out[f"tokens.rejects.{cls}"] = float(sum(1 for s in by_name["tokens.verify_bearer"] if s[5] == cls))

    out["audit.records_per_req"] = ratio(len(by_name["audit.append"]), ctx["mcp_posts"])
    sign_ins = ctx["sign_ins"]
    out["idp.requests_per_sign_in"] = ratio(ctx["idp_requests"], sign_ins)
    out["idp.cpu_ms_per_sign_in"] = ratio(ctx["idp_cpu_s"] * 1e3, sign_ins)
    out["idp.requests_per_reject"] = ratio(ctx["idp_requests"], rejects)
    out["httpclient.connections_per_req"] = ratio(
        len(by_name["httpclient.connect"]), len(by_name["httpclient.request"])
    )
    out["loadgen.late_p90_ms"] = ctx["late_p90_ms"]
    out["loadgen.cpu_util"] = ctx["loadgen_cpu_util"]
    out["trace.overhead_pct"] = ctx["overhead_pct"]
    out["trace.missing_targets"] = float(len(ctx["missing"]))
    return out
