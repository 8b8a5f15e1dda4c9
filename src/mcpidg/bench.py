"""Latency benchmark for bearer validation and end-to-end tool calls.

Three scenarios: cache_hit times repeated verification against a warm key
cache; cache_miss forces a key refetch on every verification (ttl 0);
end_to_end_tool_call times the full authenticated tools/call round trip.
Timing uses the monotonic performance counter around exactly the span of
interest; warmup iterations are discarded. Reports carry the reference
latency envelope measured in the enterprise deployment these scenarios
model -- hardware-dependent context, not an assertion target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from . import harness
from .idp import MockIdp
from .tokens import JwksCache, VerifierConfig, verify_bearer

SCENARIO_CACHE_HIT = "cache_hit"
SCENARIO_CACHE_MISS = "cache_miss"
SCENARIO_END_TO_END = "end_to_end_tool_call"

SCENARIOS = (SCENARIO_CACHE_HIT, SCENARIO_CACHE_MISS, SCENARIO_END_TO_END)

MIN_SAMPLES = {
    SCENARIO_CACHE_HIT: 200,
    SCENARIO_CACHE_MISS: 20,
    SCENARIO_END_TO_END: 50,
}

DEFAULT_WARMUP = {
    SCENARIO_CACHE_HIT: 20,
    SCENARIO_CACHE_MISS: 2,
    SCENARIO_END_TO_END: 5,
}

# Reference envelope (milliseconds) from the deployment these scenarios
# reproduce; reported alongside measurements for comparison only.
REFERENCE_MS = {
    SCENARIO_CACHE_HIT: (5, 5),
    SCENARIO_CACHE_MISS: (25, 35),
    SCENARIO_END_TO_END: (90, 120),
}


class InsufficientSamples(Exception):
    pass


def percentile_us(samples: list[float], pct: float) -> int:
    """Nearest-rank percentile over microsecond samples."""
    if not samples:
        raise InsufficientSamples("no samples collected")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without math import
    return int(ordered[int(rank) - 1])


@dataclass(frozen=True)
class BenchReport:
    scenario: str
    samples: int
    p50_us: int
    p95_us: int
    mean_us: int
    counter_snapshot: dict[str, int]

    def to_dict(self) -> dict[str, Any]:
        low, high = REFERENCE_MS[self.scenario]
        return {
            "scenario": self.scenario,
            "samples": self.samples,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "mean_us": self.mean_us,
            "counter_snapshot": dict(self.counter_snapshot),
            "reference_ms": {"low": low, "high": high},
        }


def _timed_loop(
    fn: Callable[[], Any], iterations: int, warmup: int
) -> list[float]:
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e6)
    return samples


def _report(
    scenario: str, samples: list[float], counters: dict[str, int]
) -> BenchReport:
    if len(samples) < MIN_SAMPLES[scenario]:
        raise InsufficientSamples(
            f"{scenario} needs >= {MIN_SAMPLES[scenario]} samples, got {len(samples)}"
        )
    return BenchReport(
        scenario=scenario,
        samples=len(samples),
        p50_us=percentile_us(samples, 50),
        p95_us=percentile_us(samples, 95),
        mean_us=int(sum(samples) / len(samples)),
        counter_snapshot=counters,
    )


def _bench_verify(
    scenario: str, ttl: float, idp: MockIdp, resource: str, iterations: int, warmup: int,
    persona: str,
) -> BenchReport:
    """The verify scenarios: one token verified again and again under a key cache ttl."""
    token = idp.issue_token_for(persona)
    cache = JwksCache(idp.issuer, ttl=ttl)
    config = VerifierConfig(resource=resource)
    samples = _timed_loop(lambda: verify_bearer(token, config, cache), iterations, warmup)
    return _report(scenario, samples, cache.snapshot())


def bench_cache_hit(
    idp: MockIdp,
    resource: str,
    iterations: int = MIN_SAMPLES[SCENARIO_CACHE_HIT],
    warmup: int = DEFAULT_WARMUP[SCENARIO_CACHE_HIT],
    persona: str = "developer-persona",
) -> BenchReport:
    """verify_bearer against a warm key cache (one initial fetch only)."""
    return _bench_verify(SCENARIO_CACHE_HIT, 86400.0, idp, resource, iterations, warmup, persona)


def bench_cache_miss(
    idp: MockIdp,
    resource: str,
    iterations: int = MIN_SAMPLES[SCENARIO_CACHE_MISS],
    warmup: int = DEFAULT_WARMUP[SCENARIO_CACHE_MISS],
    persona: str = "developer-persona",
) -> BenchReport:
    """verify_bearer with ttl 0: every validation refetches the keys."""
    return _bench_verify(SCENARIO_CACHE_MISS, 0.0, idp, resource, iterations, warmup, persona)


def bench_end_to_end(
    idp: MockIdp,
    mcp_url: str,
    iterations: int = MIN_SAMPLES[SCENARIO_END_TO_END],
    warmup: int = DEFAULT_WARMUP[SCENARIO_END_TO_END],
    persona: str = "developer-persona",
    tool: str = "docs_search",
    server_cache: JwksCache | None = None,
) -> BenchReport:
    """Full authenticated tools/call round trip over loopback HTTP."""
    token = idp.issue_token_for(persona)

    def call() -> None:
        response = harness.call_tool(mcp_url, token, tool)
        if response.error is not None:
            raise RuntimeError(f"bench tool call denied: {response.error}")

    samples = _timed_loop(call, iterations, warmup)
    counters = server_cache.snapshot() if server_cache is not None else {}
    return _report(SCENARIO_END_TO_END, samples, counters)
