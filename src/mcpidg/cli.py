"""Command-line entry points.

Subcommands: serve-idp, serve-mcp, conformance, bench, policy-check.
Machine-readable output (bench, policy-check, transcripts) goes to
stdout; human logs go to stderr. Conformance exit codes are stable:
0 pass, 2 expectation mismatch, 1 infrastructure failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import tempfile
import threading
from contextlib import contextmanager
from typing import Any

from . import __version__, bench as bench_mod, harness
from .httpserve import BindFailure
from .idp import IdpConfig, default_users, load_fixtures, serve_idp
from .policy import PolicyError, PolicyTable, load_policy_file
from .server import ServerConfig, serve
from .stack import LocalStack, start_stack
from .tokens import mask_subject
from .tokenstore import TokenStore
from .tools import default_policy, default_registry

log = logging.getLogger("mcpidg.cli")

EXIT_OK = 0
EXIT_INFRASTRUCTURE = 1
EXIT_MISMATCH = 2


def _expected_log_sequence(masked_subject: str) -> list[str]:
    """The canonical authentication log ordering a successful run emits."""
    return [
        '"POST /mcp HTTP/1.1" 401 Unauthorized',
        '"GET /.well-known/oauth-protected-resource HTTP/1.1" 200 OK',
        "Verifying token...",
        f"Authenticated user: {masked_subject}",
        '"POST /mcp HTTP/1.1" 202 Accepted',
        '"POST /mcp HTTP/1.1" 200 OK',
    ]


def is_ordered_subsequence(needles: list[str], haystack: list[str]) -> bool:
    position = 0
    for message in haystack:
        if position < len(needles) and message == needles[position]:
            position += 1
    return position == len(needles)


class LogCapture(logging.Handler):
    """Collects the package's log messages for ordering assertions."""

    def __init__(self) -> None:
        super().__init__(level=logging.INFO)
        self.messages: list[str] = []
        self._lock_ = threading.Lock()

    def emit(self, record: logging.LogRecord) -> None:
        with self._lock_:
            self.messages.append(record.getMessage())


@contextmanager
def capture_package_logs():
    logger = logging.getLogger("mcpidg")
    previous_level = logger.level
    handler = LogCapture()
    logger.addHandler(handler)
    if logger.level > logging.INFO or logger.level == logging.NOTSET:
        logger.setLevel(logging.INFO)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


def resolve_persona(name: str, usernames: list[str]) -> str:
    """Accept either a fixture username or its bare role name."""
    if name in usernames:
        return name
    candidate = f"{name}-persona"
    if candidate in usernames:
        return candidate
    return name


def _wait_for_signal() -> None:
    stop = threading.Event()

    def handler(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)
    stop.wait()


# -- serve commands ----------------------------------------------------------


def cmd_serve_idp(args: argparse.Namespace) -> int:
    users = clients = None
    if args.fixtures:
        try:
            with open(args.fixtures, encoding="utf-8") as fh:
                users, clients = load_fixtures(json.load(fh))
        except (OSError, ValueError, RecursionError) as exc:
            log.error("cannot load fixtures %r: %s", args.fixtures, exc)
            return EXIT_INFRASTRUCTURE
    try:
        handle = serve_idp(IdpConfig(args.bind, args.issuer, args.audience, users, clients))
    except BindFailure as exc:
        log.error("%s", exc)
        return EXIT_INFRASTRUCTURE
    log.info("identity provider ready; issuer %s", handle.issuer)
    log.info("discovery: %s/.well-known/openid-configuration", handle.issuer)
    with handle:
        _wait_for_signal()
    log.info("identity provider stopped")
    return EXIT_OK


def cmd_serve_mcp(args: argparse.Namespace) -> int:
    config = ServerConfig(
        bind_address=args.bind,
        issuer_url=args.issuer,
        resource_url=args.resource,
        required_scopes=args.required_scopes,
        jwks_ttl=args.jwks_ttl,
        audit_sink=args.audit,
        policy_path=args.policy,
    )
    registry = default_registry()
    try:
        if config.policy_path:
            policy = load_policy_file(config.policy_path, registry)
        else:
            policy = default_policy(registry)
    except (OSError, PolicyError) as exc:
        log.error("cannot load policy %r: %s", config.policy_path, exc)
        return EXIT_INFRASTRUCTURE
    try:
        handle = serve(config, policy, registry)
    except BindFailure as exc:
        log.error("%s", exc)
        return EXIT_INFRASTRUCTURE
    log.info("resource server ready at %s", handle.resource_url)
    log.info("protected-resource metadata: %s", handle.metadata_url)
    with handle:
        _wait_for_signal()
    log.info("resource server stopped")
    return EXIT_OK


# -- conformance -------------------------------------------------------------


class _Checks:
    def __init__(self) -> None:
        self.failed = 0

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} - {name}{suffix}")
        if not passed:
            self.failed += 1


def _check_transcript(
    checks: _Checks,
    transcript: harness.FlowTranscript,
    expect_deny: bool,
    warm: bool,
) -> None:
    indices = transcript.indices()
    if warm:
        checks.record(
            "warm start skips challenge and token acquisition",
            not any(i in indices for i in range(1, 10)),
            f"steps recorded: {indices}",
        )
    else:
        step1 = transcript.step(1)
        step2 = transcript.step(2)
        checks.record(
            "step 1-2: unauthenticated request challenged with 401",
            step1 is not None
            and step2 is not None
            and "401" in step1.response_summary,
        )
        checks.record(
            "step 3-6: metadata fetched from both well-known paths, bodies equal",
            all(i in indices for i in (3, 4, 5, 6)),
        )
        checks.record(
            "step 7: authorization code obtained via PKCE (S256)",
            7 in indices,
        )
        step9 = transcript.step(9)
        checks.record(
            "step 8-9: access token issued, no refresh token",
            step9 is not None and "token_type=Bearer" in step9.response_summary,
        )
    step10 = transcript.step(10)
    checks.record(
        "step 10: authenticated initialize (200) and notification (202)",
        step10 is not None
        and "initialize -> 200" in step10.response_summary
        and "notifications/initialized -> 202" in step10.response_summary,
    )
    final = transcript.step(13)
    if expect_deny:
        checks.record(
            "step 13: tools/call denied as expected (JSON-RPC -32001)",
            final is not None and "error -32001" in final.response_summary,
            final.response_summary if final else "missing",
        )
    else:
        checks.record(
            "step 13: tools/call succeeded",
            final is not None and "result" in final.response_summary,
            final.response_summary if final else "missing",
        )


def cmd_conformance(args: argparse.Namespace) -> int:
    checks = _Checks()
    stack: LocalStack | None = None
    capture: LogCapture | None = None
    try:
        with tempfile.TemporaryDirectory(prefix="mcpidg-conformance-") as workdir:
            if args.self_contained:
                stack = start_stack(audit_path=f"{workdir}/audit.jsonl")
                mcp_url = stack.mcp_url
                usernames = sorted(stack.idp.core.users)
            elif args.mcp_url:
                mcp_url = args.mcp_url
                usernames = [u.username for u in default_users()]
            else:
                log.error("either --self-contained or --mcp-url is required")
                return EXIT_INFRASTRUCTURE
            persona = resolve_persona(args.persona, usernames)
            store_path = args.token_store or f"{workdir}/tokens.json"
            store = TokenStore(store_path)

            try:
                with capture_package_logs() as capture:
                    transcript = harness.run_sequence(
                        mcp_url,
                        persona,
                        tool=args.tool,
                        token_store=store,
                        bearer_mode=args.bearer_mode,
                    )
                    repeats: list[tuple[harness.FlowTranscript, int]] = []
                    for _ in range(max(0, args.repeat - 1)):
                        before = stack.idp.total_requests if stack else -1
                        warm_transcript = harness.run_sequence(
                            mcp_url,
                            persona,
                            tool=args.tool,
                            token_store=store,
                            bearer_mode=args.bearer_mode,
                        )
                        after = stack.idp.total_requests if stack else -1
                        repeats.append((warm_transcript, after - before))
            except harness.StepFailure as exc:
                print(exc.transcript.to_jsonl(), file=sys.stdout)
                log.error("sequence failed at step %d: %s", exc.index, exc.detail)
                return EXIT_INFRASTRUCTURE

            print(transcript.to_jsonl())
            # A pre-populated token store makes even the first run warm.
            first_run_warm = transcript.step(1) is None
            _check_transcript(checks, transcript, args.expect_deny, warm=first_run_warm)

            if stack is not None and not first_run_warm:
                checks.record(
                    "step 11-12: server validated the token via provider keys",
                    stack.idp.counters().get("jwks", 0) >= 1,
                    f"jwks fetches: {stack.idp.counters().get('jwks', 0)}",
                )
                masked = mask_subject(persona)
                expected = _expected_log_sequence(masked)
                checks.record(
                    "server log ordering matches the authentication sequence",
                    is_ordered_subsequence(expected, capture.messages),
                )

            for i, (warm_transcript, idp_delta) in enumerate(repeats, start=2):
                print(warm_transcript.to_jsonl())
                _check_transcript(checks, warm_transcript, args.expect_deny, warm=True)
                if stack is not None:
                    checks.record(
                        f"run {i}: zero identity-provider requests (cached token reused)",
                        idp_delta == 0,
                        f"idp request delta: {idp_delta}",
                    )
    except BindFailure as exc:
        log.error("%s", exc)
        return EXIT_INFRASTRUCTURE
    finally:
        if stack is not None:
            stack.stop()
    return EXIT_OK if checks.failed == 0 else EXIT_MISMATCH


# -- bench -------------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    scenarios = (
        list(bench_mod.SCENARIOS) if args.scenario == "all" else [args.scenario]
    )
    reports: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="mcpidg-bench-") as workdir:
        try:
            stack = start_stack(audit_path=f"{workdir}/audit.jsonl")
        except BindFailure as exc:
            log.error("%s", exc)
            return EXIT_INFRASTRUCTURE
        try:
            persona = resolve_persona(args.persona, sorted(stack.idp.core.users))
            for scenario in scenarios:
                kwargs: dict[str, Any] = {"persona": persona}
                if args.iterations is not None:
                    kwargs["iterations"] = args.iterations
                if scenario == bench_mod.SCENARIO_CACHE_HIT:
                    report = bench_mod.bench_cache_hit(
                        stack.idp.core, stack.server.resource_url, **kwargs
                    )
                elif scenario == bench_mod.SCENARIO_CACHE_MISS:
                    report = bench_mod.bench_cache_miss(
                        stack.idp.core, stack.server.resource_url, **kwargs
                    )
                else:
                    report = bench_mod.bench_end_to_end(
                        stack.idp.core,
                        stack.mcp_url,
                        tool=args.tool,
                        server_cache=stack.server.app.cache,
                        **kwargs,
                    )
                log.info(
                    "%s: p50=%dus p95=%dus over %d samples",
                    scenario, report.p50_us, report.p95_us, report.samples,
                )
                reports.append(report.to_dict())
        except bench_mod.InsufficientSamples as exc:
            log.error("%s", exc)
            return EXIT_INFRASTRUCTURE
        finally:
            stack.stop()
    print(json.dumps({"reports": reports}, indent=2))
    return EXIT_OK


# -- policy-check ------------------------------------------------------------


def cmd_policy_check(args: argparse.Namespace) -> int:
    registry = default_registry()
    try:
        table = load_policy_file(args.policy_path, registry)
    except OSError as exc:
        log.error("cannot read policy file %r: %s", args.policy_path, exc)
        return EXIT_INFRASTRUCTURE
    except PolicyError as exc:
        log.error("policy file %r is invalid: %s", args.policy_path, exc)
        return EXIT_INFRASTRUCTURE
    print(json.dumps(policy_report(table, registry), indent=2))
    return EXIT_OK


def policy_report(table: PolicyTable, registry) -> dict[str, Any]:
    """Structural lint: grant matrix, unreachable tools, unused scopes."""
    tools = registry.names()
    matrix: dict[str, dict[str, str]] = {}
    warnings: list[str] = []
    granted_tools: set[str] = set()
    granted_scopes: set[str] = set()
    used_scopes: set[str] = set()
    for rule in table.rules:
        matrix[rule.role] = {
            tool: ("allow" if tool in rule.allowed_tools else "deny") for tool in tools
        }
        granted_tools.update(rule.allowed_tools)
        granted_scopes.update(rule.granted_scopes)
        for tool in sorted(rule.allowed_tools):
            required = registry.descriptor(tool).required_scopes
            used_scopes.update(required & rule.granted_scopes)
            gap = required - rule.granted_scopes
            if gap:
                warnings.append(
                    f"role {rule.role!r} is granted tool {tool!r} but lacks "
                    f"required scope(s) {sorted(gap)}"
                )
    unreachable = sorted(set(tools) - granted_tools)
    if len(unreachable) == len(tools):
        warnings.append("all tools unreachable: no role grants any tool")
    return {
        "roles": [rule.role for rule in table.rules],
        "tools": tools,
        "matrix": matrix,
        "unreachable_tools": unreachable,
        "unused_scopes": sorted(granted_scopes - used_scopes),
        "warnings": warnings,
        "valid": True,
    }


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The serve defaults are read from ServerConfig and IdpConfig, not restated."""
    parser = argparse.ArgumentParser(
        prog="mcpidg",
        description="Identity-gated MCP resource server, mock OIDC provider, "
        "conformance harness, and latency benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"mcpidg {__version__}")
    parser.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve-idp", help="run the mock identity provider")
    p.add_argument(
        "--bind", default=IdpConfig.bind_address,
        help="host:port, port 0 = ephemeral (default: %(default)s)",
    )
    p.add_argument("--issuer", default=None, help="issuer URL (default: derived from bind)")
    p.add_argument(
        "--audience", default=IdpConfig.audience,
        help="resource URL stamped into the aud claim (default: %(default)s)",
    )
    p.add_argument(
        "--fixtures", default=None,
        help="JSON document with fixture users and client registrations",
    )
    p.set_defaults(func=cmd_serve_idp)

    p = sub.add_parser("serve-mcp", help="run the MCP resource server")
    p.add_argument(
        "--bind", default=ServerConfig.bind_address, help="host:port (default: %(default)s)"
    )
    p.add_argument("--issuer", default=ServerConfig.issuer_url, help="trusted issuer URL")
    p.add_argument("--resource", default=None, help="externally visible MCP URL")
    p.add_argument("--policy", default=None, help="policy JSON path (default: shipped mapping)")
    p.add_argument("--audit", default=ServerConfig.audit_sink, help="audit sink path (JSON Lines)")
    p.add_argument(
        "--required-scopes", default=ServerConfig.required_scopes,
        type=lambda text: frozenset(s for s in text.split(",") if s),
        help="comma-separated server-wide scopes",
    )
    p.add_argument("--jwks-ttl", type=float, default=ServerConfig.jwks_ttl)
    p.set_defaults(func=cmd_serve_mcp)

    p = sub.add_parser("conformance", help="drive the end-to-end authorization sequence")
    p.add_argument("--mcp-url", default=None, help="target an already-running server")
    p.add_argument(
        "--self-contained", action="store_true",
        help="spawn provider and server in-process on loopback",
    )
    p.add_argument("--persona", required=True, help="fixture username (or bare role name)")
    p.add_argument("--tool", default="docs_search")
    p.add_argument(
        "--expect-deny", action="store_true",
        help="the final tools/call must be denied for the run to pass",
    )
    p.add_argument("--bearer-mode", choices=["header", "body"], default="header")
    p.add_argument("--token-store", default=None, help="token cache path (persists across runs)")
    p.add_argument(
        "--repeat", type=int, default=1,
        help="run the sequence N times; runs after the first must reuse the cached token",
    )
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser("bench", help="latency benchmark (self-contained)")
    p.add_argument(
        "--scenario", default="all",
        choices=["all", *bench_mod.SCENARIOS],
    )
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--persona", default="developer-persona")
    p.add_argument("--tool", default="docs_search")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("policy-check", help="lint a policy document")
    p.add_argument("policy_path")
    p.set_defaults(func=cmd_policy_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = getattr(logging, args.log_level.upper())
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s  %(message)s")
    # Log capture may raise package logger levels; the stderr handler must
    # still honor the requested verbosity.
    for handler in logging.getLogger().handlers:
        handler.setLevel(level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
