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
from contextlib import contextmanager, nullcontext
from typing import Any
from urllib.parse import urlsplit

from . import __version__, bench as bench_mod, harness, protocol
from .httpserve import BindFailure, HttpServer
from .idp import IdpConfig, default_users, load_fixtures, serve_idp
from .policy import PolicyError, PolicyTable, load_policy_file
from .server import ServerConfig, serve
from .stack import start_stack
from .tokens import DISCOVERY_PATH, mask_subject
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

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())  # Handler.handle holds self.lock


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


def _serve_until_signalled(handle: HttpServer, name: str, *ready_lines: str) -> int:
    """Log the ready lines, serve until SIGINT or SIGTERM, then stop gracefully."""
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda signum, frame: stop.set())
    with handle:
        for line in ready_lines:
            log.info("%s", line)
        stop.wait()
    log.info("%s stopped", name)
    return EXIT_OK


# -- serve commands ----------------------------------------------------------


def http_url(text: str) -> str:
    """The type of the URL flags; argparse turns its ValueError into a usage error."""
    parts = urlsplit(text)  # raises for an unclosed IPv6 literal
    # Reading .port raises for a port that is not a number in range.
    if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
        raise ValueError(f"{text!r} is not an http(s) URL naming a host")
    return text


def cmd_serve_idp(args: argparse.Namespace) -> int:
    users = clients = None
    if args.fixtures:
        try:
            with open(args.fixtures, "rb") as fh:
                users, clients = load_fixtures(protocol.parse_json(fh.read()))
        except (OSError, protocol.ParseError, ValueError) as exc:  # ValueError: the shape
            log.error("cannot load fixtures %r: %s", args.fixtures, exc)
            return EXIT_INFRASTRUCTURE
    handle = serve_idp(IdpConfig(args.bind, args.issuer, args.audience, users, clients))
    return _serve_until_signalled(
        handle, "identity provider",
        f"identity provider ready; issuer {handle.issuer}",
        f"discovery: {handle.issuer}{DISCOVERY_PATH}",
    )


def cmd_serve_mcp(args: argparse.Namespace) -> int:
    config = ServerConfig(
        bind_address=args.bind,
        issuer_url=args.issuer,
        resource_url=args.resource,
        required_scopes=args.required_scopes,
        audit_sink=args.audit,
    )
    registry = default_registry()
    try:
        if args.policy:
            policy = load_policy_file(args.policy, registry)
        else:
            policy = default_policy(registry)
    except (OSError, PolicyError) as exc:
        log.error("cannot load policy %r: %s", args.policy, exc)
        return EXIT_INFRASTRUCTURE
    handle = serve(config, policy, registry)
    return _serve_until_signalled(
        handle, "resource server",
        f"resource server ready at {handle.resource_url}",
        f"protected-resource metadata: {handle.metadata_url}",
    )


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


def cmd_conformance(args: argparse.Namespace) -> int:
    if not (args.self_contained or args.mcp_url):
        log.error("either --self-contained or --mcp-url is required")
        return EXIT_INFRASTRUCTURE
    checks = _Checks()
    # The stack stops before its audit log's directory is removed.
    with tempfile.TemporaryDirectory(prefix="mcpidg-conformance-") as workdir, (
        start_stack(audit_path=f"{workdir}/audit.jsonl") if args.self_contained else nullcontext()
    ) as stack:
        if stack is not None:
            mcp_url, usernames = stack.mcp_url, sorted(stack.idp.core.users)
        else:
            mcp_url, usernames = args.mcp_url, [u.username for u in default_users()]
        persona = resolve_persona(args.persona, usernames)
        store_path = args.token_store or f"{workdir}/tokens.json"
        store = TokenStore(store_path)

        # Each run's transcript and the identity-provider requests it made.
        runs: list[tuple[harness.FlowTranscript, int]] = []
        try:
            with capture_package_logs() as capture:
                for _ in range(max(1, args.repeat)):
                    before = stack.idp.total_requests if stack else -1
                    transcript = harness.run_sequence(
                        mcp_url,
                        persona,
                        tool=args.tool,
                        token_store=store,
                        bearer_mode=args.bearer_mode,
                    )
                    after = stack.idp.total_requests if stack else -1
                    runs.append((transcript, after - before))
        except harness.StepFailure as exc:
            print(exc.transcript.to_jsonl())
            log.error("sequence failed at step %d: %s", exc.index, exc.detail)
            return EXIT_INFRASTRUCTURE
        except OSError as exc:  # the token store; run_sequence maps network errors to steps
            log.error("token store %r is unusable: %s", store_path, exc)
            return EXIT_INFRASTRUCTURE

        # run_sequence has enforced steps 1-10; judge only what it leaves open.
        # A prefix of harness._summarize_rpc's summary: an error message
        # that mentions "result" must not pass as one.
        step13, wanted = (
            ("step 13: tools/call denied as expected (JSON-RPC -32001)", "200 error -32001:")
            if args.expect_deny
            else ("step 13: tools/call succeeded", "200 result ")
        )
        for i, (transcript, idp_delta) in enumerate(runs, start=1):
            print(transcript.to_jsonl())
            final = transcript.final_step.response_summary
            checks.record(step13, final.startswith(wanted), final)
            cold = transcript.step(1) is not None
            if i == 1:
                # A pre-populated token store makes even the first run warm.
                if stack is not None and cold:
                    jwks = stack.idp.counters().get("jwks", 0)
                    checks.record(
                        "step 11-12: server validated the token via provider keys",
                        jwks >= 1,
                        f"jwks fetches: {jwks}",
                    )
                    expected = _expected_log_sequence(mask_subject(persona))
                    checks.record(
                        "server log ordering matches the authentication sequence",
                        is_ordered_subsequence(expected, capture.messages),
                    )
                continue
            checks.record(
                f"run {i}: warm start skips challenge and token acquisition",
                not cold,
                f"steps recorded: {transcript.indices()}",
            )
            if stack is not None:
                checks.record(
                    f"run {i}: zero identity-provider requests (cached token reused)",
                    idp_delta == 0,
                    f"idp request delta: {idp_delta}",
                )
    return EXIT_OK if checks.failed == 0 else EXIT_MISMATCH


# -- bench -------------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    scenarios = (
        list(bench_mod.SCENARIOS) if args.scenario == "all" else [args.scenario]
    )
    reports: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="mcpidg-bench-") as workdir, start_stack(
        audit_path=f"{workdir}/audit.jsonl"
    ) as stack:
        kwargs: dict[str, Any] = {
            "persona": resolve_persona(args.persona, sorted(stack.idp.core.users))
        }
        if args.iterations is not None:
            kwargs["iterations"] = args.iterations
        for scenario in scenarios:
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
    p.add_argument(
        "--issuer", default=None, type=http_url, help="issuer URL (default: derived from bind)"
    )
    p.add_argument(
        "--audience", default=IdpConfig.audience, type=http_url,
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
    p.add_argument(
        "--issuer", default=ServerConfig.issuer_url, type=http_url, help="trusted issuer URL"
    )
    p.add_argument("--resource", default=None, type=http_url, help="externally visible MCP URL")
    p.add_argument("--policy", default=None, help="policy JSON path (default: shipped mapping)")
    p.add_argument("--audit", default=ServerConfig.audit_sink, help="audit sink path (JSON Lines)")
    p.add_argument(
        "--required-scopes", default=ServerConfig.required_scopes,
        type=lambda text: frozenset(s for s in text.split(",") if s),
        help="comma-separated server-wide scopes",
    )
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


class ConsoleHandler(logging.StreamHandler):
    """Writes each "LEVEL  message" line itself, without a Formatter.

    A record carrying a traceback or a stack goes through the handler's
    Formatter, which has the same line format and appends them.
    """

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info or record.stack_info:
            super().emit(record)
            return
        try:
            # Handler.handle holds the lock that self.flush() would take again.
            self.stream.write(f"{record.levelname}  {record.getMessage()}\n")
            self.stream.flush()
        except RecursionError:  # as StreamHandler.emit does
            raise
        except Exception:
            self.handleError(record)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = getattr(logging, args.log_level.upper())
    # Nothing reads a record's thread, process or caller (logging HOWTO, Optimization).
    logging.logThreads = logging.logProcesses = logging.logMultiprocessing = False
    logging._srcfile = None
    logging.basicConfig(
        level=level, format="%(levelname)s  %(message)s", handlers=[ConsoleHandler(sys.stderr)]
    )
    # Log capture may raise package logger levels; the stderr handler must
    # still honor the requested verbosity.
    for handler in logging.getLogger().handlers:
        handler.setLevel(level)
    try:
        return args.func(args)
    except (BindFailure, bench_mod.InsufficientSamples) as exc:
        log.error("%s", exc)
        return EXIT_INFRASTRUCTURE


if __name__ == "__main__":
    sys.exit(main())
