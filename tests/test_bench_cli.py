import ast
import importlib.util
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from urllib.parse import urlsplit

import pytest

import oracles
from mcpidg import bench, cli, harness, httpclient, httpserve
from mcpidg.cli import is_ordered_subsequence, policy_report, resolve_persona
from mcpidg.policy import PolicyTable, load_policy
from mcpidg.stack import LocalStack
from mcpidg.tokens import mask_subject
from mcpidg.tokenstore import TokenStore
from mcpidg.tools import default_registry

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PERFBENCH_PROCS = SRC_DIR.parent / "perfbench" / "procs.py"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@contextmanager
def serving(*cli_args: str, ready: str, stderr: list[str] | None = None,
            program: tuple[str, ...] = ("-m", "mcpidg.cli")):
    """Run `mcpidg <cli_args>` until SIGTERM; yields what follows `ready` in its log.

    ``stderr`` receives every line the process wrote there, once it has exited.
    """
    lines = [] if stderr is None else stderr
    with subprocess.Popen(
        [sys.executable, *program, *cli_args], stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            announced = None
            deadline = time.time() + 10
            while announced is None and time.time() < deadline:
                line = proc.stderr.readline()
                lines.append(line)
                if ready in line:
                    announced = line.rsplit(ready, 1)[1].strip()
            assert announced, "server never reported readiness"
            yield announced
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            lines.extend(proc.stderr)


class TestPercentile:
    def test_hand_computed_cases(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert bench.percentile_us(values, 50) == 30
        assert bench.percentile_us(values, 95) == 50
        assert bench.percentile_us([7.0], 50) == 7

    def test_median_agrees_with_statistics_for_odd_lengths(self):
        import random

        rng = random.Random(42)
        for _ in range(20):
            n = rng.choice([1, 3, 5, 21, 101])
            values = [rng.uniform(0, 1e6) for _ in range(n)]
            assert bench.percentile_us(values, 50) == int(statistics.median(values))

    def test_empty_input_raises(self):
        with pytest.raises(bench.InsufficientSamples):
            bench.percentile_us([], 50)


class TestBenchScenarios:
    def test_insufficient_samples_rejected(self, stack):
        with pytest.raises(bench.InsufficientSamples):
            bench.bench_cache_hit(
                stack.idp.core, stack.server.resource_url, iterations=5, warmup=0
            )

    def test_hit_and_miss_reports_and_strict_ordering(self, stack):
        hit = bench.bench_cache_hit(
            stack.idp.core, stack.server.resource_url, iterations=200, warmup=5
        )
        miss = bench.bench_cache_miss(
            stack.idp.core, stack.server.resource_url, iterations=20, warmup=1
        )
        assert hit.samples == 200 and miss.samples == 20
        assert hit.counter_snapshot["misses"] == 1
        assert hit.counter_snapshot["hits"] == 204
        assert miss.counter_snapshot["hits"] == 0
        assert miss.p50_us > hit.p50_us
        report = hit.to_dict()
        assert report["reference_ms"] == {"low": 5, "high": 5}
        assert set(report) == {
            "scenario", "samples", "p50_us", "p95_us", "mean_us",
            "counter_snapshot", "reference_ms",
        }

    def test_end_to_end_report(self, stack):
        report = bench.bench_end_to_end(
            stack.idp.core,
            stack.mcp_url,
            iterations=50,
            warmup=2,
            server_cache=stack.server.app.cache,
        )
        assert report.samples == 50
        assert report.scenario == "end_to_end_tool_call"
        assert report.counter_snapshot["misses"] >= 1


class TestSubsequenceChecker:
    def test_in_order(self):
        assert is_ordered_subsequence(["a", "b"], ["x", "a", "y", "b"])

    def test_out_of_order(self):
        assert not is_ordered_subsequence(["a", "b"], ["b", "a"])

    def test_missing_element(self):
        assert not is_ordered_subsequence(["a", "b"], ["a"])


class TestPersonaResolution:
    def test_exact_username_wins(self):
        users = ["developer-persona", "developer"]
        assert resolve_persona("developer", users) == "developer"

    def test_bare_role_resolves_to_fixture(self):
        users = ["developer-persona", "contractor-persona"]
        assert resolve_persona("developer", users) == "developer-persona"

    def test_unknown_passes_through(self):
        assert resolve_persona("ghost", ["developer-persona"]) == "ghost"


class TestPolicyReport:
    def test_structural_matrix_reflects_grants_not_scopes(self, registry):
        doc = {
            "rules": [
                {"role": "contractor", "granted_scopes": ["mcp.docs.read"],
                 "allowed_tools": ["docs_search", "ops_status"]},
            ]
        }
        report = policy_report(load_policy(doc, registry), registry)
        assert report["matrix"]["contractor"]["ops_status"] == "allow"
        assert any("lacks required scope" in w for w in report["warnings"])

    def test_empty_policy_flags_unreachable_tools(self, registry):
        report = policy_report(PolicyTable(rules=()), registry)
        assert report["unreachable_tools"] == sorted(registry.names())
        assert any("unreachable" in w for w in report["warnings"])

    def test_unused_scopes_detected(self, registry):
        doc = {
            "rules": [
                {"role": "developer",
                 "granted_scopes": ["mcp.docs.read", "mcp.ops.read"],
                 "allowed_tools": ["docs_search"]},
            ]
        }
        report = policy_report(load_policy(doc, registry), registry)
        assert report["unused_scopes"] == ["mcp.ops.read"]


class TestCliPolicyCheck:
    def test_shipped_policy_passes(self, capsys):
        from importlib import resources

        path = str(resources.files("mcpidg").joinpath("data/default_policy.json"))
        assert cli.main(["policy-check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matrix"]["developer"]["docs_search"] == "allow"
        assert report["matrix"]["contractor"]["code_search"] == "deny"
        assert report["unreachable_tools"] == []
        assert report["valid"] is True

    def test_missing_file_exits_one(self, tmp_path):
        assert cli.main(["policy-check", str(tmp_path / "absent.json")]) == 1

    def test_unknown_tool_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rules": [
            {"role": "r", "granted_scopes": [], "allowed_tools": ["nonexistent"]}
        ]}))
        assert cli.main(["policy-check", str(path)]) == 1

    def test_empty_policy_exits_zero_with_warning(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"rules": []}))
        assert cli.main(["policy-check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any("unreachable" in w for w in report["warnings"])


# A report line naming one of the steps run_sequence itself enforces.
STEP_1_TO_10 = re.compile(r"\bsteps? (?:[1-9]|10)(?!\d)")


def _report_lines(out: str) -> list[str]:
    """The conformance report: its PASS and FAIL lines, transcripts left out."""
    return [line for line in out.splitlines() if line.startswith(("PASS - ", "FAIL - "))]


class TestCliConformance:
    def test_expectation_mismatch_exits_two(self, capsys):
        code = cli.main([
            "--log-level", "error",
            "conformance", "--self-contained",
            "--persona", "contractor", "--tool", "code_search",
        ])
        assert code == 2
        report = _report_lines(capsys.readouterr().out)
        failures = [line for line in report if line.startswith("FAIL")]
        assert len(failures) == 1
        assert failures[0].startswith("FAIL - step 13: tools/call succeeded")
        assert not any(STEP_1_TO_10.search(line) for line in report)

    def test_dead_target_exits_one(self):
        code = cli.main([
            "--log-level", "error",
            "conformance", "--mcp-url", "http://127.0.0.1:9/mcp",
            "--persona", "developer",
        ])
        assert code == 1

    def test_neither_target_nor_self_contained_exits_one(self):
        assert cli.main(["--log-level", "error",
                         "conformance", "--persona", "developer"]) == 1

    def test_repeat_exercises_warm_start(self, capsys):
        code = cli.main([
            "--log-level", "error",
            "conformance", "--self-contained",
            "--persona", "developer", "--repeat", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero identity-provider requests" in out

    def test_report_holds_only_the_checks_run_sequence_leaves_open(self, capsys):
        code = cli.main([
            "--log-level", "error",
            "conformance", "--self-contained",
            "--persona", "developer", "--repeat", "2",
        ])
        assert code == 0
        report = _report_lines(capsys.readouterr().out)
        names = [
            "step 13: tools/call succeeded",
            "step 11-12: server validated the token via provider keys",
            "server log ordering matches the authentication sequence",
            "step 13: tools/call succeeded",
            "run 2: warm start skips challenge and token acquisition",
            "run 2: zero identity-provider requests (cached token reused)",
        ]
        assert len(report) == len(names), report
        for line, name in zip(report, names):
            assert line.startswith(f"PASS - {name}"), (line, name)
        assert not any(STEP_1_TO_10.search(line) for line in report)


class TestCliBench:
    def test_single_scenario_json_report(self, capsys):
        code = cli.main([
            "--log-level", "error",
            "bench", "--scenario", "cache_miss", "--iterations", "20",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["scenario"] == "cache_miss"
        assert doc["reports"][0]["reference_ms"] == {"low": 25, "high": 35}

    def test_insufficient_iterations_exit_one(self):
        code = cli.main([
            "--log-level", "error",
            "bench", "--scenario", "cache_hit", "--iterations", "3",
        ])
        assert code == 1


class TestStackLifetime:
    @pytest.mark.parametrize("argv", [
        ["conformance", "--self-contained", "--persona", "developer"],
        ["bench", "--scenario", "cache_miss", "--iterations", "20"],
    ], ids=["conformance", "bench"])
    def test_stack_stops_while_its_directory_exists(self, monkeypatch, argv):
        seen = []
        real_stop = LocalStack.stop

        def stop(stack):
            seen.append(os.path.isdir(os.path.dirname(stack.audit_path)))
            real_stop(stack)

        monkeypatch.setattr(LocalStack, "stop", stop)
        assert cli.main(["--log-level", "error", *argv]) == 0
        assert seen == [True]


def _names(node: ast.AST) -> set[str]:
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def test_cli_has_one_failure_exit_and_stops_stacks_by_context_manager():
    """A bind failure or too few samples ends in main's one handler, and each
    self-contained stack stops when its with block ends, inside its temp directory."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for failure in ("BindFailure", "InsufficientSamples"):
        handlers = [
            function.name
            for function in functions
            for node in ast.walk(function)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and failure in _names(node.type)
        ]
        assert handlers == ["main"], failure
    stack_calls = {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "start_stack"
    }
    entered = {
        node.lineno for item in ast.walk(tree) if isinstance(item, ast.withitem)
        for node in ast.walk(item.context_expr) if isinstance(node, ast.Call)
    }
    assert stack_calls and stack_calls <= entered, "each stack lives in a with block"
    stops = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "stop"
    ]
    assert stops == [], "a stack is stopped by leaving its with block"


class TestServeCommands:
    def test_serve_mcp_bad_policy_path_exits_one(self, tmp_path, capsys):
        code = cli.main([
            "--log-level", "error",
            "serve-mcp", "--bind", "127.0.0.1:0",
            "--policy", str(tmp_path / "missing.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("content", [
        b'{"rules": [], "note": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "too-deep"])
    @pytest.mark.parametrize("command", [
        ["policy-check"],
        ["serve-mcp", "--bind", "127.0.0.1:0", "--policy"],
    ])
    def test_unusable_policy_exits_one(self, tmp_path, command, content):
        path = tmp_path / "policy.json"
        path.write_bytes(content)
        assert cli.main(["--log-level", "error", *command, str(path)]) == 1

    @pytest.mark.parametrize("bind", ["localhost", "localhost:abc", "127.0.0.1:70000"])
    def test_unusable_bind_exits_one(self, bind):
        assert cli.main(["--log-level", "error", "serve-idp", "--bind", bind]) == 1

    @pytest.mark.parametrize("url", ["http://[::1", "mcp.example"], ids=["ipv6-open", "no-scheme"])
    @pytest.mark.parametrize("command, flag", [
        ("serve-mcp", "--resource"), ("serve-mcp", "--issuer"),
        ("serve-idp", "--issuer"), ("serve-idp", "--audience"),
    ])
    def test_unusable_url_flag_is_a_usage_error_before_binding(
        self, monkeypatch, capsys, command, flag, url
    ):
        def bind(*args):
            raise AssertionError("bound before the flags were checked")

        monkeypatch.setattr(httpserve.HttpServer, "__init__", bind)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--bind", "127.0.0.1:0", flag, url])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid http_url value: {url!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[]", "[" * 100_000 + "]" * 100_000])
    def test_malformed_fixtures_exit_one(self, tmp_path, content):
        path = tmp_path / "fixtures.json"
        path.write_text(content)
        assert cli.main([
            "--log-level", "error",
            "serve-idp", "--bind", "127.0.0.1:0", "--fixtures", str(path),
        ]) == 1

    def test_serve_idp_runs_until_signalled(self):
        with serving("serve-idp", "--bind", "127.0.0.1:0", ready="issuer ") as issuer:
            reply = httpclient.get(f"{issuer}/.well-known/openid-configuration")
            assert reply.status == 200
            assert reply.json()["issuer"] == issuer

    def test_serve_mcp_runs_until_signalled(self, tmp_path):
        with serving(
            "serve-mcp", "--bind", "127.0.0.1:0", "--audit", str(tmp_path / "audit.jsonl"),
            ready="ready at ",
        ) as resource:
            reply = httpclient.post(
                resource, b'{"jsonrpc":"2.0","id":1,"method":"initialize"}',
                {"Content-Type": "application/json"},
            )
            assert reply.status == 401

    def test_serve_mcp_flags_reach_the_server(self, tmp_path):
        port = free_port()
        origin = f"http://127.0.0.1:{port}"
        resource = f"http://localhost:{port}/mcp"  # not the URL derived from the bind
        issuer = "http://issuer.test/realms/x"
        audit = tmp_path / "audit.jsonl"
        with serving(
            "serve-mcp", "--bind", f"127.0.0.1:{port}", "--issuer", issuer,
            "--resource", resource, "--required-scopes", "a,b", "--audit", str(audit),
            ready="ready at ",
        ) as announced:
            assert announced == resource
            doc = httpclient.get(f"{origin}/.well-known/oauth-protected-resource").json()
            assert doc["resource"] == resource
            assert doc["authorization_servers"] == [issuer]
            assert doc["scopes_supported"] == ["a", "b"]
            assert httpclient.post(f"{origin}/mcp", b"{}").status == 401
        assert json.loads(audit.read_text())["deny_reason"] == {"kind": "no_token"}

    def test_serve_idp_flags_reach_the_provider(self, tmp_path):
        port = free_port()
        issuer = f"http://127.0.0.1:{port}/realms/custom"
        audience = "http://rs.test/mcp"
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"users": [
            {"username": "auditor", "roles": ["auditor"], "grantable_scopes": ["openid"]}
        ]}))
        with serving(
            "serve-idp", "--bind", f"127.0.0.1:{port}", "--issuer", issuer,
            "--audience", audience, "--fixtures", str(fixtures), ready="issuer ",
        ) as announced:
            assert announced == issuer
            discovery = harness.discover_oidc(issuer)
            assert discovery["issuer"] == issuer
            response = harness.acquire_token(
                discovery, "auditor", harness.generate_pkce(), frozenset({"openid"})
            )
        _, claims, _, _ = oracles.decode_compact(response["access_token"])
        assert (claims["iss"], claims["sub"], claims["aud"]) == (issuer, "auditor", [audience])
        assert claims["exp"] - claims["iat"] == response["expires_in"] == 300

    def test_benchmark_command_lines_start_both_servers(self, tmp_path):
        spec = importlib.util.spec_from_file_location("procs_under_test", PERFBENCH_PROCS)
        procs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(procs)
        stack = procs.Stack(str(tmp_path), str(SRC_DIR))
        try:
            stack.wait_ready()
            discovery = httpclient.get(f"{stack.issuer}/.well-known/openid-configuration")
            assert discovery.json()["issuer"] == stack.issuer
            metadata = httpclient.get(stack.metadata_url).json()
            assert metadata["resource"] == stack.mcp_url
            assert metadata["authorization_servers"] == [stack.issuer]
        finally:
            clean = stack.stop()
        assert clean


# serve-mcp with a docs_search handler that fails, so one request logs a traceback.
FAILING_DOCS_SEARCH = """
import sys
from mcpidg import cli, tools

def docs_search(arguments):
    raise RuntimeError("documentation index unavailable")

tools._docs_search = docs_search
sys.exit(cli.main(sys.argv[1:]))
"""


class TestConsoleLines:
    """The exact stderr of both serve commands: operators and perfbench read it."""

    def test_a_sign_in_writes_these_lines_and_no_token(self, tmp_path):
        idp_port, mcp_port = free_port(), free_port()
        resource = f"http://127.0.0.1:{mcp_port}/mcp"
        store = TokenStore(str(tmp_path / "tokens.json"))
        idp_err: list[str] = []
        mcp_err: list[str] = []
        with serving(
            "serve-idp", "--bind", f"127.0.0.1:{idp_port}", "--audience", resource,
            ready="issuer ", stderr=idp_err,
        ) as issuer, serving(
            "serve-mcp", "--bind", f"127.0.0.1:{mcp_port}", "--issuer", issuer,
            "--audit", str(tmp_path / "audit.jsonl"),
            ready="ready at ", stderr=mcp_err, program=("-c", FAILING_DOCS_SEARCH),
        ):
            transcript = harness.run_sequence(resource, "developer-persona", token_store=store)
        assert transcript.final_step.response_summary == "200 error -32603: tool handler failure"
        token = store.get(resource).access_token
        assert token not in "".join(idp_err + mcp_err)

        realm = urlsplit(issuer).path
        assert "".join(idp_err).splitlines() == [
            f"INFO  identity provider ready; issuer {issuer}",
            f"INFO  discovery: {issuer}/.well-known/openid-configuration",
            f'INFO  "GET {realm}/.well-known/openid-configuration HTTP/1.1" 200 OK',
            f'INFO  "GET {realm}/authorize HTTP/1.1" 302 Found',
            f'INFO  "POST {realm}/token HTTP/1.1" 200 OK',
            f'INFO  "GET {realm}/.well-known/openid-configuration HTTP/1.1" 200 OK',
            f'INFO  "GET {realm}/jwks HTTP/1.1" 200 OK',
            "INFO  identity provider stopped",
        ]
        mcp_lines = "".join(mcp_err).splitlines()
        # The tool call's traceback: its header, at least one frame, the exception.
        failed = mcp_lines.index("ERROR  tool handler 'docs_search' failed")
        assert mcp_lines[failed + 1] == "Traceback (most recent call last):"
        assert mcp_lines[failed + 2].startswith('  File "')
        subject = mask_subject("developer-persona")
        assert subject == "d****************"
        metadata = "/.well-known/oauth-protected-resource"
        # A traceback's frame lines are indented; no log line is.
        assert [line for line in mcp_lines if not line.startswith(" ")] == [
            f"INFO  resource server ready at {resource}",
            f"INFO  protected-resource metadata: http://127.0.0.1:{mcp_port}{metadata}",
            'INFO  "POST /mcp HTTP/1.1" 401 Unauthorized',
            f'INFO  "GET {metadata} HTTP/1.1" 200 OK',
            f'INFO  "GET {metadata}/mcp HTTP/1.1" 200 OK',
            # The token is verified on its first use; the memo serves the rest.
            "INFO  Verifying token...",
            f"INFO  Authenticated user: {subject}",
            'INFO  "POST /mcp HTTP/1.1" 200 OK',
            'INFO  "POST /mcp HTTP/1.1" 202 Accepted',
            'INFO  "POST /mcp HTTP/1.1" 200 OK',
            "ERROR  tool handler 'docs_search' failed",
            "Traceback (most recent call last):",
            "RuntimeError: documentation index unavailable",
            'INFO  "POST /mcp HTTP/1.1" 200 OK',
            "INFO  resource server stopped",
        ]
