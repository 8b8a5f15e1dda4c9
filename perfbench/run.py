"""mcpidg benchmark: out-of-process IdP and resource server, one load generator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload steady_calls --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
- steady_calls: 2 closed-loop IDE sessions with tokens in hand.
- sign_in: 1 closed-loop client doing cold sign-ins through the harness.
- under_attack: 1 closed-loop session plus an open-loop attacker sending
  bad credentials at a fixed rate.

The servers run as `python -m mcpidg.cli serve-idp|serve-mcp` with
PYTHONPATH=src. The generator uses at most 2 threads and 2 connections.
All three processes run on one CPU at a time (see `CPUS`).

--trace 0 prints the end-to-end metrics:
- setup_s: spawn both servers until both are ready and the three
  personas' tokens are held (PKCE flow); median of SETUPS set-ups.
- ops_per_s, op_p50_ms, op_p90_ms: the workload's legitimate operation,
  an MCP request (steady_calls, under_attack) or a cold sign-in from the
  first request to the first tool result (sign_in).
- reject_p50_ms, reject_p90_ms: time to a refusal: a policy deny
  (steady_calls), the 401 challenge that opens each sign-in (sign_in), a
  bad credential's 401 counted from when it was due (under_attack).
- server_cpu_ms_per_req: resource-server CPU time per request in its
  access log.
- server_rss_mb, idp_rss_mb: peak RSS (VmHWM) of each server.
Rates, percentiles and CPU per request are taken over each SLICE_S slice
of the window; each is reported as the slice value a tenth of the way from
the best (`metrics.best_tenth`). Other tenants slow the host's CPUs by up
to 1.5x for stretches of seconds to minutes (see `CPUS`); the best tenth
reads the program at the host's full speed, which most runs reach for a few
slices, where a median moves with the share of slow stretches in the run.
stderr shows the rate of every slice.

--trace 1 runs the workload twice, untraced and then with both servers
started through perfbench/shim.py, and prints the per-layer metrics (see
metrics.py). The last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter

import layertrace
import metrics
import oracle
import traffic
from procs import ACCESS_LINE, HOST, Stack, StartFailure, move_to_cpu
from wire import Connection

WORKLOADS = ("steady_calls", "sign_in", "under_attack")
SETUPS = 7
START_ATTEMPTS = 3
WARMUP_S = 1.0
LEGIT_TEMPLATES = 2048
ATTACK_CYCLES = 50
SEQ_STRIDE = 10**9  # keeps the two clients' request ids apart
SLICE_S = 1.0


# The CPUs the benchmark may use. Generator, resource server and IdP share
# one of them at a time: on a shared VM, a process woken on an idle virtual
# CPU waits for the host to run that CPU again, and every hand-off between
# the three processes paid that wait, which swung latency by up to 2x with
# other tenants' load. The host runs a busy virtual CPU at a speed that
# depends on where it placed it, up to 1.5x apart, and keeps that placement
# for as long as the CPU stays busy; so the window moves all three processes
# to the next CPU at every slice edge, and one run sees several placements.
CPUS = sorted(os.sched_getaffinity(0))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def _vm_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole VM, from the first line of /proc/stat."""
    with open("/proc/stat", "rb") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


class Interval:
    """A stretch of the window: CPU seconds (resource server, IdP, generator),
    the access-log entries of both servers, and the VM's steal share over it."""

    def __init__(self, t0: int, t1: int, cpu, mcp_lines: list, idp_lines: list, steal_share: float):
        self.t0, self.t1 = t0, t1
        self.mcp_cpu_s, self.idp_cpu_s, self.own_cpu_s = cpu
        self.mcp_lines = mcp_lines
        self.idp_lines = idp_lines
        self.steal_share = steal_share

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) / 1e9

    def holds(self, t: int) -> bool:
        return self.t0 <= t <= self.t1


def _between(first: tuple, last: tuple, mcp_lines: list, idp_lines: list) -> Interval:
    """The interval between two samples of (time, process CPU seconds, VM ticks)."""
    (t0, cpu0, (steal0, total0)), (t1, cpu1, (steal1, total1)) = first, last
    return Interval(
        t0, t1, [b - a for a, b in zip(cpu0, cpu1)], mcp_lines, idp_lines,
        metrics.ratio(steal1 - steal0, total1 - total0),
    )


class Window:
    """The measured interval, cut into slices of about SLICE_S by the main client.

    At each slice edge it samples both servers' CPU time and access logs,
    so request counts and CPU cover the same interval, and the VM's steal
    time, which stderr shows beside each slice's rate.
    """

    def __init__(self, stack: Stack, opens_at: int, seconds: float):
        self.stack = stack
        count = max(1, round(seconds / SLICE_S))
        self.edges = [opens_at + int(i * seconds * 1e9 / count) for i in range(count + 1)]
        self.closes_at = self.edges[-1]
        self._next = 0
        self._marks: list[tuple] = []
        self.slices: list[Interval] = []

    def tick(self, now: int) -> None:
        if self._next < len(self.edges) and now >= self.edges[self._next]:
            self._mark()
            # After a stall longer than a slice, skip the edges already passed.
            while self._next < len(self.edges) and self.edges[self._next] <= now:
                self._next += 1

    def _mark(self) -> None:
        mcp, idp = self.stack.mcp, self.stack.idp
        cpu = (mcp.cpu_seconds(), idp.cpu_seconds(), _own_cpu_seconds())
        mark = (time.monotonic_ns(), cpu, _vm_ticks())
        mcp_lines, idp_lines = mcp.access_log_since_mark(), idp.access_log_since_mark()
        if self._marks:
            self.slices.append(_between(self._marks[-1], mark, mcp_lines, idp_lines))
        self._marks.append(mark)
        next_cpu = CPUS[len(self._marks) % len(CPUS)]
        for pid in (os.getpid(), mcp.pid, idp.pid):
            move_to_cpu(pid, next_cpu)

    def close(self) -> None:
        """Build the whole window and read the servers' peak RSS before they stop."""
        self.mcp_rss_mb = self.stack.mcp.peak_rss_mb()
        self.idp_rss_mb = self.stack.idp.peak_rss_mb()
        self.whole = _between(
            self._marks[0], self._marks[-1],
            [line for piece in self.slices for line in piece.mcp_lines],
            [line for piece in self.slices for line in piece.idp_lines],
        )


class Phase:
    """One set-up plus one measured window of a workload."""

    def __init__(self, bench: "Bench", name: str, traced: bool, seconds: float, setups: int):
        self.bench = bench
        self.dir = os.path.join(bench.workroot, name)
        self.spans_dir = os.path.join(self.dir, "spans") if traced else None
        self.seconds = seconds
        self.setups = setups
        self.setup_s: list[float] = []
        self.legit: list[traffic.LegitClient] = []
        self.attacker: traffic.Attacker | None = None
        self.sign_in: traffic.SignInClient | None = None
        self.problems: list[str] = []

    def set_up(self, index: int):
        """Spawn both servers, wait until ready, and acquire the personas' tokens."""
        harness = self.bench.harness
        started = time.perf_counter()
        for attempt in range(START_ATTEMPTS):
            stack = Stack(os.path.join(self.dir, f"setup{index}-{attempt}"), self.bench.src, self.spans_dir)
            self.bench.stacks.append(stack)
            try:
                stack.wait_ready()
                break
            except StartFailure as exc:
                self.bench.stop_stack(stack)
                if attempt == START_ATTEMPTS - 1:
                    raise
                print(f"perfbench: retrying start: {exc}", file=sys.stderr)
        discovery = harness.discover_oidc(stack.issuer)
        tokens = {
            persona: harness.acquire_token(
                discovery, persona, harness.generate_pkce(), harness.DEFAULT_REQUEST_SCOPES
            )["access_token"]
            for persona in oracle.PERSONAS
        }
        self.setup_s.append(time.perf_counter() - started)
        return stack, tokens

    def run(self, workload: str, seed: int) -> None:
        for index in range(self.setups - 1):
            stack, _ = self.set_up(index)
            if not self.bench.stop_stack(stack):
                self.problems.append("server did not stop cleanly")
        stack, tokens = self.set_up(self.setups - 1)
        try:
            self._drive(workload, seed, stack, tokens)
        finally:
            if not self.bench.stop_stack(stack):
                self.problems.append("server did not stop cleanly")
        self._reconcile(stack)

    def _drive(self, workload: str, seed: int, stack: Stack, tokens: dict[str, str]) -> None:
        conn = lambda: Connection(HOST, stack.mcp_port)  # noqa: E731
        background = None
        if workload == "steady_calls":
            self.legit = [
                traffic.LegitClient(
                    conn(), traffic.legit_requests(random.Random(f"{seed}/steady/{c}"), tokens, LEGIT_TEMPLATES),
                    first_seq=c * SEQ_STRIDE,
                )
                for c in range(2)
            ]
        elif workload == "under_attack":
            self.legit = [traffic.LegitClient(
                conn(), traffic.legit_requests(random.Random(f"{seed}/attack/legit"), tokens, LEGIT_TEMPLATES),
                first_seq=0,
            )]
            corpus = traffic.attack_corpus(
                random.Random(f"{seed}/attack/bad"), tokens, ATTACK_CYCLES
            )
            self.attacker = traffic.Attacker(conn(), corpus, stack.metadata_url)
        else:
            keychains = os.path.join(self.dir, "keychains")
            os.makedirs(keychains, exist_ok=True)
            self.sign_in = traffic.SignInClient(
                self.bench.harness, self.bench.token_store_cls, stack.mcp_url,
                random.Random(f"{seed}/sign_in"), keychains,
            )

        start = time.monotonic_ns()
        self.window = Window(stack, start + int(WARMUP_S * 1e9), self.seconds)
        stop_at = self.window.closes_at
        errors: list[BaseException] = []

        def guarded(fn, *args):
            try:
                fn(*args)
            except BaseException as exc:  # re-raised in the main thread below
                errors.append(exc)

        if len(self.legit) == 2:
            background = threading.Thread(target=guarded, args=(self.legit[1].run, stop_at))
        elif self.attacker is not None:
            background = threading.Thread(target=guarded, args=(self.attacker.run, start, stop_at))
        if background is not None:
            background.start()
        try:
            main_client = self.sign_in if self.sign_in is not None else self.legit[0]
            main_client.run(stop_at, self.window.tick)
            self.window.close()
        finally:
            if background is not None:
                background.join()
            for client in self.legit + [self.attacker]:
                if client is not None:
                    client.conn.close()
        if errors:
            raise errors[0]

    def _reconcile(self, stack: Stack) -> None:
        expected: Counter = Counter()
        for outcomes in self.outcomes():
            expected.update(outcomes.audit)
        diff, found = oracle.reconcile_audit(stack.audit_path, expected)
        if diff:
            self.problems.append(
                f"audit mismatch on {diff} records: expected {dict(expected)}, found {dict(found)}"
            )
        self.audit_diff = diff
        with open(stack.idp.log_path, "rb") as fh:
            bad = [m.group(0) for m in ACCESS_LINE.finditer(fh.read()) if m.group(3) not in (b"200", b"302")]
        if bad:
            self.problems.append(f"IdP answered {len(bad)} requests with an error, e.g. {bad[0]!r}")
        self.idp_errors = len(bad)

    def outcomes(self) -> list[traffic.Outcomes]:
        clients = self.legit + [self.attacker, self.sign_in]
        return [c.outcomes for c in clients if c is not None]

    # -- results -------------------------------------------------------------

    def op_latencies(self, span: Interval) -> list[int]:
        if self.sign_in is not None:
            return [r[1] for r in self.sign_in.records if span.holds(r[0])]
        return [r[1] for c in self.legit for r in c.records if span.holds(r[0])]

    def reject_latencies(self, span: Interval) -> list[int]:
        if self.attacker is not None:
            return [r[1] for r in self.attacker.records if span.holds(r[0])]
        if self.sign_in is not None:
            return [r[2] for r in self.sign_in.records if span.holds(r[0])]
        return [r[1] for c in self.legit for r in c.records if r[3] and span.holds(r[0])]

    def end_to_end(self) -> tuple[dict[str, float], list[str]]:
        per_slice = []
        for piece in self.window.slices:
            ops = self.op_latencies(piece)
            rejects = self.reject_latencies(piece)
            per_slice.append({
                "ops_per_s": len(ops) / piece.seconds,
                "op_p50_ms": metrics.percentile(ops, 0.5) / 1e6,
                "op_p90_ms": metrics.percentile(ops, 0.9) / 1e6,
                "reject_p50_ms": metrics.percentile(rejects, 0.5) / 1e6,
                "reject_p90_ms": metrics.percentile(rejects, 0.9) / 1e6,
                "server_cpu_ms_per_req": piece.mcp_cpu_s * 1e3 / max(1, len(piece.mcp_lines)),
            })
        values = {
            name: metrics.best_tenth([s[name] for s in per_slice], higher_is_better=name == "ops_per_s")
            for name in per_slice[0]
        }
        values["setup_s"] = statistics.median(self.setup_s)
        values["server_rss_mb"] = self.window.mcp_rss_mb
        values["idp_rss_mb"] = self.window.idp_rss_mb
        w = self.window.whole
        ops = self.op_latencies(w)
        rejects = self.reject_latencies(w)
        notes = [
            f"window {w.seconds:.2f}s, VM steal {w.steal_share:.1%}; {len(per_slice)} slices; "
            f"setups {[round(s, 3) for s in self.setup_s]}",
            "slices (ops/s, steal): " + " ".join(
                f"{len(self.op_latencies(piece)) / piece.seconds:.0f}/{piece.steal_share:.1%}"
                for piece in self.window.slices
            ),
            f"ops: n={len(ops)} p99={metrics.percentile(ops, 0.99) / 1e6:.3f}ms",
            f"rejects: n={len(rejects)} p99={metrics.percentile(rejects, 0.99) / 1e6:.3f}ms",
            f"resource server: {len(w.mcp_lines)} requests, {w.mcp_cpu_s:.2f}s CPU; "
            f"IdP: {dict(Counter(p.decode().rsplit('/', 1)[-1] for _, p, _ in w.idp_lines))} "
            f"{w.idp_cpu_s:.2f}s CPU; generator {w.own_cpu_s / w.seconds:.2f} cores",
        ]
        wire = [c.conn for c in self.legit + [self.attacker] if c is not None]
        if wire:
            sent = sum(c.outcomes.attempted for c in self.legit + [self.attacker] if c is not None)
            notes.append(f"generator connections: {sum(c.opened for c in wire)} for {sent} requests")
        return values, notes


class Bench:
    def __init__(self, args: argparse.Namespace, src: str, workroot: str):
        self.args = args
        self.src = src
        self.workroot = workroot
        self.stacks: list[Stack] = []
        from mcpidg import harness
        from mcpidg.tokenstore import TokenStore

        self.harness = harness
        self.token_store_cls = TokenStore

    def stop_stack(self, stack: Stack) -> bool:
        if stack in self.stacks:
            self.stacks.remove(stack)
        return stack.stop()

    def stop_all(self) -> None:
        for stack in list(self.stacks):
            self.stop_stack(stack)

    def run(self) -> dict:
        args = self.args
        if args.trace == 0:
            phase = Phase(self, "plain", traced=False, seconds=args.seconds, setups=SETUPS)
            phase.run(args.workload, args.seed)
            values, notes = phase.end_to_end()
            phases = [phase]
            units = metrics.E2E_UNITS
        else:
            half = max(1.0, args.seconds / 2)
            plain = Phase(self, "plain", traced=False, seconds=half, setups=1)
            plain.run(args.workload, args.seed)
            recorder = layertrace.Recorder()
            recorder.install()
            traced = Phase(self, "traced", traced=True, seconds=half, setups=1)
            traced.run(args.workload, args.seed)
            values, notes = self._layers(plain, traced, recorder)
            phases = [plain, traced]
            units = metrics.LAYER_UNITS
        for note in notes:
            print(f"perfbench: {note}", file=sys.stderr)
        attempted = failed = 0
        for phase in phases:
            for outcomes in phase.outcomes():
                attempted += outcomes.attempted
                failed += outcomes.failed
                for failure in outcomes.failures:
                    print(f"perfbench: FAILED {failure}", file=sys.stderr)
            failed += phase.audit_diff + phase.idp_errors
            for problem in phase.problems:
                print(f"perfbench: PROBLEM {problem}", file=sys.stderr)
        correct = failed == 0 and not any(p.problems for p in phases)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }

    def _layers(self, plain: Phase, traced: Phase, recorder) -> tuple[dict[str, float], list[str]]:
        missing = list(recorder.missing)
        spans = list(recorder.spans)
        for server in ("mcp", "idp"):
            server_missing, server_spans = layertrace.load(os.path.join(traced.spans_dir, f"{server}.json"))
            missing += server_missing
            spans += server_spans
        missing = sorted(set(missing))
        w = traced.window.whole
        reference = metrics.percentile(plain.op_latencies(plain.window.whole), 0.5)
        attacker = traced.attacker
        attack_records = [r for r in attacker.records if w.holds(r[0])] if attacker else []
        wire = [c for c in traced.legit + [attacker] if c is not None]
        ctx = {
            "latency_by_id": {r[2]: r[1] for c in traced.legit for r in c.records},
            "wire_connections": sum(c.conn.opened for c in wire),
            "wire_requests": sum(c.outcomes.attempted for c in wire),
            "rejects": len(attack_records),
            "sign_ins": len(traced.op_latencies(w)) if traced.sign_in else 0,
            "idp_requests": len(w.idp_lines),
            "idp_cpu_s": w.idp_cpu_s,
            "mcp_posts": sum(1 for method, _, _ in w.mcp_lines if method == b"POST"),
            "late_p90_ms": metrics.percentile([r[2] for r in attack_records], 0.9) / 1e6,
            "loadgen_cpu_util": w.own_cpu_s / w.seconds,
            "overhead_pct": metrics.ratio(metrics.percentile(traced.op_latencies(w), 0.5) - reference, reference) * 100,
            "missing": missing,
        }
        values = metrics.layer_metrics(spans, (w.t0, w.t1), ctx)
        notes = [f"untraced op p50 {reference / 1e6:.3f}ms; a layer metric of 0 had no samples in this window"]
        notes += [f"missing wrapper target: {m}" for m in missing]
        notes += [
            f"{name} = {values[name]:.4g} {unit}" + (f"  (moves {metrics.PREDICTIONS[name]})" if name in metrics.PREDICTIONS else "")
            for name, unit in metrics.LAYER_UNITS.items()
        ]
        return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mcpidg", "cli.py")):
        print("perfbench: src/mcpidg not found; run from the root of an mcpidg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.sched_setaffinity(0, {CPUS[0]})  # the servers inherit it
    workroot = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workroot, exist_ok=True)
    # SIGTERM unwinds through the finally below, which stops the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args, src, workroot)
    try:
        result = bench.run()
    finally:
        bench.stop_all()
    if result["correct"]:
        shutil.rmtree(workroot, ignore_errors=True)
    else:
        print(f"perfbench: logs kept in {workroot}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
