"""Chaos suite for the solve service (CI's ``serve-chaos``).

Three scenarios, each proving one resilience claim end to end:

* ``hang`` — a worker stalls inside a job (injected ``worker_hang``).
  The pool must SIGKILL it once the job's budget plus the pool's grace
  period has passed, the slot must get a fresh worker (the *same*
  request solves fine immediately after), and the stuck submission must
  still get an answer (ERROR, never a silent hang).
* ``flaky`` — the connection layer drops requests without replying
  (``conn_drop``), the client stalls between sends (``slow_client``)
  and journal appends tear mid-line (``journal_torn_write``).  The
  retrying :class:`~repro.serve.resilience.ResilientClient` must get
  every answer anyway — resubmission is idempotent by content address —
  and journal recovery must shrug off the torn tails.
* ``crash`` — the server process is SIGKILLed mid-corpus with jobs in
  flight, then restarted over the same cache + journal directories.
  The write-ahead journal must replay every admitted-but-unfinished
  request: **zero lost admitted requests**, and every recovered cache
  entry audit-verified (no unaudited fills, even on the recovery path).

Everything is deterministic: fault plans carry fixed seeds, and firing
decisions are keyed by (seed, job token, spec), so a failure reproduces.

Run with ``python -m repro.serve.chaos`` (or ``make serve-chaos``).
Exit code 0 on success, 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from .. import api
from ..core.pool import CANCEL_GRACE_SECONDS
from ..reliability.faults import FaultPlan
from ..sat.status import SolveStatus
from .client import ServeClient, ServeError
from .resilience import ResilientClient, RetryPolicy, CircuitBreaker
from .server import SolveService
from .smoke import _corpus, _serve_in_thread


class _Checks:
    """Collects failures instead of dying on the first one."""

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.failures: List[str] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)
            print(f"FAIL [{self.scenario}] {message}")

    def note(self, message: str) -> None:
        print(f"     [{self.scenario}] {message}")


def _requests(client: str) -> List[Tuple[str, "api.SolveRequest",
                                         SolveStatus]]:
    return [(name, api.SolveRequest(graph=graph, colors=colors,
                                    client=client, tag=name), expected)
            for name, graph, colors, expected in _corpus()]


def _cached_entries(cache_dir: str) -> Dict[str, Dict]:
    """digest → parsed disk-cache entry, across all shards."""
    entries: Dict[str, Dict] = {}
    for shard in sorted(os.listdir(cache_dir)):
        shard_dir = os.path.join(cache_dir, shard)
        if not os.path.isdir(shard_dir):
            continue
        for name in os.listdir(shard_dir):
            if not name.endswith(".json") or name.startswith("."):
                continue
            with open(os.path.join(shard_dir, name),
                      encoding="utf-8") as stream:
                entries[name[:-len(".json")]] = json.load(stream)
    return entries


def _check_all_audited(checks: _Checks, cache_dir: str) -> None:
    for digest, entry in _cached_entries(cache_dir).items():
        checks.check(entry.get("status") in ("SAT", "UNSAT"),
                     f"undecided entry cached: {digest[:12]} "
                     f"({entry.get('status')})")
        checks.check(entry.get("audit") == "PASS",
                     f"unaudited cache fill: {digest[:12]} "
                     f"(audit {entry.get('audit')!r})")


# ---------------------------------------------------------------------
# Scenario: hang — the pool's deadline kill + a fresh worker
# ---------------------------------------------------------------------


def scenario_hang() -> _Checks:
    checks = _Checks("hang")
    budget, grace = 1.0, CANCEL_GRACE_SECONDS
    plan = "seed=11; worker_hang@serve_worker:match=job#1:*,s=3600"
    saved = os.environ.get("REPRO_FAULTS")
    # Through the environment so the *forked workers* inherit the plan;
    # only the first pool job (token job#1:…) matches, and it stalls for
    # an hour unless something kills it.
    os.environ["REPRO_FAULTS"] = plan
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-hang-") as tmp:
            service = SolveService(
                port=0, workers=2,
                cache_dir=os.path.join(tmp, "cache"),
                journal_dir=os.path.join(tmp, "journal"),
                job_timeout=budget)
            thread = _serve_in_thread(service)
            victim = _requests("chaos-hang")[0]
            name, request, expected = victim
            with ServeClient(service.host, service.port,
                             timeout=120.0) as client:
                started = time.monotonic()
                response = client.solve(request)
                elapsed = time.monotonic() - started
                checks.note(f"hung job answered {response.status} "
                            f"after {elapsed:.2f}s (budget {budget:.2f}s "
                            f"+ grace {grace:.2f}s)")
                checks.check(
                    response.status in (SolveStatus.ERROR, expected),
                    f"hung job must answer decided-or-ERROR, "
                    f"got {response.status}")
                # The extra 0.7 s absorbs a loaded CI box's scheduling.
                checks.check(elapsed <= budget + grace + 0.7,
                             f"hung job answered {elapsed:.2f}s after "
                             f"submission (want <= budget + grace + 0.7s)")
                dump = client.metrics()
                pool = dump.get("pool") or {}
                counters = (dump.get("metrics") or {}).get("counters") or {}
                checks.check(pool.get("kills", 0) >= 1,
                             f"pool recorded no kill: {pool}")
                checks.check(counters.get("serve.pool.restarts", 0) >= 1,
                             "no fresh worker after the kill")
                last_kill = pool.get("last_kill") or {}
                reason = str(last_kill.get("reason", ""))
                checks.check(reason.startswith("overdue"),
                             f"expected an overdue kill, got {reason!r}")
                if reason.startswith("overdue:"):
                    ran_for = float(reason.split()[1].rstrip("s"))
                    latency = ran_for - budget - grace
                    checks.note(f"kill latency past budget+grace: "
                                f"{latency:.2f}s")
                    checks.check(latency <= 0.7,
                                 f"kill took {latency:.2f}s past "
                                 f"budget+grace (want <= 0.7s)")
                # The slot is reclaimed: the same request — no longer
                # matching the job#1 token — solves immediately.
                retry = client.solve(request)
                checks.check(retry.status is expected,
                             f"post-kill resubmit: {retry.status}, "
                             f"expected {expected}")
                # The ERROR answer was delivered, so the journal owes
                # nothing to a future boot.
                journal = dump.get("journal") or {}
                checks.check(journal.get("poisoned", 0) == 0,
                             f"unexpected poison marks: {journal}")
                final = client.metrics().get("journal") or {}
                checks.check(final.get("pending", 0) == 0,
                             f"journal should be settled: {final}")
                client.shutdown()
            thread.join(timeout=30)
            checks.check(not thread.is_alive(), "server did not stop")
    finally:
        if saved is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = saved
    return checks


# ---------------------------------------------------------------------
# Scenario: flaky — dropped connections, slow client, torn journal
# ---------------------------------------------------------------------


def scenario_flaky() -> _Checks:
    checks = _Checks("flaky")
    plan = FaultPlan.parse("seed=13; conn_drop@conn:p=0.25; "
                           "slow_client@conn:p=0.5,s=0.01; "
                           "journal_torn_write@journal:p=0.2")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-flaky-") as tmp:
        journal_dir = os.path.join(tmp, "journal")
        service = SolveService(port=0, workers=2,
                               cache_dir=os.path.join(tmp, "cache"),
                               journal_dir=journal_dir,
                               job_timeout=60.0, faults=plan)
        thread = _serve_in_thread(service)
        client = ResilientClient(
            service.host, service.port,
            retry=RetryPolicy(max_attempts=6, base_backoff=0.01,
                              max_backoff=0.1, seed=7),
            breaker=CircuitBreaker(failure_threshold=10),
            faults=plan)
        with client:
            for name, request, expected in _requests("chaos-flaky"):
                response = client.solve(request, deadline=120.0)
                checks.check(response.status is expected,
                             f"{name}: {response.status}, "
                             f"expected {expected}")
                checks.check(response.audit == "PASS" or response.cached,
                             f"{name}: audit {response.audit!r}")
            dump = client.metrics()
            counters = (dump.get("metrics") or {}).get("counters") or {}
            checks.note(f"client attempts={client.attempts} "
                        f"retries={client.retries} "
                        f"reconnects={client.reconnects}; server drops="
                        f"{counters.get('serve.conn_dropped', 0)}")
            checks.check(counters.get("serve.conn_dropped", 0) >= 1,
                         "no connection drops fired — scenario is vacuous")
            checks.check(client.retries >= 1,
                         "client never retried despite drops")
            checks.check(client.breaker.state == "closed",
                         f"breaker ended {client.breaker.state}, "
                         f"expected closed")
            client.shutdown()
        thread.join(timeout=30)
        checks.check(not thread.is_alive(), "server did not stop")
        # Torn appends must not wedge recovery: a fresh journal over the
        # same directory scans cleanly and owes nothing.
        from .journal import RequestJournal
        with RequestJournal(journal_dir, faults=False) as journal:
            pending = journal.pending()
            checks.note(f"journal after run: pending={len(pending)} "
                        f"torn_lines={journal.torn_lines}")
            checks.check(not pending,
                         f"journal left {len(pending)} pending entries "
                         f"despite every answer being delivered")
    return checks


# ---------------------------------------------------------------------
# Scenario: crash — SIGKILL mid-corpus, restart, journal replay
# ---------------------------------------------------------------------


def _spawn_server(arguments: List[str]) -> Tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` in its own session; returns (proc, port)."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)  # the plan travels via --faults only
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--port", "0"] + arguments,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, start_new_session=True, text=True)
    port = None
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            port = int(line.split("listening on", 1)[1]
                       .split()[0].rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise RuntimeError("server subprocess did not report its port")
    # Keep draining stdout so the server can never block on the pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, port


def _killpg(proc: subprocess.Popen) -> None:
    """SIGKILL the server *and* its worker children (same session)."""
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        proc.kill()
    proc.wait()


def scenario_crash() -> _Checks:
    checks = _Checks("crash")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-crash-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        journal_dir = os.path.join(tmp, "journal")
        corpus = _requests("chaos-crash")
        digests = {name: request.cache_key()
                   for name, request, _ in corpus}

        # -- phase 1: server A, first two jobs finish, four wedge ------
        proc_a, port_a = _spawn_server(
            ["--cache-dir", cache_dir, "--journal-dir", journal_dir,
             "--workers", "2", "--faults",
             "seed=5; worker_hang@serve_worker:match=job#[3-9]:*,s=3600"])
        stuck_threads: List[threading.Thread] = []
        try:
            with ServeClient("127.0.0.1", port_a, timeout=120.0) as client:
                for name, request, expected in corpus[:2]:
                    response = client.solve(request)
                    checks.check(response.status is expected,
                                 f"warm-up {name}: {response.status}")

                def _stuck(request: "api.SolveRequest") -> None:
                    try:
                        with ServeClient("127.0.0.1", port_a,
                                         timeout=300.0) as victim:
                            victim.solve(request)
                    except (ServeError, OSError, ValueError):
                        pass  # the server dies under us — expected

                for _, request, _ in corpus[2:]:
                    thread = threading.Thread(target=_stuck,
                                              args=(request,),
                                              daemon=True)
                    thread.start()
                    stuck_threads.append(thread)

                # All four must be *admitted* (journaled) before the
                # kill: two wedged in workers, two queued behind them.
                deadline = time.monotonic() + 60.0
                pending = -1
                while time.monotonic() < deadline:
                    pending = (client.metrics().get("journal") or {}) \
                        .get("pending", 0)
                    if pending >= 4:
                        break
                    time.sleep(0.1)
                checks.check(pending >= 4,
                             f"only {pending} journaled in-flight "
                             f"entries before the kill")
        finally:
            checks.note(f"SIGKILL server A (pid {proc_a.pid}) "
                        f"with 4 admitted jobs unfinished")
            _killpg(proc_a)
        for thread in stuck_threads:
            thread.join(timeout=10)

        # -- phase 2: server B over the same dirs, no faults -----------
        proc_b, port_b = _spawn_server(
            ["--cache-dir", cache_dir, "--journal-dir", journal_dir,
             "--workers", "2"])
        try:
            with ServeClient("127.0.0.1", port_b, timeout=120.0) as client:
                deadline = time.monotonic() + 120.0
                journal: Dict = {}
                replayed = 0
                while time.monotonic() < deadline:
                    dump = client.metrics()
                    journal = dump.get("journal") or {}
                    counters = (dump.get("metrics") or {}) \
                        .get("counters") or {}
                    replayed = counters.get("serve.journal.replayed", 0)
                    if journal.get("pending", 1) == 0:
                        break
                    time.sleep(0.2)
                checks.note(f"recovery: replayed={replayed} "
                            f"journal={journal}")
                checks.check(journal.get("pending", 1) == 0,
                             f"journal still owes entries: {journal}")
                checks.check(journal.get("poisoned", 0) == 0,
                             f"healthy entries were poisoned: {journal}")
                checks.check(replayed >= 4,
                             f"expected >= 4 journal replays, "
                             f"got {replayed}")
                client.shutdown()
        finally:
            proc_b.wait(timeout=60)

        # -- the claim: zero lost admitted requests --------------------
        entries = _cached_entries(cache_dir)
        for name, _, expected in corpus:
            entry = entries.get(digests[name])
            checks.check(entry is not None,
                         f"{name}: admitted request LOST — no cached "
                         f"answer after recovery")
            if entry is not None:
                checks.check(entry.get("status") == expected.value,
                             f"{name}: recovered {entry.get('status')}, "
                             f"expected {expected.value}")
        _check_all_audited(checks, cache_dir)
    return checks


# ---------------------------------------------------------------------


SCENARIOS = {"hang": scenario_hang, "flaky": scenario_flaky,
             "crash": scenario_crash}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serve-chaos: kill workers, drop connections, "
                    "SIGKILL the server — prove nothing admitted is "
                    "ever lost")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS) + ["all"],
                        default="all")
    args = parser.parse_args(argv)
    names = sorted(SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    failures = 0
    for name in names:
        print(f"=== scenario: {name} ===")
        started = time.monotonic()
        result = SCENARIOS[name]()
        verdict = "OK" if not result.failures else \
            f"{len(result.failures)} check(s) failed"
        print(f"=== scenario {name}: {verdict} "
              f"({time.monotonic() - started:.1f}s) ===")
        failures += len(result.failures)
    if failures:
        print(f"serve-chaos: {failures} check(s) failed")
        return 1
    print("serve-chaos: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
