"""Deterministic, seedable fault injection for the solving stack.

The paper's headline claims rest on trusting thousands of (encoding,
symmetry, solver) runs, and the portfolio/batch layers race worker
processes that can crash, hang, or return garbage.  This module lets us
*inject* exactly those faults on purpose — deterministically, so a chaos
test that failed once fails the same way again — and the audit layer
(:mod:`repro.reliability.audit`) checks that no injected fault ever
turns into a silently wrong answer.

Vocabulary
----------

* A :class:`FaultSpec` names one fault: a *kind* (what goes wrong), a
  *site* (where in the stack it fires), an optional label *match*
  (which strategies / runs it applies to), a firing *probability* and
  an optional cap on how often it fires.
* A :class:`FaultPlan` is an immutable, picklable bundle of specs plus
  a seed.  Plans cross process boundaries: explicitly (handed to
  ``run_portfolio`` / ``run_batch`` / ``SolverConfig.fault_plan``) or
  via the ``REPRO_FAULTS`` environment variable, which worker processes
  inherit — so chaos tests exercise *real* process boundaries.
* A :class:`FaultInjector` is the per-context activation of a plan: it
  draws from a private RNG seeded from ``(plan.seed, label, spec)`` via
  CRC32, so firing decisions are reproducible across processes and
  independent of ``PYTHONHASHSEED``.

Fault kinds
-----------

========== ============================================================
crash       raise :class:`InjectedFault` (solver site) or ``os._exit``
            (worker site) — exercises the died-without-reporting path.
hang        sleep for ``seconds`` (default one hour) *ignoring*
            cooperative cancellation — exercises hard-termination
            backstops.
slowdown    sleep ``seconds`` (default 5 ms) at every conflict
            boundary — budgets and deadlines must still hold.
wrong_model flip one deterministically chosen variable of a returned
            SAT assignment — the audit layer must flag it.
truncated_proof
            drop the tail (including the empty clause) of a recorded
            UNSAT proof — RUP replay must reject it.
corrupt_hint
            drop the last clause ID (the conflict clause) of one
            deterministically chosen hinted step of a recorded UNSAT
            proof — the checker must count a hint miss, fall back to
            full RUP and still accept the (valid) step.
corrupt_input
            flip the sign of one literal of the encoded CNF before
            solving — the answer may silently change; auditing catches
            it end to end.
drop_clause
            delete one deterministically chosen clause of the encoded
            CNF before solving — the canonical *encoding bug* (a
            dropped exclusivity constraint): the formula is weaker, so
            a SAT answer may decode to an improper coloring or an
            UNSAT instance may "solve".  The differential harness
            (:mod:`repro.qa`) must flag it as a disagreement.
worker_hang
            a serve-pool worker stalls inside a job for ``seconds``
            (default one hour), ignoring every cooperative budget —
            the stuck-solve scenario the worker pool's deadline kill
            must end with a SIGKILL (:mod:`repro.serve.server`).
journal_torn_write
            truncate one journal append mid-line and skip its fsync —
            the power-loss torn-tail scenario journal recovery must
            tolerate (:mod:`repro.serve.journal`).
conn_drop
            the server closes a client connection without replying —
            the flaky-network scenario the retrying client must
            survive (resubmission is idempotent by content address).
slow_client
            the client sleeps ``seconds`` (default 50 ms) before each
            send — exercises server read robustness and per-request
            deadlines.
========== ============================================================

Sites: ``solver`` (the CDCL engine),
``encode`` (CNF generation in the pipeline), ``worker`` (a worker
process itself: a portfolio member or a job-scheduler worker),
``serve_worker`` (the solve service's pool worker), ``journal`` (the
serve request journal's appends), ``conn`` (the serve connection
layer, both ends), ``dist_shard`` (a job-scheduler worker of
``run_batch`` / ``run_sharded``, not a portfolio member — the usual
targets are ``crash`` and ``hang``), or ``*`` (everywhere).

``REPRO_FAULTS`` grammar (items separated by ``;``)::

    REPRO_FAULTS="seed=42; crash@worker; wrong_model@solver:match=*s1*,p=0.5"

Each non-``seed`` item is ``kind[@site][:key=value,...]`` with keys
``match`` (fnmatch pattern on the run label), ``p`` / ``probability``,
``max`` / ``max_fires``, and ``s`` / ``seconds``.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass, replace
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

from ..errors import ParseError

#: Recognised fault kinds (see module docstring).
FAULT_KINDS = ("crash", "hang", "slowdown", "wrong_model",
               "truncated_proof", "corrupt_hint", "corrupt_input",
               "drop_clause", "worker_hang", "journal_torn_write",
               "conn_drop", "slow_client")

#: Recognised injection sites.
FAULT_SITES = ("*", "solver", "encode", "worker", "serve_worker",
               "journal", "conn", "dist_shard")

#: Environment variable consulted by the pipeline and the worker
#: processes; its value is a :meth:`FaultPlan.parse` string.
ENV_VAR = "REPRO_FAULTS"

_DEFAULT_HANG_SECONDS = 3600.0
_DEFAULT_SLOWDOWN_SECONDS = 0.005
_DEFAULT_SLOW_CLIENT_SECONDS = 0.05

#: Exit code used by a worker-site ``crash`` fault (``os._exit``), so a
#: chaos test can tell an injected process death from a real one.
CRASH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault at a solver-level site."""

    def __init__(self, kind: str, site: str, label: str = "") -> None:
        self.kind = kind
        self.site = site
        self.label = label
        suffix = f" ({label})" if label else ""
        super().__init__(f"injected {kind} fault at {site}{suffix}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what goes wrong, where, for whom, how often."""

    kind: str
    site: str = "*"
    match: str = "*"
    probability: float = 1.0
    max_fires: Optional[int] = None
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {', '.join(FAULT_KINDS)})")
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(known: {', '.join(FAULT_SITES)})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be positive")
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError("seconds must be positive")

    def applies(self, site: str, label: str) -> bool:
        """Does this spec target ``site`` for a run labelled ``label``?"""
        if self.site != "*" and self.site != site:
            return False
        return self.match == "*" or fnmatch(label, self.match)

    def to_text(self) -> str:
        """The spec in :meth:`FaultPlan.parse` item syntax."""
        text = self.kind
        if self.site != "*":
            text += f"@{self.site}"
        options = []
        if self.match != "*":
            options.append(f"match={self.match}")
        if self.probability != 1.0:
            options.append(f"p={self.probability}")
        if self.max_fires is not None:
            options.append(f"max={self.max_fires}")
        if self.seconds is not None:
            options.append(f"seconds={self.seconds}")
        if options:
            text += ":" + ",".join(options)
        return text

    @classmethod
    def from_text(cls, text: str) -> "FaultSpec":
        """Parse one ``kind[@site][:key=value,...]`` item."""
        head, _, options_text = text.partition(":")
        kind, _, site = head.partition("@")
        kwargs: Dict[str, object] = {}
        if options_text:
            for item in options_text.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or not key:
                    raise ParseError(f"malformed fault option {item!r} "
                                     f"in {text!r}")
                try:
                    if key in ("p", "probability"):
                        kwargs["probability"] = float(value)
                    elif key in ("max", "max_fires"):
                        kwargs["max_fires"] = int(value)
                    elif key in ("s", "seconds"):
                        kwargs["seconds"] = float(value)
                    elif key == "match":
                        kwargs["match"] = value
                    else:
                        raise ParseError(f"unknown fault option {key!r} "
                                         f"in {text!r}")
                except ValueError as error:
                    if isinstance(error, ParseError):
                        raise
                    raise ParseError(f"bad value for fault option "
                                     f"{key!r} in {text!r}: {value!r}") \
                        from None
        try:
            return cls(kind=kind.strip(), site=(site.strip() or "*"),
                       **kwargs)
        except ValueError as error:
            raise ParseError(f"invalid fault spec {text!r}: {error}") \
                from None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of fault specs plus the chaos seed."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @property
    def empty(self) -> bool:
        return not self.specs

    def with_seed(self, seed: int) -> "FaultPlan":
        """This plan reseeded (the CLI ``--chaos-seed`` hook)."""
        return replace(self, seed=seed)

    def merge(self, other: Optional["FaultPlan"]) -> "FaultPlan":
        """Union of specs; this plan's seed wins unless it is 0."""
        if other is None:
            return self
        return FaultPlan(specs=self.specs + other.specs,
                         seed=self.seed or other.seed)

    def narrow(self, label: str, site: Optional[str] = None) -> "FaultPlan":
        """The sub-plan applying to one run label (match patterns are
        resolved against ``label`` and dropped)."""
        kept = tuple(replace(spec, match="*") for spec in self.specs
                     if (spec.match == "*" or fnmatch(label, spec.match))
                     and (site is None or spec.site in ("*", site)))
        return FaultPlan(specs=kept, seed=self.seed)

    def to_text(self) -> str:
        """Round-trippable :meth:`parse` / ``REPRO_FAULTS`` syntax."""
        items = [f"seed={self.seed}"] if self.seed else []
        items.extend(spec.to_text() for spec in self.specs)
        return ";".join(items)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        specs: List[FaultSpec] = []
        seed = 0
        for raw_item in text.replace("\n", ";").split(";"):
            item = raw_item.strip()
            if not item:
                continue
            if item.startswith("seed="):
                try:
                    seed = int(item[len("seed="):])
                except ValueError:
                    raise ParseError(f"bad chaos seed {item!r}") from None
            else:
                specs.append(FaultSpec.from_text(item))
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The plan configured via ``REPRO_FAULTS``, or None."""
        text = (environ if environ is not None else os.environ).get(
            ENV_VAR, "").strip()
        if not text:
            return None
        cached = _ENV_PARSE_CACHE.get(text)
        if cached is None:
            cached = cls.parse(text)
            _ENV_PARSE_CACHE[text] = cached
        return cached

    @staticmethod
    def resolve(explicit=None, environ=None) -> Optional["FaultPlan"]:
        """The active plan for one run.

        ``explicit`` is a :class:`FaultPlan` (used as-is — the caller
        that built it has already folded in whatever it wanted), None
        (use the ``REPRO_FAULTS`` environment plan, if any), or
        ``False`` to disable fault injection entirely — the audit layer
        re-solves with ``faults=False`` so its own probes are never
        faulted.  Each layer resolves exactly once and hands the
        resolved (possibly narrowed) plan down, so environment specs
        are never double-counted.
        """
        if explicit is False:
            return None
        if explicit is None:
            return FaultPlan.from_env(environ)
        return None if explicit.empty else explicit


_ENV_PARSE_CACHE: Dict[str, FaultPlan] = {}


class FaultInjector:
    """Per-context activation of a :class:`FaultPlan`.

    Each context — one solver call, one encode step, one worker process
    — builds its own injector with the sites it owns; firing decisions
    come from a CRC32-seeded private RNG, so they are deterministic
    given ``(plan.seed, label, spec index)`` and reproducible across
    processes.
    """

    def __init__(self, plan: FaultPlan, label: str = "",
                 sites: Tuple[str, ...] = ("*",)) -> None:
        self.plan = plan
        self.label = label
        self.sites = tuple(sites)
        self._fired: Dict[int, int] = {}
        self._rngs: Dict[int, random.Random] = {}
        #: Log of fired faults ("kind@site"), for diagnostics.
        self.log: List[str] = []

    def _rng(self, index: int) -> random.Random:
        rng = self._rngs.get(index)
        if rng is None:
            key = f"{self.plan.seed}|{self.label}|{index}".encode("utf-8")
            rng = random.Random(zlib.crc32(key))
            self._rngs[index] = rng
        return rng

    def _fire(self, kind: str) -> int:
        """Index of the spec of ``kind`` that fires now, or -1."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != kind:
                continue
            if not any(spec.applies(site, self.label)
                       for site in self.sites):
                continue
            count = self._fired.get(index, 0)
            if spec.max_fires is not None and count >= spec.max_fires:
                continue
            if spec.probability < 1.0 \
                    and self._rng(index).random() >= spec.probability:
                continue
            self._fired[index] = count + 1
            self.log.append(f"{kind}@{spec.site}")
            return index
        return -1

    def fire(self, kind: str) -> Optional[FaultSpec]:
        """The spec of ``kind`` firing now (side effect: counts it)."""
        index = self._fire(kind)
        return None if index < 0 else self.plan.specs[index]

    # -- kind-specific helpers, one per injection point ----------------

    def maybe_crash(self) -> None:
        """Raise :class:`InjectedFault` if a ``crash`` fault fires."""
        spec = self.fire("crash")
        if spec is not None:
            raise InjectedFault("crash", spec.site, self.label)

    def maybe_exit(self) -> None:
        """Kill the process (``os._exit``) if a ``crash`` fault fires —
        the worker-site variant: the parent sees a corpse, no report."""
        if self.fire("crash") is not None:
            os._exit(CRASH_EXIT_CODE)

    def maybe_hang(self, sleep=time.sleep) -> bool:
        """Sleep through a ``hang`` fault (ignoring cancellation)."""
        spec = self.fire("hang")
        if spec is None:
            return False
        sleep(spec.seconds if spec.seconds is not None
              else _DEFAULT_HANG_SECONDS)
        return True

    def slowdown_delay(self) -> float:
        """Seconds to sleep at this conflict boundary (0.0 = none)."""
        spec = self.fire("slowdown")
        if spec is None:
            return 0.0
        return (spec.seconds if spec.seconds is not None
                else _DEFAULT_SLOWDOWN_SECONDS)

    def maybe_worker_hang(self, sleep=time.sleep) -> bool:
        """Stall inside a serve-pool job if a ``worker_hang`` fault
        fires (the worker stays alive — the stall is the *job*, which
        is exactly what the pool's deadline kill must catch)."""
        spec = self.fire("worker_hang")
        if spec is None:
            return False
        sleep(spec.seconds if spec.seconds is not None
              else _DEFAULT_HANG_SECONDS)
        return True

    def torn_write(self, data: bytes) -> Optional[bytes]:
        """A torn prefix of one journal append, or None.

        When a ``journal_torn_write`` fault fires the journal writes
        only the returned prefix (roughly half the record, never the
        whole line) and skips the fsync — simulating power loss
        mid-append.  Recovery must treat the torn tail as absent.
        """
        index = self._fire("journal_torn_write")
        if index < 0 or len(data) < 2:
            return None
        return data[:max(1, len(data) // 2)]

    def maybe_conn_drop(self) -> bool:
        """True when a ``conn_drop`` fault fires — the connection layer
        closes the peer's connection without replying."""
        return self.fire("conn_drop") is not None

    def slow_client_delay(self) -> float:
        """Seconds the client sleeps before its next send (0.0 = none)."""
        spec = self.fire("slow_client")
        if spec is None:
            return 0.0
        return (spec.seconds if spec.seconds is not None
                else _DEFAULT_SLOW_CLIENT_SECONDS)

    def wrong_model_var(self, num_vars: int) -> Optional[int]:
        """Variable to bit-flip in a SAT assignment, or None."""
        index = self._fire("wrong_model")
        if index < 0 or num_vars < 1:
            return None
        return self._rng(index).randint(1, num_vars)

    def truncated_proof_length(self, proof_length: int) -> Optional[int]:
        """New length for a recorded proof, or None.  Always drops the
        final (empty-clause) step so RUP replay must notice."""
        index = self._fire("truncated_proof")
        if index < 0 or proof_length < 1:
            return None
        return self._rng(index).randint(0, proof_length - 1) // 2

    def corrupt_hint_pick(self, hinted_steps: int) -> Optional[int]:
        """Which hinted proof step (0-based, counting hinted steps
        only) loses its last hint ID, or None."""
        index = self._fire("corrupt_hint")
        if index < 0 or hinted_steps < 1:
            return None
        return self._rng(index).randrange(hinted_steps)

    def corrupt_cnf(self, cnf) -> Optional[str]:
        """Corrupt the encoded formula in place (encode-site faults).

        Tries ``corrupt_input`` (flip the sign of one literal), then
        ``drop_clause`` (delete one clause — the injected *encoding
        bug*).  Returns a description of the corruption, or None when
        no fault fires (or the formula has nothing to corrupt).  Both
        edit the :class:`~repro.sat.cnf.CNF`'s stored codes in place.
        """
        index = self._fire("corrupt_input")
        if index >= 0:
            clauses = cnf.clauses
            candidates = [i for i, clause in enumerate(clauses) if clause]
            if not candidates:
                return None
            rng = self._rng(index)
            target = candidates[rng.randrange(len(candidates))]
            position = rng.randrange(len(clauses[target]))
            cnf.negate_literal(target, position)
            return (f"corrupt_input: flipped literal {position} of clause "
                    f"{target}")
        return self.drop_cnf_clause(cnf)

    def drop_cnf_clause(self, cnf) -> Optional[str]:
        """Delete one deterministically chosen clause of ``cnf`` in place.

        Prefers multi-literal clauses (conflict/exclusivity constraints)
        over units, so the dropped constraint weakens the formula the
        way a real encoder bug would.
        """
        index = self._fire("drop_clause")
        if index < 0:
            return None
        clauses = cnf.clauses
        candidates = [i for i, clause in enumerate(clauses)
                      if len(clause) >= 2]
        if not candidates:
            candidates = [i for i, clause in enumerate(clauses) if clause]
        if not candidates:
            return None
        target = candidates[self._rng(index).randrange(len(candidates))]
        return (f"drop_clause: removed clause {target} "
                f"{cnf.remove_clause(target)}")
