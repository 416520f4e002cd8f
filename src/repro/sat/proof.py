"""RUP/DRUP clausal proof checking.

A clausal proof of unsatisfiability is a sequence of clauses ending with
the empty clause, each of which is *RUP* (Reverse Unit Propagation) with
respect to the original formula plus the previously derived clauses:
asserting the negation of all its literals and running unit propagation
yields a conflict.  CDCL learned clauses have this property, so the
sequence a solver learns on the way to UNSAT — which
:class:`~repro.sat.solver.cdcl.CDCLSolver` records when
``config.proof_log`` is set — is exactly such a proof.

This checker is deliberately independent of the solver: it shares no
code with the CDCL implementation beyond the literal convention, so a
solver bug cannot silently certify itself.  For the routing pipeline
this closes the loop on the paper's headline capability: an
"unroutable" verdict comes with a certificate a few hundred lines of
unrelated code can validate.

Hinted replay
-------------

A solver may also hand over LRAT-style *hints* (Cruz-Filipe et al.,
"Efficient Certified RAT Verification", CADE 2017): for a step, the IDs
of the clauses its conflict analysis used.  IDs number the formula's
clauses ``0 .. m-1`` in iteration order and proof step ``j`` as
``m + j``.  A hinted step is checked by assigning its negation on top
of the root trail and propagating over the hint's clauses only — time
linear in the hint instead of a propagation over the whole database.
Hints are untrusted: a hint that does not reach a conflict (an ID out
of range or naming the step itself or a later one, an empty hint, a
wrong or incomplete chain) is a *miss*, and the step falls back to the
full RUP check, so a bad hint can cost time but never gets a step
accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .cnf import CNF
from .literals import clause_to_codes, lit_to_code

Clause = Tuple[int, ...]
#: A proof's hints: ``(ids, starts)``, see :func:`verify_rup_proof`.
Hints = Tuple[Sequence[int], Sequence[int]]

_TRUE = 1
_FALSE = -1
_UNDEF = 0


class ProofError(Exception):
    """Raised when a proof step is not RUP (the proof is invalid)."""


class _Propagator:
    """Incremental two-watched-literal unit propagation over a growing
    clause database, with a permanent (root) trail and temporary
    assumption levels for RUP checks."""

    def __init__(self, num_vars: int) -> None:
        self.num_vars = num_vars
        self._values: List[int] = [_UNDEF] * (2 * num_vars + 2)
        self._watches: List[List[List[int]]] = \
            [[] for _ in range(2 * num_vars + 2)]
        self._trail: List[int] = []
        self._qhead = 0
        self.contradiction = False

    def _assign(self, code: int) -> bool:
        """Assign a literal true; False if it contradicts the assignment."""
        value = self._values[code]
        if value == _TRUE:
            return True
        if value == _FALSE:
            return False
        self._values[code] = _TRUE
        self._values[code ^ 1] = _FALSE
        self._trail.append(code)
        return True

    def add_codes(self, codes: Optional[List[int]]) -> Optional[List[int]]:
        """Add a clause, given as its literal codes (None for a
        tautology, which adds nothing), permanently and propagate at the
        root level.  Returns ``codes``: the form a hint's clause IDs
        resolve to."""
        if codes is not None and not self.contradiction:
            self._add(codes)
        return codes

    def _add(self, codes: List[int]) -> None:
        # Move non-false literals to the watch positions.
        codes.sort(key=lambda c: self._values[c] == _FALSE)
        if not codes or self._values[codes[0]] == _FALSE:
            self.contradiction = True
            return
        if len(codes) == 1 or self._values[codes[1]] == _FALSE:
            if not self._assign(codes[0]):
                self.contradiction = True
                return
            if len(codes) > 1:
                self._watch(codes)
            self._propagate_root()
            return
        self._watch(codes)

    def _watch(self, codes: List[int]) -> None:
        self._watches[codes[0]].append(codes)
        self._watches[codes[1]].append(codes)

    def _propagate_root(self) -> None:
        if self._propagate() is not None:
            self.contradiction = True
        self._qhead = len(self._trail)

    def _propagate(self) -> Optional[List[int]]:
        """Propagate queued assignments; returns a conflicting clause's
        codes, or None."""
        values = self._values
        watches = self._watches
        while self._qhead < len(self._trail):
            propagated = self._trail[self._qhead]
            self._qhead += 1
            false_code = propagated ^ 1
            watchers = watches[false_code]
            i = 0
            j = 0
            count = len(watchers)
            while i < count:
                codes = watchers[i]
                i += 1
                if codes[0] == false_code:
                    codes[0], codes[1] = codes[1], codes[0]
                first = codes[0]
                if values[first] == _TRUE:
                    watchers[j] = codes
                    j += 1
                    continue
                moved = False
                for k in range(2, len(codes)):
                    if values[codes[k]] != _FALSE:
                        codes[1], codes[k] = codes[k], codes[1]
                        watches[codes[1]].append(codes)
                        moved = True
                        break
                if moved:
                    continue
                watchers[j] = codes
                j += 1
                if values[first] == _FALSE:
                    while i < count:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    return codes
                self._assign(first)
            del watchers[j:]
        return None

    def rup_check(self, clause: Sequence[int],
                  hint: Optional[List[List[int]]] = None) -> bool:
        """Is the clause RUP with respect to the current database?

        With ``hint`` (a list of clause code lists) propagation runs
        over those clauses only, and False means just that the hint
        reached no conflict.  Leaves the permanent state untouched."""
        if self.contradiction:
            return True
        mark = len(self._trail)
        saved_qhead = self._qhead
        try:
            for lit in clause:
                code = lit_to_code(lit)
                if self._values[code] == _TRUE:
                    return True  # negation immediately contradictory
                if not self._assign(code ^ 1):
                    return True
            if hint is None:
                return self._propagate() is not None
            return self._propagate_hint(hint)
        finally:
            for code in self._trail[mark:]:
                self._values[code] = _UNDEF
                self._values[code ^ 1] = _UNDEF
            del self._trail[mark:]
            self._qhead = min(saved_qhead, mark)

    def _propagate_hint(self, hint: List[List[int]]) -> bool:
        """Unit-propagate over the hint's clauses alone, in passes over
        the clauses not yet unit, until one is falsified (True) or a
        pass assigns nothing (False).  A hint in propagation order
        finishes in one pass; an ordering slip costs another pass."""
        values = self._values
        trail = self._trail
        while hint:
            assigned = len(trail)
            pending = []
            for codes in hint:
                unit = -1
                for code in codes:
                    value = values[code]
                    if value == _FALSE:
                        continue
                    if value == _TRUE or unit >= 0:
                        break  # satisfied, or two open literals
                    unit = code
                else:
                    if unit < 0:
                        return True  # every literal false: conflict
                    self._assign(unit)
                    continue
                if value != _TRUE:
                    pending.append(codes)
            if len(trail) == assigned:
                return False
            hint = pending
        return False


def _hint_ends(ids: Sequence[int], starts: Sequence[int]) -> List[int]:
    """End offset of each step's hint: the next non-negative start
    after it, or ``len(ids)``."""
    ends = [0] * len(starts)
    end = len(ids)
    for step in range(len(starts) - 1, -1, -1):
        ends[step] = end
        if starts[step] >= 0:
            end = starts[step]
    return ends


def _resolve_hint(clauses: List[Optional[List[int]]],
                  ids: Sequence[int]) -> Optional[List[List[int]]]:
    """The clauses a hint names, or None when the hint is unusable:
    empty, or naming an ID outside the clauses known so far (negative,
    this step, a later step) or a tautology."""
    if not ids:
        return None
    known = len(clauses)
    hint = []
    for cid in ids:
        codes = clauses[cid] if 0 <= cid < known else None
        if codes is None:
            return None
        hint.append(codes)
    return hint


@dataclass(frozen=True)
class ProofCheckResult:
    """Outcome of a proof verification.

    ``ok`` is True iff every step was RUP and the empty clause was
    derived; ``steps`` counts the steps verified before success or
    failure; ``error`` carries the checker's message when ``ok`` is
    False.  ``hinted`` counts the steps verified by their hint alone,
    ``hint_misses`` the steps whose hint reached no conflict and which
    fell back to the full RUP check.
    """

    ok: bool
    steps: int = 0
    error: str = ""
    hinted: int = 0
    hint_misses: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_rup_proof(cnf: CNF, proof: Iterable[Sequence[int]],
                     require_empty_clause: bool = True,
                     hints: Optional[Hints] = None) -> ProofCheckResult:
    """Verify a clausal UNSAT proof against ``cnf``, without raising.

    The audit layer (:mod:`repro.reliability.audit`) treats an invalid
    proof as a *finding*, not an exception, so the outcome is a
    structured :class:`ProofCheckResult`.

    ``hints`` is None (every step gets the full RUP check) or an
    ``(ids, starts)`` pair aligned with ``proof``: step ``j``'s hint is
    ``ids[starts[j]:end]`` with ``end`` the next non-negative start
    after ``j`` (or ``len(ids)``), and ``starts[j] == -1`` marks an
    unhinted step.  See the module docstring for the ID numbering.
    """
    propagator = _Propagator(cnf.num_vars)
    # ID -> literal codes: the formula's clauses, then each step.
    clauses = list(map(propagator.add_codes, cnf.code_clauses()))
    ids, starts = hints if hints is not None else ((), ())
    ends = _hint_ends(ids, starts)
    derived_empty = propagator.contradiction
    steps = hinted = misses = 0

    def failed(error: str) -> ProofCheckResult:
        return ProofCheckResult(ok=False, steps=steps, error=error,
                                hinted=hinted, hint_misses=misses)

    for step, clause in enumerate(proof):
        clause = tuple(clause)
        for lit in clause:
            if lit == 0 or abs(lit) > cnf.num_vars:
                return failed(
                    f"proof step {step} mentions literal {lit}, outside "
                    f"the formula's variables 1..{cnf.num_vars}")
        verified = False
        if step < len(starts) and starts[step] >= 0:
            hint = _resolve_hint(clauses, ids[starts[step]:ends[step]])
            if hint is not None and propagator.rup_check(clause, hint):
                hinted += 1
                verified = True
            else:
                misses += 1
        if not verified and not propagator.rup_check(clause):
            return failed(f"proof step {step} is not RUP: {clause}")
        clauses.append(propagator.add_codes(clause_to_codes(clause)))
        steps += 1
        if not clause or propagator.contradiction:
            derived_empty = True
    if require_empty_clause and not derived_empty:
        return failed("proof does not derive the empty clause")
    return ProofCheckResult(ok=True, steps=steps, hinted=hinted,
                            hint_misses=misses)


def check_rup_proof(cnf: CNF, proof: Iterable[Sequence[int]],
                    require_empty_clause: bool = True,
                    hints: Optional[Hints] = None) -> int:
    """Verify a clausal UNSAT proof against ``cnf``.

    Returns the number of verified steps.  Raises :class:`ProofError` on
    the first step that is not RUP, or (when ``require_empty_clause``) if
    the proof does not derive the empty clause.  ``hints`` is as in
    :func:`verify_rup_proof`.
    """
    result = verify_rup_proof(cnf, proof, require_empty_clause, hints)
    if not result.ok:
        raise ProofError(result.error)
    return result.steps


def solve_with_proof(cnf: CNF, config=None):
    """Solve ``cnf`` with proof logging on; returns (result, proof).

    On UNSAT the proof is a checkable certificate; on SAT it is the
    (valid but uninteresting) list of clauses learned along the way.
    """
    from .solver.cdcl import CDCLSolver
    from .solver.config import SolverConfig
    import dataclasses

    if config is None:
        config = SolverConfig(proof_log=True)
    elif not config.proof_log:
        config = dataclasses.replace(config, proof_log=True)
    solver = CDCLSolver(cnf, config)
    result = solver.solve()
    return result, list(solver.proof)
