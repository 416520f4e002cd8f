"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the substrate that stands in for the ``siege_v4`` / ``MiniSat``
binaries used in the paper.  It implements the standard modern CDCL
architecture:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with local (reason-based) clause
  minimisation,
* VSIDS variable activities with phase saving,
* Luby or geometric restarts,
* Glucose-style learned-clause database reduction in three LBD tiers.

Literals are handled internally as *codes* (``2*v`` for ``v``, ``2*v + 1``
for ``-v``), so negation is ``code ^ 1`` and codes index flat arrays.

Clause storage — the flat arena
-------------------------------

BCP dominates CDCL runtime, so the clause database is laid out for the
propagation loop rather than for object-at-a-time convenience:

* **Arena.**  All clause literals live in one flat list
  (``self._arena``); clause *ref* ``i`` owns the slice
  ``arena[_coff[i] : _coff[i] + _clen[i]]``.  Refs are stable for the
  solver's lifetime (headers are append-only), so reason pointers and
  watch lists never need fixing up; deleting a clause just zeroes its
  length, and :meth:`_compact_arena` squeezes the dead literals out once
  they exceed half the arena.
* **Blocker literals.**  Watch lists hold *watcher records*, two per
  clause: record ``e`` belongs to clause ``e >> 1``, its partner is
  ``e ^ 1``, and ``self._wother[e]`` caches the clause's *other*
  watched literal — its blocker.  When the blocker is true at a visit,
  the clause is already satisfied and the loop skips it without
  touching the clause at all — the MiniSat blocker-literal
  optimisation, and the single most common case on real instances
  (``stats["blocker_hits"] / stats["watch_inspections"]``).

  Unlike MiniSat's per-watcher blocker copies, which are allowed to go
  stale when the partner watch moves, the cache here is kept *fresh*:
  a watch move performs one extra write (``_wother[e ^ 1] = new``) so
  the partner record always names the current other watch.  Freshness
  is what makes the skip exact — it fires precisely when the pre-arena
  engine's "first watched literal is true" keep would, so the search
  trajectory is unchanged, and a failed test means the clause is
  genuinely unit, conflicting, deleted, or must move its watch (the
  "satisfied after dereference" case cannot occur).
* **Write-free scanning.**  Each watch list is first walked by a plain
  ``for`` loop (C-level list iteration) that does not write the list
  back while entries are merely skipped or kept; only after the first
  genuine removal (a moved watch or a deleted clause) does an indexed
  compacting scan shift the remaining entries.  Passes without a
  removal — the common case — leave the list object untouched.

The arena is a representation change only: the engine visits clauses in
the same order and picks the same watches as the pre-arena engine it
replaced, so it reproduces that engine's decision/conflict counts —
``tests/fixtures/solver_trajectories.json`` pins them.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from array import array
from typing import Dict, List, Optional

from ...obs import metrics as obs_metrics
from ...obs import trace as obs_trace
from ..cnf import CNF
from ..literals import lit_to_code, var_of
from ..model import Model, SolveResult
from ..status import CancelToken, SolveStatus
from .config import SolverConfig
from .luby import luby

_UNDEF = 0
_TRUE = 1
_FALSE = -1

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class BudgetExceeded(Exception):
    """Raised when a configured conflict/decision budget is exhausted."""


class CDCLSolver:
    """Solve one CNF formula, optionally under assumptions.

    ``solve()`` may be called repeatedly with different assumption sets;
    learned clauses persist across calls (incremental solving).

    Parameters
    ----------
    cnf:
        The formula to solve.
    config:
        Solver parameters; defaults to a MiniSat-like configuration.
    """

    #: Glucose reduction cadence: reduce every
    #: ``base + step * reductions_so_far`` conflicts.  Class-level so
    #: experiments (and tests) can tune it without touching the per-run
    #: :class:`SolverConfig` surface.  (1000, 150) measured ~25% fewer
    #: watch inspections than Glucose's classic (2000, 300) on the
    #: conflict-heavy suite at equal conflict counts.
    _tier_cadence = (1000, 150)
    #: Inclusive LBD bounds of the core and mid tiers (see _reduce_db).
    _tier_core_lbd = 3
    _tier_mid_lbd = 6

    def __init__(self, cnf: CNF, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()
        self.num_vars = cnf.num_vars
        self._rng = random.Random(self.config.seed)

        n = self.num_vars
        # values is indexed by literal code; entry 0/1 are padding.
        self._values: List[int] = [_UNDEF] * (2 * n + 2)
        self._level: List[int] = [0] * (n + 1)
        self._reason: List[int] = [-1] * (n + 1)  # clause ref, -1 = none
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._activity: List[float] = [0.0] * (n + 1)
        self._var_inc = 1.0
        self._heap: List = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self._heap)
        if self.config.default_phase == "true":
            self._saved_phase = [True] * (n + 1)
        elif self.config.default_phase == "random":
            self._saved_phase = [self._rng.random() < 0.5 for _ in range(n + 1)]
        else:
            self._saved_phase = [False] * (n + 1)

        # Flat clause arena (see module docstring): literals of clause
        # ref i are arena[_coff[i] : _coff[i] + _clen[i]]; _clen[i] == 0
        # marks a deleted clause whose literals are dead arena space.
        self._arena: List[int] = []
        self._coff: List[int] = []
        self._clen: List[int] = []
        self._learnt: List[bool] = []
        self._clause_act: List[float] = []
        self._arena_dead = 0
        self._clause_inc = 1.0
        self._num_original = 0
        self._num_learned_live = 0
        self._watches: List[List[int]] = [[] for _ in range(2 * n + 2)]
        # Watcher records: clause ref R owns entries 2*R and 2*R + 1,
        # one per watched literal; entry e caches the clause's *other*
        # watched literal in _wother[e] (its blocker), and e ^ 1 is the
        # partner entry.  See _propagate.
        self._wother: List[int] = []
        self._seen = bytearray(n + 1)
        # Per-clause LBD (conflict-time literal-block distance; 0 for
        # original clauses) and last-used conflict stamp, read by the
        # tiered DB reduction.
        self._lbd: List[int] = []
        self._used_at: List[int] = []
        self._last_reduce_conflicts = 0
        self._tier_reductions = 0

        self._ok = True  # False once root-level unsatisfiability is known
        #: DRUP-style clausal proof: every learned clause in DIMACS
        #: literals, in derivation order, terminated by () on UNSAT.
        #: Populated only when config.proof_log is set.
        self.proof: List[tuple] = []
        self._init_hints(cnf)
        self.stats: Dict[str, float] = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "restarts": 0, "learned_clauses": 0, "deleted_clauses": 0,
            "minimized_literals": 0,
            "watch_inspections": 0, "blocker_hits": 0,
            "arena_compactions": 0,
        }
        self._ingest(cnf)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _init_hints(self, cnf: CNF) -> None:
        """LRAT-style hints beside ``proof`` (checked by
        :func:`repro.sat.proof.verify_rup_proof`), kept flat:
        ``hint_starts[j]`` is where proof step ``j``'s clause IDs begin
        in ``hint_ids`` (they run to the next non-negative start), or
        -1 when the step has no hint.  IDs follow the LRAT numbering:
        input clause ``i`` is ``i`` and proof step ``j`` is ``m + j``
        for ``m`` input clauses; ``_clause_id`` maps a clause ref to its
        ID, -1 for a clause learned without proof logging."""
        self.hint_ids = array("l")
        self.hint_starts = array("l")
        self._clause_id = array("l")
        self._num_input = cnf.num_clauses

    def _ingest(self, cnf: CNF) -> None:
        for index, codes in enumerate(cnf.code_clauses()):
            if not self._ok:
                return
            if codes is None:  # tautology
                continue
            if not codes:
                self._refute()
                return
            if len(codes) == 1:
                value = self._values[codes[0]]
                if value == _FALSE:
                    self._refute()
                elif value == _UNDEF:
                    self._enqueue(codes[0], -1)
            else:
                self._attach(codes, learnt=False, cid=index)
        if self._ok and self._propagate() != -1:
            self._refute()

    def _refute(self) -> None:
        """Root-level unsatisfiability is known: every later call answers
        UNSAT, and the proof ends in the empty clause, written once.  A
        failed assumption is no refutation and writes nothing."""
        self._ok = False
        if self.config.proof_log:
            self.proof.append(())
            self.hint_starts.append(-1)

    def _attach(self, codes: List[int], learnt: bool, cid: int) -> int:
        ref = len(self._coff)
        self._coff.append(len(self._arena))
        self._clen.append(len(codes))
        self._arena.extend(codes)
        self._learnt.append(learnt)
        self._clause_act.append(0.0)
        self._lbd.append(0)
        self._used_at.append(0)
        self._clause_id.append(cid)
        # Watcher records 2*ref and 2*ref + 1, each caching the other
        # watch as its blocker (kept fresh by _propagate on every move).
        self._wother.extend((codes[1], codes[0]))
        self._watches[codes[0]].append(2 * ref)
        self._watches[codes[1]].append(2 * ref + 1)
        if learnt:
            self._num_learned_live += 1
        else:
            self._num_original += 1
        return ref

    # ------------------------------------------------------------------
    # Assignment / trail
    # ------------------------------------------------------------------

    def _enqueue(self, code: int, reason: int) -> None:
        self._values[code] = _TRUE
        self._values[code ^ 1] = _FALSE
        var = code >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(code)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        values = self._values
        saved = self._saved_phase
        heap = self._heap
        activity = self._activity
        reason = self._reason
        heappush = heapq.heappush
        for code in reversed(self._trail[limit:]):
            var = code >> 1
            saved[var] = not (code & 1)
            values[code] = _UNDEF
            values[code ^ 1] = _UNDEF
            reason[var] = -1
            heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> int:
        """Propagate all enqueued assignments.

        Returns the ref of a conflicting clause, or -1 if none.

        This is the solver's hot loop and it is written accordingly:

        * every attribute is localised and the enqueue is inlined;
        * watch entry ``e`` is a *watcher record*: clause ref
          ``e >> 1``, partner record ``e ^ 1``, and cached blocker
          ``_wother[e]`` — the clause's other watched literal, updated
          on the partner record whenever a watch moves, so it is never
          stale.  The skip test ``values[_wother[e]] == 1`` therefore
          fires exactly when the pre-arena engine's "first watched
          literal is true" keep would, and a failed test means the
          clause is genuinely unit, conflicting, deleted, or must move
          its watch — the "satisfied after dereference" case cannot
          occur;
        * each watch list is first walked by a *write-free* ``for``
          scan (C-level list iteration, no index arithmetic) — skips
          and keeps do not rewrite the list.  Only once an entry must
          actually be removed (a moved watch or a deleted clause) does
          an indexed compacting scan take over, locating the removal
          point with ``list.index`` (entries are unique within a list).

        Stats are accumulated in locals and flushed once on exit.
        """
        values = self._values
        watches = self._watches
        arena = self._arena
        coff = self._coff
        clen = self._clen
        wother = self._wother
        trail = self._trail
        level = self._level
        reason = self._reason
        level_num = len(self._trail_lim)
        qhead = self._qhead
        trail_len = len(trail)
        props = 0
        inspections = 0
        derefs = 0
        conflict = -1
        while qhead < trail_len:
            propagated = trail[qhead]
            qhead += 1
            props += 1
            false_code = propagated ^ 1
            watchers = watches[false_code]
            if not watchers:
                continue
            inspections += len(watchers)
            removed_at = -1
            for e in watchers:
                if values[wother[e]] == 1:  # blocker true: satisfied
                    continue
                derefs += 1
                other = wother[e]
                value = values[other]
                # Freshness means `other` IS the clause's other watched
                # literal, so nothing below re-reads it from the arena.
                ci = e >> 1
                length = clen[ci]
                if length == 2:
                    off = coff[ci]
                    arena[off] = other  # normalise slots for _analyze
                    arena[off + 1] = false_code
                elif length == 3:
                    off = coff[ci]
                    code = arena[off + 2]
                    if values[code] != -1:
                        if arena[off] == false_code:
                            arena[off] = other
                        arena[off + 1] = code
                        arena[off + 2] = false_code
                        watches[code].append(e)
                        wother[e ^ 1] = code
                        removed_at = watchers.index(e)
                        break
                    arena[off] = other
                    arena[off + 1] = false_code
                elif length == 0:  # deleted: entry must be dropped
                    removed_at = watchers.index(e)
                    break
                else:
                    off = coff[ci]
                    if arena[off] == false_code:
                        arena[off] = other
                        arena[off + 1] = false_code
                    moved = False
                    for k in range(off + 2, off + length):
                        code = arena[k]
                        if values[code] != -1:
                            arena[off + 1] = code
                            arena[k] = false_code
                            watches[code].append(e)
                            wother[e ^ 1] = code
                            moved = True
                            break
                    if moved:
                        removed_at = watchers.index(e)
                        break
                if value == 0:
                    # Unit: inlined _enqueue.
                    values[other] = 1
                    values[other ^ 1] = -1
                    var = other >> 1
                    level[var] = level_num
                    reason[var] = ci
                    trail.append(other)
                    trail_len += 1
                    continue
                # Conflict; list untouched so far.  Slots after `e` were
                # pre-counted as inspected but never scanned — undo that.
                inspections -= len(watchers) - watchers.index(e) - 1
                qhead = trail_len
                conflict = ci
                break
            if removed_at >= 0:
                # Compacting scan: an entry was removed above, so every
                # kept entry from here on is shifted left by the gap.
                j = removed_at
                i = removed_at + 1
                count = len(watchers)
                while i < count:
                    e = watchers[i]
                    i += 1
                    if values[wother[e]] == 1:  # blocker true: satisfied
                        watchers[j] = e
                        j += 1
                        continue
                    derefs += 1
                    other = wother[e]
                    value = values[other]
                    ci = e >> 1
                    length = clen[ci]
                    if length == 2:
                        off = coff[ci]
                        arena[off] = other
                        arena[off + 1] = false_code
                    elif length == 3:
                        off = coff[ci]
                        code = arena[off + 2]
                        if values[code] != -1:
                            if arena[off] == false_code:
                                arena[off] = other
                            arena[off + 1] = code
                            arena[off + 2] = false_code
                            watches[code].append(e)
                            wother[e ^ 1] = code
                            continue
                        arena[off] = other
                        arena[off + 1] = false_code
                    elif length == 0:
                        continue  # deleted: drop
                    else:
                        off = coff[ci]
                        if arena[off] == false_code:
                            arena[off] = other
                            arena[off + 1] = false_code
                        moved = False
                        for k in range(off + 2, off + length):
                            code = arena[k]
                            if values[code] != -1:
                                arena[off + 1] = code
                                arena[k] = false_code
                                watches[code].append(e)
                                wother[e ^ 1] = code
                                moved = True
                                break
                        if moved:
                            continue
                    watchers[j] = e
                    j += 1
                    if value == 0:
                        values[other] = 1
                        values[other ^ 1] = -1
                        var = other >> 1
                        level[var] = level_num
                        reason[var] = ci
                        trail.append(other)
                        trail_len += 1
                        continue
                    inspections -= count - i  # rest kept unscanned
                    while i < count:  # conflict: keep the rest
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    qhead = trail_len
                    conflict = ci
                    break
                del watchers[j:]
            if conflict != -1:
                break
        self._qhead = qhead
        stats = self.stats
        stats["propagations"] += props
        stats["watch_inspections"] += inspections
        # Every inspected slot either passed the blocker test (hit) or
        # fell through to a clause dereference — hits are the difference,
        # which keeps the hot skip path free of counter updates.
        stats["blocker_hits"] += inspections - derefs
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _RESCALE_LIMIT:
            self._rescale_activities()
        if self._values[2 * var] == _UNDEF:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _rescale_activities(self) -> None:
        for var in range(1, self.num_vars + 1):
            self._activity[var] *= _RESCALE_FACTOR
        self._var_inc *= _RESCALE_FACTOR
        values = self._values
        self._heap = [(-self._activity[v], v) for v in range(1, self.num_vars + 1)
                      if values[2 * v] == _UNDEF]
        heapq.heapify(self._heap)

    def _bump_clause(self, ref: int) -> None:
        self._clause_act[ref] += self._clause_inc
        if self._clause_act[ref] > _RESCALE_LIMIT:
            self._rescale_clause_acts()

    def _rescale_clause_acts(self) -> None:
        clause_act = self._clause_act
        for i in range(len(clause_act)):
            clause_act[i] *= _RESCALE_FACTOR
        self._clause_inc *= _RESCALE_FACTOR

    def _analyze(self, conflict: int,
                 hint: Optional[List[int]] = None) -> (List[int], int):
        """First-UIP analysis.  Returns (learnt clause codes, backtrack level)
        with the asserting literal in position 0.

        With ``hint`` (a list; proof logging only) the refs of the
        clauses the derivation used are appended to it in propagation
        order: the reasons of the minimized literals, then the resolved
        reasons in trail order, the conflict clause last."""
        chain = None if hint is None else []
        learnt: List[int] = [0]
        seen = self._seen
        trail = self._trail
        level = self._level
        reason = self._reason
        arena = self._arena
        coff = self._coff
        clen = self._clen
        learnt_flags = self._learnt
        activity = self._activity
        values = self._values
        heap = self._heap
        heappush = heapq.heappush
        clause_act = self._clause_act
        clause_inc = self._clause_inc
        current_level = len(self._trail_lim)
        # Stamp every learned clause visited during analysis as "used",
        # so the mid tier can keep recently useful clauses through a
        # reduction.
        used_at = self._used_at
        now = self.stats["conflicts"]
        to_clear: List[int] = []
        counter = 0
        p = -1
        index = len(trail) - 1
        clause = conflict
        while True:
            if chain is not None:
                chain.append(clause)
            if learnt_flags[clause]:
                # Inlined _bump_clause.
                act = clause_act[clause] + clause_inc
                clause_act[clause] = act
                if act > _RESCALE_LIMIT:
                    self._rescale_clause_acts()
                    clause_inc = self._clause_inc
                used_at[clause] = now
            off = coff[clause]
            var_inc = self._var_inc
            # Slice, don't index: C-level iteration over the clause's
            # literals beats per-literal index arithmetic.
            for q in arena[off if p == -1 else off + 1:off + clen[clause]]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    # Inlined _bump_var.
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > _RESCALE_LIMIT:
                        self._rescale_activities()
                        var_inc = self._var_inc
                        heap = self._heap
                        act = activity[var]
                    if values[var << 1] == 0:
                        heappush(heap, (-act, var))
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            var = p >> 1
            clause = reason[var]
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter <= 0:
                break
        learnt[0] = p ^ 1

        # Local minimisation: drop a literal whose reason clause is entirely
        # covered by the rest of the learnt clause (or by root assignments).
        if len(learnt) > 2:
            kept = [learnt[0]]
            minimized = 0
            for q in learnt[1:]:
                ref = reason[q >> 1]
                if ref == -1:
                    kept.append(q)
                    continue
                redundant = True
                qvar = q >> 1
                off = coff[ref]
                for code in arena[off:off + clen[ref]]:
                    var = code >> 1
                    if var == qvar:
                        continue
                    if not seen[var] and level[var] > 0:
                        redundant = False
                        break
                if redundant:
                    minimized += 1
                    if hint is not None:
                        hint.append(ref)
                else:
                    kept.append(q)
            learnt = kept
            if minimized:
                self.stats["minimized_literals"] += minimized
        if hint is not None:
            chain.reverse()
            hint.extend(chain)

        for var in to_clear:
            seen[var] = 0

        if len(learnt) == 1:
            return learnt, 0
        # Move a literal from the highest remaining level to position 1.
        best = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[best] >> 1]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[learnt[1] >> 1]

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------

    def _delete_clause(self, ref: int) -> None:
        """Delete learned clause ``ref``: zero its length (its watch-list
        entries drop lazily in _propagate, its literals stay as dead
        arena space until the next compaction)."""
        self._arena_dead += self._clen[ref]
        self._clen[ref] = 0
        self._num_learned_live -= 1
        self.stats["deleted_clauses"] += 1

    def _protected_refs(self) -> set:
        """Refs of clauses currently acting as reason for a trail
        literal.  Deleting one would leave ``_reason`` dangling, so DB
        reduction must skip them *unconditionally* — not via any
        heuristic on watch slots or activities."""
        reason = self._reason
        protected = {reason[code >> 1] for code in self._trail}
        protected.discard(-1)
        return protected

    def _reduce_db(self) -> None:
        """Glucose-style tiers keyed on conflict-time LBD.

        *core* (``lbd <= _tier_core_lbd``) clauses are never deleted;
        *mid* (``lbd <= _tier_mid_lbd``) clauses survive if conflict
        analysis touched them since the previous reduction, else they
        compete with the *local* tier, which is halved worst-first
        (highest LBD, then lowest activity).  Binary clauses and
        current reasons are never deleted.
        """
        protected = self._protected_refs()
        with obs_trace.span("reduce.tier") as span:
            learnt = self._learnt
            clen = self._clen
            lbd = self._lbd
            used_at = self._used_at
            act = self._clause_act
            core = self._tier_core_lbd
            mid = self._tier_mid_lbd
            last = self._last_reduce_conflicts
            pool: List[int] = []
            kept_mid = 0
            for i in range(len(clen)):
                if not learnt[i] or clen[i] <= 2 or i in protected:
                    continue
                d = lbd[i]
                if d <= core:
                    continue
                if d <= mid and used_at[i] > last:
                    kept_mid += 1
                    continue
                pool.append(i)
            pool.sort(key=lambda i: (-lbd[i], act[i]))
            for i in pool[:len(pool) // 2]:
                self._delete_clause(i)
            self._last_reduce_conflicts = self.stats["conflicts"]
            self._tier_reductions += 1
            span.set("deleted", len(pool) // 2)
            span.set("kept_mid", kept_mid)
        # Watch-list entries of deleted clauses are dropped lazily by
        # _propagate; the arena itself is compacted once most of it is dead.
        if self._arena_dead * 2 > len(self._arena):
            self._compact_arena()

    def _compact_arena(self) -> None:
        """Squeeze deleted clauses' literals out of the arena.

        Clause refs are indices into the header lists, not arena
        offsets, so only the offsets change — watch lists and reason
        pointers stay valid untouched.
        """
        arena = self._arena
        coff = self._coff
        clen = self._clen
        compacted: List[int] = []
        for ref in range(len(coff)):
            length = clen[ref]
            if length == 0:
                continue
            off = coff[ref]
            coff[ref] = len(compacted)
            compacted.extend(arena[off:off + length])
        self._arena = compacted
        self._arena_dead = 0
        self.stats["arena_compactions"] += 1

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        values = self._values
        if (self.config.random_decision_freq > 0.0
                and self._rng.random() < self.config.random_decision_freq):
            for _ in range(10):
                var = self._rng.randint(1, self.num_vars)
                if values[2 * var] == _UNDEF:
                    return var
        heap = self._heap
        while heap:
            _, var = heapq.heappop(heap)
            if values[2 * var] == _UNDEF:
                return var
        for var in range(1, self.num_vars + 1):
            if values[2 * var] == _UNDEF:
                return var
        return 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Optional[List[int]] = None,
              cancel: Optional[CancelToken] = None) -> SolveResult:
        """Run the CDCL search and return the result.

        ``assumptions`` is an optional list of DIMACS literals assumed
        true for this call only.  An UNSAT result under assumptions does
        not mean the formula itself is unsatisfiable
        (``stats["assumption_failed"]`` distinguishes the two).

        The search runs to completion unless bounded: soft budgets on
        the config (``conflict_budget``, ``propagation_budget``,
        ``wall_clock_limit``) and the cooperative ``cancel`` token are
        checked on conflict boundaries (the wall clock and token also on
        decision boundaries), ending the call with a
        TIMEOUT / BUDGET_EXHAUSTED status and valid partial stats
        instead of an exception.  With no budget and no token the search
        trajectory is bit-identical to an unbounded run.  The solver
        stays usable after a bounded stop — a later call resumes from
        the root with everything learned so far.
        """
        start = time.perf_counter()
        # Chaos hook: with a fault plan active (config.fault_plan or the
        # REPRO_FAULTS environment variable) build the injector for this
        # call; `None` on the normal path keeps the loop untouched.
        injector = self._injector = self._fault_injector()
        if injector is not None:
            injector.maybe_hang()
            injector.maybe_crash()
        self._props_at_start = self.stats["propagations"]
        self._cancel_until(0)  # fresh call on a reused solver
        self.stats.pop("assumption_failed", None)
        self.stats.pop("stop_reason", None)
        assumed = []
        for lit in (assumptions or []):
            var = var_of(lit)
            if not 1 <= var <= self.num_vars:
                raise ValueError(f"assumption {lit} outside variables "
                                 f"1..{self.num_vars}")
            assumed.append(lit_to_code(lit))
        if not self._ok:
            return self._finish(SolveStatus.UNSAT, start)
        if self.num_vars == 0:
            return self._finish(SolveStatus.SAT, start)

        config = self.config
        # Soft budgets: per-call counters, checked only at conflict and
        # decision boundaries so the hot BCP loop stays untouched.  With
        # no budget and no cancel token `bounded` is False and the main
        # loop below is exactly the unbudgeted one.
        conflict_budget = config.conflict_budget
        propagation_budget = config.propagation_budget
        deadline = (None if config.wall_clock_limit is None
                    else start + config.wall_clock_limit)
        conflicts_before = self.stats["conflicts"]
        bounded = (conflict_budget is not None
                   or propagation_budget is not None
                   or deadline is not None or cancel is not None)
        restart_index = 1
        if config.restart_policy == "luby":
            restart_limit = luby(restart_index) * config.restart_base
        else:
            restart_limit = config.restart_base
        conflicts_since_restart = 0
        timing = config.phase_timing
        if timing:
            for key in ("time_propagate", "time_analyze", "time_reduce"):
                self.stats.setdefault(key, 0.0)
        cadence_base, cadence_step = self._tier_cadence
        max_learnts = max(100.0, config.max_learnts_factor * max(1, self._num_original))

        while True:
            if timing:
                t0 = time.perf_counter()
                conflict = self._propagate()
                self.stats["time_propagate"] += time.perf_counter() - t0
            else:
                conflict = self._propagate()
            if conflict != -1:
                self.stats["conflicts"] += 1
                conflicts_since_restart += 1
                if injector is not None:
                    delay = injector.slowdown_delay()
                    if delay > 0.0:
                        time.sleep(delay)
                if bounded:
                    stop = self._budget_stop(
                        cancel, deadline, conflict_budget,
                        propagation_budget, conflicts_before)
                    if stop is not None:
                        return self._finish(stop, start)
                if config.max_conflicts is not None \
                        and self.stats["conflicts"] > config.max_conflicts:
                    raise BudgetExceeded(
                        f"conflict budget {config.max_conflicts} exhausted")
                if not self._trail_lim:
                    # A root-level conflict refutes the formula itself:
                    # later calls must not search again from a trail
                    # whose conflict is already propagated past.
                    self._refute()
                    return self._finish(SolveStatus.UNSAT, start)
                hint = [] if config.proof_log else None
                if timing:
                    t0 = time.perf_counter()
                    learnt, back_level = self._analyze(conflict, hint)
                    self.stats["time_analyze"] += time.perf_counter() - t0
                else:
                    learnt, back_level = self._analyze(conflict, hint)
                cid = -1 if hint is None else self._log_learnt(learnt, hint)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ref = self._attach(learnt, learnt=True, cid=cid)
                    # Conflict-time LBD: _cancel_until never rewrites
                    # _level entries, so the levels read here are the
                    # pre-backtrack ones.
                    level = self._level
                    self._lbd[ref] = len({level[q >> 1] for q in learnt})
                    self._bump_clause(ref)
                    self._enqueue(learnt[0], ref)
                self.stats["learned_clauses"] += 1
                self._var_inc /= config.var_decay
                self._clause_inc /= config.clause_decay
            else:
                if bounded:
                    # Decision boundary: only the externally imposed
                    # bounds (deadline, cancellation) are re-checked, so
                    # conflict-free stretches cannot overrun them.
                    if cancel is not None and cancel.cancelled:
                        self.stats["stop_reason"] = "cancelled"
                        return self._finish(SolveStatus.TIMEOUT, start)
                    if deadline is not None \
                            and time.perf_counter() >= deadline:
                        self.stats["stop_reason"] = "wall-clock limit"
                        return self._finish(SolveStatus.TIMEOUT, start)
                if conflicts_since_restart >= restart_limit:
                    self.stats["restarts"] += 1
                    conflicts_since_restart = 0
                    restart_index += 1
                    if config.restart_policy == "luby":
                        restart_limit = luby(restart_index) * config.restart_base
                    else:
                        restart_limit *= config.restart_factor
                    max_learnts *= config.max_learnts_growth
                    self._cancel_until(0)
                    continue
                # The MiniSat size trigger, plus the Glucose cadence:
                # reduce every base + step·k conflicts regardless of DB
                # size.  On conflict-heavy instances the size trigger
                # alone can simply never fire, leaving propagation to
                # wade through an ever-growing learned DB.
                if (self._num_learned_live - len(self._trail) > max_learnts
                        or self.stats["conflicts"]
                        - self._last_reduce_conflicts
                        >= cadence_base
                        + cadence_step * self._tier_reductions):
                    if timing:
                        t0 = time.perf_counter()
                        self._reduce_db()
                        self.stats["time_reduce"] += \
                            time.perf_counter() - t0
                    else:
                        self._reduce_db()
                # Assumptions are consumed as pseudo-decisions, one level
                # each, before any free decision (MiniSat style).
                code = 0
                while len(self._trail_lim) < len(assumed):
                    assumption = assumed[len(self._trail_lim)]
                    value = self._values[assumption]
                    if value == _TRUE:
                        self._trail_lim.append(len(self._trail))
                        continue
                    if value == _FALSE:
                        self.stats["assumption_failed"] = 1
                        return self._finish(SolveStatus.UNSAT, start)
                    code = assumption
                    break
                if code == 0:
                    var = self._pick_branch_var()
                    if var == 0:
                        return self._finish(SolveStatus.SAT, start)
                    self.stats["decisions"] += 1
                    if config.max_decisions is not None \
                            and self.stats["decisions"] > config.max_decisions:
                        raise BudgetExceeded(
                            f"decision budget {config.max_decisions} "
                            f"exhausted")
                    code = 2 * var if self._saved_phase[var] else 2 * var + 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(code, -1)

    def _log_learnt(self, learnt: List[int], refs: List[int]) -> int:
        """Append a learned clause to the proof, hinted with the IDs of
        ``refs`` unless one of them has none; returns the step's ID."""
        ids = [self._clause_id[ref] for ref in refs]
        if -1 in ids:
            self.hint_starts.append(-1)
        else:
            self.hint_starts.append(len(self.hint_ids))
            self.hint_ids.extend(ids)
        self.proof.append(tuple(code >> 1 if not code & 1 else -(code >> 1)
                                for code in learnt))
        return self._num_input + len(self.proof) - 1

    def _truncate_proof(self, length: int) -> None:
        """Cut the proof, and its hints, to its first ``length`` steps."""
        cut = [start for start in self.hint_starts[length:] if start >= 0]
        if cut:
            del self.hint_ids[cut[0]:]
        del self.hint_starts[length:]
        del self.proof[length:]

    def _corrupt_hint(self, pick: int) -> None:
        """Drop the last ID (the conflict clause) of hinted step number
        ``pick`` (counting hinted steps only): the ``corrupt_hint``
        fault."""
        starts = self.hint_starts
        step = [j for j, start in enumerate(starts) if start >= 0][pick]
        later = [j for j in range(step + 1, len(starts)) if starts[j] >= 0]
        end = starts[later[0]] if later else len(self.hint_ids)
        del self.hint_ids[end - 1]
        for j in later:
            starts[j] -= 1

    def _budget_stop(self, cancel, deadline, conflict_budget,
                     propagation_budget, conflicts_before):
        """Status to stop with at a conflict boundary, or None to go on.

        Conflict/propagation budgets are per-call: counted against the
        stats at the start of this ``solve()`` call, so an incremental
        solver gets a fresh budget for every query.
        """
        if cancel is not None and cancel.cancelled:
            self.stats["stop_reason"] = "cancelled"
            return SolveStatus.TIMEOUT
        if deadline is not None and time.perf_counter() >= deadline:
            self.stats["stop_reason"] = "wall-clock limit"
            return SolveStatus.TIMEOUT
        if conflict_budget is not None and \
                self.stats["conflicts"] - conflicts_before >= conflict_budget:
            self.stats["stop_reason"] = \
                f"conflict budget {conflict_budget}"
            return SolveStatus.BUDGET_EXHAUSTED
        if propagation_budget is not None and \
                self.stats["propagations"] - self._props_at_start \
                >= propagation_budget:
            self.stats["stop_reason"] = \
                f"propagation budget {propagation_budget}"
            return SolveStatus.BUDGET_EXHAUSTED
        return None

    def _fault_injector(self):
        """The fault injector for this call, or None (the normal path).

        Resolution is lazy and guarded so that without a configured plan
        (explicitly or via ``REPRO_FAULTS``) no reliability module is
        even imported.
        """
        plan = self.config.fault_plan
        if plan is False:
            return None
        if plan is None and not os.environ.get("REPRO_FAULTS"):
            return None
        from ...reliability.faults import FaultInjector, FaultPlan
        resolved = FaultPlan.resolve(plan)
        if resolved is None or resolved.empty:
            return None
        return FaultInjector(resolved, label=self.config.name,
                             sites=("solver",))

    def _observe(self, status: SolveStatus, elapsed: float) -> None:
        """Report this call to the observability layer (metrics absorb
        + a span event), strictly outside the search loop.  One boolean
        check each on the disabled path; trajectories are untouched
        either way because nothing here feeds back into the search.
        """
        if obs_metrics.enabled():
            # Stats are cumulative across calls on a reused solver, so
            # the absorb is delta-based via the returned marker.
            self._obs_prev = obs_metrics.absorb_solver_stats(
                self.stats, engine="arena",
                prev=getattr(self, "_obs_prev", None))
        if obs_trace.enabled():
            obs_trace.event(
                "solver.finish", status=str(status),
                engine="arena", solver=self.config.name,
                conflicts=int(self.stats["conflicts"]),
                decisions=int(self.stats["decisions"]),
                propagations=int(self.stats["propagations"]),
                solve_time=round(elapsed, 6))
            injector = getattr(self, "_injector", None)
            if injector is not None and injector.log:
                obs_trace.event("fault.injected",
                                site="solver",
                                faults=",".join(injector.log))

    def _finish(self, status: SolveStatus, start: float) -> SolveResult:
        elapsed = time.perf_counter() - start
        self.stats["solve_time"] = elapsed
        props = self.stats["propagations"] - getattr(self, "_props_at_start", 0)
        self.stats["props_per_sec"] = props / elapsed if elapsed > 0 else 0.0
        self.stats["solver"] = self.config.name
        injector = getattr(self, "_injector", None)
        if status is not SolveStatus.SAT:
            if not self._ok and self.config.proof_log:
                if injector is not None:
                    cut = injector.truncated_proof_length(len(self.proof))
                    if cut is not None:
                        self._truncate_proof(cut)
                    hinted = sum(1 for start in self.hint_starts
                                 if start >= 0)
                    pick = injector.corrupt_hint_pick(hinted)
                    if pick is not None:
                        self._corrupt_hint(pick)
            if injector is not None and injector.log:
                self.stats["injected_faults"] = ",".join(injector.log)
            self._observe(status, elapsed)
            return SolveResult(status, stats=self.stats)
        values = [self._values[2 * v] == _TRUE for v in range(1, self.num_vars + 1)]
        if injector is not None:
            flip = injector.wrong_model_var(self.num_vars)
            if flip is not None:
                values[flip - 1] = not values[flip - 1]
            if injector.log:
                self.stats["injected_faults"] = ",".join(injector.log)
        # Observe after fault application so an injected wrong_model /
        # truncated_proof shows up in the fault.injected event.
        self._observe(status, elapsed)
        return SolveResult(SolveStatus.SAT, Model(values), stats=self.stats)


def solve(cnf: CNF, config: Optional[SolverConfig] = None) -> SolveResult:
    """Convenience wrapper: solve ``cnf`` with a fresh :class:`CDCLSolver`."""
    return CDCLSolver(cnf, config).solve()
