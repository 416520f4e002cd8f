"""Inter-restart inprocessing for the CDCL engine.

:mod:`repro.sat.simplify` preprocesses a formula *before* the search;
this module simplifies the solver's live clause database *during* it, at
restart boundaries, where the trail is back at the root level and the
arena can be rewritten safely.  Three classic techniques, each bounded
by a work budget so a pass is a slice of the search rather than a detour:

* **Subsumption / self-subsuming resolution** — delete clauses implied
  by a subset clause; strengthen a clause ``D`` by resolving away one
  literal when a clause ``C`` matches ``D`` except for that literal's
  complement.  Uses occurrence lists plus 64-bit literal signatures as
  a subset prefilter, and loops to a fixpoint (bounded), so a second
  invocation on an unchanged database is a no-op.
* **Vivification** — for a learned clause ``(l1 ... lk)``, assume
  ``¬l1, ¬l2, ...`` in order, propagating after each: a conflict proves
  the assumed prefix is already a clause (shorten to it), an implied
  ``li`` proves the prefix plus ``li`` is one, and a falsified ``li``
  is redundant.  The clause is detached during the probe so it cannot
  propagate itself.
* **Bounded variable elimination (BVE)** — resolve a variable out of
  the formula when the non-tautological resolvents do not outnumber
  the clauses they replace.  The replaced clauses are saved so a model
  of the reduced formula extends back over the eliminated variable
  (:meth:`Inprocessor.extend`), exactly like
  :meth:`repro.sat.simplify.Simplification.extend_model`.

Every derived clause (strengthened, vivified, resolvent, new root unit)
is RUP with respect to the database it was derived from, so when
``config.proof_log`` is set each one is appended to ``solver.proof`` —
the recorded UNSAT proof still replays through the independent checker
in :mod:`repro.sat.proof` (clause *deletions* never invalidate a RUP
proof because the checker only accumulates).

The inprocessor mutates the solver's internal arena through a small
set of its primitives (``_attach``, ``_delete_clause``, ``_enqueue``,
``_propagate``, ``_cancel_until``).  Fault-injection
hooks (site ``inprocess``): ``drop_resolvent`` silently omits one BVE
resolvent and ``skip_occurrence`` deletes one clause as if a stale
occurrence entry had matched — both weaken the formula the way a real
inprocessing bug would, and the audit / differential layers must flag
the consequences (see :mod:`repro.reliability.faults`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import trace as obs_trace

_UNDEF = 0
_TRUE = 1
_FALSE = -1

#: Clauses longer than this stay outside the generic subsumption pass
#: entirely — they are not even indexed, which keeps the per-pass
#: occurrence build proportional to the (stable, mostly-original) short
#: clauses instead of the growing learnt database.  Long learnt clauses
#: are still strengthened, by the binary-resolution phase.
SUBSUME_LEN_CAP = 20

#: Only learned clauses in this length range are vivification candidates.
VIVIFY_MIN_LEN = 3
VIVIFY_LEN_CAP = 16

#: Vivification candidates per pass (the cheapest-first prefix).
VIVIFY_CAP_PER_PASS = 150

#: A variable with more positive or negative occurrences than this is
#: never eliminated (occurrence explosion guard).
BVE_OCC_CAP = 16

#: Resolvents longer than this veto the elimination producing them.
BVE_RESOLVENT_LEN_CAP = 16

#: Subsumption fixpoint rounds per pass (a backstop; the tick budget is
#: the real bound).
_SUBSUME_MAX_ROUNDS = 4

#: Stats counters the inprocessor maintains on ``solver.stats``.
STAT_KEYS = ("inprocess_passes", "subsumed_clauses", "strengthened_clauses",
             "vivified_clauses", "eliminated_vars", "bve_resolvents")


def _dimacs(codes: Sequence[int]) -> Tuple[int, ...]:
    """Literal codes as a DIMACS clause (the proof-log convention)."""
    return tuple(code >> 1 if not code & 1 else -(code >> 1)
                 for code in codes)


class Inprocessor:
    """Inter-restart simplification of one solver's clause database.

    Constructed once per solver (when ``config.inprocessing`` is set)
    and invoked via :meth:`run` at the start of a search and at restart
    boundaries.  The instance owns the eliminated-variable stack, so it
    must live as long as the solver does — model extension on a later
    incremental call still needs it.
    """

    def __init__(self, solver) -> None:
        self.solver = solver
        #: (var, saved clauses containing it) in elimination order.
        self._eliminated_stack: List[Tuple[int, List[List[int]]]] = []
        self._ticks = 0
        self._deadline: Optional[float] = None
        #: Clause refs below this existed at the end of the previous
        #: pass; the per-pass binary-strengthening phase only visits
        #: refs at or above it (the clauses learned since).
        self._seen_refs = 0
        #: Root-trail length after the last full clean — when the trail
        #: has not grown since, the O(arena) clean scan is skipped.
        self._cleaned_at = -1
        #: BVE runs once per solver (its value is front-loaded; later
        #: passes would rebuild a full occurrence index over the grown
        #: learnt DB only to find the occurrence caps block everything).
        self._bve_done = False
        stats = solver.stats
        for key in STAT_KEYS:
            stats.setdefault(key, 0)

    # ------------------------------------------------------------------
    # Budget plumbing
    # ------------------------------------------------------------------

    def _expired(self) -> bool:
        return (self._ticks <= 0
                or (self._deadline is not None
                    and time.perf_counter() >= self._deadline))

    # ------------------------------------------------------------------
    # Clause-database primitives
    # ------------------------------------------------------------------

    def _log(self, codes: Sequence[int]) -> None:
        """Log a derived clause as an unhinted proof step."""
        if self.solver.config.proof_log:
            self.solver.proof.append(_dimacs(codes))
            self.solver.hint_starts.append(-1)

    def _attach_derived(self, codes: Sequence[int], learnt: bool = False,
                        act: float = 0.0, lbd: int = 0) -> int:
        """Add a *derived* clause (logged to the proof when recording).

        Literals already decided at the root are resolved away here, so
        the watch invariants hold for whatever is attached.  Returns
        the new clause ref, or -1 when nothing was attached (clause
        satisfied at root, collapsed to a unit, or refuted — the last
        clears ``solver._ok``).
        """
        solver = self.solver
        values = solver._values
        kept: List[int] = []
        for code in codes:
            value = values[code]
            if value == _TRUE:
                return -1  # satisfied at root: nothing to add
            if value == _UNDEF:
                kept.append(code)
        self._log(kept)
        if not kept:
            solver._ok = False
            return -1
        if len(kept) == 1:
            solver._enqueue(kept[0], -1)
            return -1
        ref = solver._attach(list(kept), learnt=learnt)
        solver._clause_act[ref] = act
        solver._lbd[ref] = min(lbd, len(kept)) if lbd else 0
        return ref

    def _replace(self, ref: int, codes: Sequence[int]) -> int:
        """Swap clause ``ref`` for the (strengthened) ``codes``."""
        solver = self.solver
        learnt = bool(solver._learnt[ref])
        act = solver._clause_act[ref]
        lbd = solver._lbd[ref]
        solver._delete_clause(ref)
        return self._attach_derived(codes, learnt=learnt, act=act, lbd=lbd)

    def _codes(self, ref: int) -> List[int]:
        solver = self.solver
        off = solver._coff[ref]
        return list(solver._arena[off:off + solver._clen[ref]])

    def _root_propagate(self) -> bool:
        """Propagate pending root units; False on a root conflict.

        Root-implied variables keep no reason pointers (analysis never
        dereferences level-0 reasons), which frees every clause for
        deletion or rebuilding during the pass.
        """
        solver = self.solver
        if solver._propagate() != -1:
            solver._ok = False
            return False
        reason = solver._reason
        for code in solver._trail:
            reason[code >> 1] = -1
        return True

    # ------------------------------------------------------------------
    # The pass
    # ------------------------------------------------------------------

    def run(self, frozen: Set[int] = frozenset(),
            deadline: Optional[float] = None) -> None:
        """One inprocessing pass at the root level.

        ``frozen`` variables (the current call's assumptions) are never
        eliminated.  ``deadline`` is the solve call's wall-clock limit;
        it is checked between phases and candidates, and the per-pass
        tick budget (``config.inprocess_ticks``) bounds the occurrence
        work, so a pass cannot overrun the caller's budgets by more
        than one bounded step.
        """
        solver = self.solver
        if solver._trail_lim:
            raise RuntimeError("inprocessing requires the root level")
        if not solver._ok:
            return
        config = solver.config
        self._ticks = config.inprocess_ticks
        self._deadline = deadline
        if not self._root_propagate():
            return
        self._clean()
        if solver._ok and config.inprocess_subsume:
            self._subsume()
        if solver._ok and config.inprocess_vivify and not self._expired():
            self._vivify()
        if solver._ok and config.inprocess_bve and not self._bve_done \
                and not self._expired():
            self._bve(frozen)
            self._bve_done = True
        if solver._ok:
            self._root_propagate()
        self._seen_refs = len(solver._clen)
        solver.stats["inprocess_passes"] += 1

    # ------------------------------------------------------------------
    # Phase 0: root-level clean-up
    # ------------------------------------------------------------------

    def _clean(self) -> None:
        """Drop root-satisfied clauses, strip root-falsified literals.

        Skipped entirely when no new root assignment has appeared since
        the previous clean: conflict analysis never puts root-assigned
        variables into learnt clauses and :meth:`_attach_derived`
        filters them at attach time, so without new root facts there is
        nothing for the scan to find.
        """
        solver = self.solver
        if len(solver._trail) == self._cleaned_at:
            return
        values = solver._values
        clen = solver._clen
        coff = solver._coff
        arena = solver._arena
        for ref in range(len(clen)):
            length = clen[ref]
            if length == 0:
                continue
            off = coff[ref]
            codes = arena[off:off + length]
            satisfied = False
            falsified = 0
            for code in codes:
                value = values[code]
                if value == _TRUE:
                    satisfied = True
                    break
                if value == _FALSE:
                    falsified += 1
            if satisfied:
                solver._delete_clause(ref)
                continue
            if not falsified:
                continue
            kept = [code for code in codes if values[code] == _UNDEF]
            if (len(kept) >= 2 and values[codes[0]] == _UNDEF
                    and values[codes[1]] == _UNDEF):
                # Watched slots survive: shrink in place (watcher
                # records and blockers all stay valid).
                for position, code in enumerate(kept):
                    arena[off + position] = code
                clen[ref] = len(kept)
                solver._clause_id[ref] = -1  # no longer the ID's clause
                solver._arena_dead += length - len(kept)
                self._log(kept)
            else:
                self._replace(ref, kept)
                if not solver._ok:
                    return
        self._root_propagate()
        self._cleaned_at = len(solver._trail)

    # ------------------------------------------------------------------
    # Phase 1: subsumption + self-subsuming resolution
    # ------------------------------------------------------------------

    def _occurrence_index(self, max_len: Optional[int] = None):
        """Occurrence lists and 64-bit signatures over live clauses.

        With ``max_len`` set, longer clauses are skipped without
        touching their literals — subsumption indexes only the short
        clauses it can act on, while BVE (which must see *every*
        occurrence of a variable to eliminate it soundly) indexes all.
        """
        solver = self.solver
        clen = solver._clen
        coff = solver._coff
        arena = solver._arena
        occ: Dict[int, List[int]] = {}
        sigs = [0] * len(clen)
        visited = 0
        for ref in range(len(clen)):
            length = clen[ref]
            if length == 0 or (max_len is not None and length > max_len):
                continue
            off = coff[ref]
            sig = 0
            for code in arena[off:off + length]:
                occ.setdefault(code, []).append(ref)
                sig |= 1 << (code & 63)
            sigs[ref] = sig
            visited += length
        self._ticks -= visited
        return occ, sigs

    def _strengthen(self, ref: int, remove: int, occ, sigs) -> None:
        """Remove literal ``remove`` from clause ``ref`` (sound: the
        caller established it via self-subsuming resolution)."""
        solver = self.solver
        clen = solver._clen
        coff = solver._coff
        arena = solver._arena
        length = clen[ref]
        off = coff[ref]
        position = arena.index(remove, off, off + length) - off
        if position >= 2:
            # Not a watched slot: swap with the last literal and shrink.
            arena[off + position] = arena[off + length - 1]
            clen[ref] = length - 1
            solver._clause_id[ref] = -1  # no longer the ID's clause
            solver._arena_dead += 1
            codes = arena[off:off + length - 1]
            sig = 0
            for code in codes:
                sig |= 1 << (code & 63)
            sigs[ref] = sig
            self._log(codes)
        else:
            codes = [code for code in self._codes(ref) if code != remove]
            new = self._replace(ref, codes)
            sigs[ref] = 0
            if new >= 0:
                sig = 0
                for code in codes:
                    occ.setdefault(code, []).append(new)
                    sig |= 1 << (code & 63)
                while len(sigs) <= new:
                    sigs.append(0)
                sigs[new] = sig
        solver.stats["strengthened_clauses"] += 1

    def _subsume(self) -> None:
        solver = self.solver
        stats = solver.stats
        clen = solver._clen
        injector = getattr(solver, "_injector", None)
        with obs_trace.span("inprocess.subsume") as span:
            strengthened_before = stats["strengthened_clauses"]
            subsumed = 0
            rounds = 0
            # The full fixpoint runs once, on the first pass: the short
            # clauses it scans are almost entirely originals, so later
            # passes would redo the same O(short DB) scan to find
            # nothing (the clauses are already at fixpoint and new
            # learnt clauses are rarely short).  Clauses added later
            # are still strengthened — by the per-pass binary phase.
            changed = self._seen_refs == 0
            while changed and rounds < _SUBSUME_MAX_ROUNDS \
                    and not self._expired():
                changed = False
                rounds += 1
                occ, sigs = self._occurrence_index(SUBSUME_LEN_CAP)
                order = sorted(
                    (ref for ref in range(len(clen)) if clen[ref]),
                    key=clen.__getitem__)
                for ref in order:
                    if self._expired():
                        break
                    length = clen[ref]
                    if length == 0 or length > SUBSUME_LEN_CAP:
                        continue
                    codes = self._codes(ref)
                    cset = set(codes)
                    sig = sigs[ref]
                    # Forward subsumption: candidates must contain this
                    # clause's rarest literal.
                    rarest = min(codes, key=lambda c: len(occ.get(c, ())))
                    for other in occ.get(rarest, ()):
                        self._ticks -= 1
                        if other == ref:
                            continue
                        other_len = clen[other]
                        if other_len < length or other_len == 0:
                            continue
                        if sig & ~sigs[other]:
                            continue
                        self._ticks -= other_len
                        is_superset = cset <= set(self._codes(other))
                        if not is_superset and injector is not None \
                                and injector.fire("skip_occurrence") \
                                is not None:
                            # Injected bookkeeping bug: a stale
                            # occurrence entry "matches" a clause it
                            # should not, deleting a live constraint.
                            is_superset = True
                        if is_superset:
                            solver._delete_clause(other)
                            subsumed += 1
                            changed = True
                    # Self-subsuming resolution: strengthen a clause
                    # containing ``¬l`` and the rest of this one.
                    for lit in codes:
                        neg = lit ^ 1
                        rest = cset - {lit}
                        sig_rest = sig & ~(1 << (lit & 63))
                        for other in occ.get(neg, ()):
                            self._ticks -= 1
                            if other == ref:
                                continue
                            other_len = clen[other]
                            if other_len < length or other_len == 0:
                                continue
                            if sig_rest & ~sigs[other]:
                                continue
                            self._ticks -= other_len
                            oset = set(self._codes(other))
                            if neg in oset and rest <= oset - {neg}:
                                self._strengthen(other, neg, occ, sigs)
                                changed = True
                                if not solver._ok:
                                    return
                if not self._root_propagate():
                    return
            if solver._ok and not self._expired():
                self._strengthen_with_binaries()
            stats["subsumed_clauses"] += subsumed
            span.set("subsumed", subsumed)
            span.set("strengthened",
                     stats["strengthened_clauses"] - strengthened_before)
            span.set("rounds", rounds)

    def _strengthen_with_binaries(self) -> None:
        """Self-subsuming resolution against binary clauses only, applied
        to clauses attached since the previous pass.

        This is the phase that reaches the *long* learnt clauses the
        capped generic pass skips: a clause ``D ⊇ {¬a, b}`` resolves
        with a binary ``(a ∨ b)`` to drop ``¬a``.  The binary adjacency
        map is tiny (the live binaries, mostly original edge-conflict
        clauses), each clause needs one dictionary probe per literal,
        and only the new-since-last-pass suffix of the database is
        visited — so the phase stays cheap even as the learnt database
        grows.  Removals chain (dropping one literal can enable the
        next) and each is an ordinary resolution step, so the final
        clause is RUP against the database and is logged as usual.
        """
        solver = self.solver
        clen = solver._clen
        coff = solver._coff
        arena = solver._arena
        binmap: Dict[int, List[int]] = {}
        for ref in range(len(clen)):
            if clen[ref] == 2:
                off = coff[ref]
                first, second = arena[off], arena[off + 1]
                binmap.setdefault(first, []).append(second)
                binmap.setdefault(second, []).append(first)
        self._ticks -= len(clen) - self._seen_refs
        if not binmap:
            return
        empty: Tuple[int, ...] = ()
        for ref in range(self._seen_refs, len(clen)):
            if self._expired():
                break
            length = clen[ref]
            if length < 2:
                continue
            off = coff[ref]
            codes = list(arena[off:off + length])
            cur = set(codes)
            self._ticks -= length
            removed = False
            changed = True
            while changed:
                changed = False
                for code in list(cur):
                    for partner in binmap.get(code ^ 1, empty):
                        self._ticks -= 1
                        if partner != code and partner in cur:
                            cur.discard(code)
                            removed = True
                            changed = True
                            break
            if not removed:
                continue
            kept = [code for code in codes if code in cur]
            new = self._replace(ref, kept)
            solver.stats["strengthened_clauses"] += 1
            if not solver._ok:
                return
            if new >= 0 and clen[new] == 2:
                noff = coff[new]
                first, second = arena[noff], arena[noff + 1]
                binmap.setdefault(first, []).append(second)
                binmap.setdefault(second, []).append(first)
        self._root_propagate()

    # ------------------------------------------------------------------
    # Phase 2: vivification
    # ------------------------------------------------------------------

    def _vivify(self) -> None:
        solver = self.solver
        values = solver._values
        clen = solver._clen
        learnt = solver._learnt
        lbd = solver._lbd
        stats = solver.stats
        with obs_trace.span("inprocess.vivify") as span:
            candidates = [ref for ref in range(len(clen))
                          if learnt[ref]
                          and VIVIFY_MIN_LEN <= clen[ref] <= VIVIFY_LEN_CAP]
            candidates.sort(key=lambda ref: (lbd[ref] or VIVIFY_LEN_CAP,
                                             clen[ref]))
            shortened_count = deleted_count = 0
            for ref in candidates[:VIVIFY_CAP_PER_PASS]:
                if self._expired():
                    break
                if clen[ref] == 0:
                    continue
                codes = [code for code in self._codes(ref)
                         if values[code] != _FALSE]
                if any(values[code] == _TRUE for code in codes):
                    solver._delete_clause(ref)  # root-satisfied
                    continue
                if len(codes) < 2:
                    # Collapsed under root assignments; _replace handles
                    # the unit/empty cases.
                    self._replace(ref, codes)
                    if not solver._ok:
                        return
                    continue
                act = solver._clause_act[ref]
                clause_lbd = lbd[ref]
                # Detach first so the clause cannot propagate itself.
                solver._delete_clause(ref)
                props_before = stats["propagations"]
                kept: List[int] = []
                conflicted = False
                for code in codes:
                    value = values[code]
                    if value == _TRUE:
                        # ¬(prefix) propagated this literal: the prefix
                        # plus it already is a clause.
                        kept.append(code)
                        break
                    if value == _FALSE:
                        continue  # implied false: redundant literal
                    kept.append(code)
                    solver._trail_lim.append(len(solver._trail))
                    solver._enqueue(code ^ 1, -1)
                    if solver._propagate() != -1:
                        conflicted = True
                        break
                solver._cancel_until(0)
                self._ticks -= (stats["propagations"] - props_before
                                + len(codes))
                if conflicted and len(kept) == len(codes):
                    # ¬(whole clause) conflicts: the clause is implied
                    # by the rest of the database — drop it for good.
                    deleted_count += 1
                    continue
                if len(kept) < len(codes):
                    self._attach_derived(kept, learnt=True, act=act,
                                         lbd=clause_lbd)
                    shortened_count += 1
                    stats["vivified_clauses"] += 1
                    if not solver._ok:
                        return
                else:
                    # Unchanged: re-attach verbatim (no proof entry —
                    # it is the same clause).
                    new = solver._attach(list(codes), learnt=True)
                    solver._clause_act[new] = act
                    solver._lbd[new] = clause_lbd
            if not self._root_propagate():
                return
            span.set("shortened", shortened_count)
            span.set("deleted", deleted_count)

    # ------------------------------------------------------------------
    # Phase 3: bounded variable elimination
    # ------------------------------------------------------------------

    def _bve(self, frozen: Set[int]) -> None:
        solver = self.solver
        values = solver._values
        clen = solver._clen
        learnt = solver._learnt
        eliminated = solver._eliminated
        stats = solver.stats
        injector = getattr(solver, "_injector", None)
        with obs_trace.span("inprocess.bve") as span:
            occ, _ = self._occurrence_index()
            eliminated_count = resolvent_count = 0

            def live_refs(code: int) -> List[int]:
                refs = []
                for ref in occ.get(code, ()):
                    self._ticks -= 1
                    if clen[ref] and code in self._codes(ref):
                        refs.append(ref)
                return refs

            order = sorted(
                (var for var in range(1, solver.num_vars + 1)
                 if values[2 * var] == _UNDEF and not eliminated[var]
                 and var not in frozen),
                key=lambda var: (len(occ.get(2 * var, ()))
                                 + len(occ.get(2 * var + 1, ()))))
            for var in order:
                if self._expired():
                    break
                pos_code = 2 * var
                neg_code = pos_code + 1
                if values[pos_code] != _UNDEF:
                    # Root-assigned since the order was computed (a unit
                    # resolvent of an earlier elimination).  The unit
                    # lives on the trail, not in the occurrence lists,
                    # so resolution here would be *incomplete* — it
                    # would miss the unit as a partner and could delete
                    # the clauses that refute the formula.  Propagation
                    # handles this variable's clauses instead.
                    continue
                pos_refs = live_refs(pos_code)
                neg_refs = live_refs(neg_code)
                pos_orig = [ref for ref in pos_refs if not learnt[ref]]
                neg_orig = [ref for ref in neg_refs if not learnt[ref]]
                if len(pos_orig) > BVE_OCC_CAP or len(neg_orig) > BVE_OCC_CAP:
                    continue
                limit = len(pos_orig) + len(neg_orig)
                resolvents: List[List[int]] = []
                bounded = True
                for pref in pos_orig:
                    pos_set = set(self._codes(pref)) - {pos_code}
                    for nref in neg_orig:
                        neg_set = set(self._codes(nref)) - {neg_code}
                        self._ticks -= len(pos_set) + len(neg_set)
                        if any(code ^ 1 in pos_set for code in neg_set):
                            continue  # tautological resolvent
                        merged = sorted(pos_set | neg_set)
                        if len(merged) > BVE_RESOLVENT_LEN_CAP:
                            bounded = False
                            break
                        resolvents.append(merged)
                        if len(resolvents) > limit:
                            bounded = False
                            break
                    if not bounded:
                        break
                if not bounded:
                    continue
                # Commit: save the originals for model extension,
                # delete every clause mentioning the variable, attach
                # the resolvents.
                saved = [self._codes(ref) for ref in pos_orig + neg_orig]
                for ref in pos_refs + neg_refs:
                    solver._delete_clause(ref)
                for resolvent in resolvents:
                    if injector is not None \
                            and injector.fire("drop_resolvent") is not None:
                        continue  # injected bug: resolvent silently lost
                    new = self._attach_derived(resolvent)
                    resolvent_count += 1
                    if not solver._ok:
                        return
                    if new >= 0:
                        for code in resolvent:
                            occ.setdefault(code, []).append(new)
                eliminated[var] = 1
                self._eliminated_stack.append((var, saved))
                eliminated_count += 1
            stats["eliminated_vars"] += eliminated_count
            stats["bve_resolvents"] += resolvent_count
            span.set("eliminated", eliminated_count)
            span.set("resolvents", resolvent_count)
            self._root_propagate()

    # ------------------------------------------------------------------
    # Model extension
    # ------------------------------------------------------------------

    def extend(self, values: List[bool]) -> List[bool]:
        """Extend a model of the reduced formula over eliminated
        variables (latest elimination first, as its saved clauses may
        mention earlier-eliminated variables)."""
        if not self._eliminated_stack:
            return values
        out = list(values)
        for var, saved in reversed(self._eliminated_stack):
            need_true = False
            for clause in saved:
                satisfied = False
                has_positive = False
                for code in clause:
                    cvar = code >> 1
                    if cvar == var:
                        if not code & 1:
                            has_positive = True
                        continue
                    value = out[cvar - 1]
                    if value != bool(code & 1):
                        satisfied = True
                        break
                if has_positive and not satisfied:
                    need_true = True
                    break
            out[var - 1] = need_true
        return out

    @property
    def eliminated_count(self) -> int:
        return len(self._eliminated_stack)
