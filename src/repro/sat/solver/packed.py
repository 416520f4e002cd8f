"""Array-packed variant of the arena CDCL engine.

Selected with ``SolverConfig(engine="packed")``.  Same search, same
clause arena, different *storage*: the per-variable and per-clause state
lives in :mod:`array` typed arrays instead of Python object lists, and
each watch list is a flat ``array('l')`` of interleaved
``(watcher record, blocker literal)`` pairs — the blocker travels inline
with the record, so the hot skip test touches one contiguous buffer
instead of chasing a second list (``_wother``).

Two deliberate differences from the parent engine:

* **Inline, possibly stale blockers.**  The arena engine keeps its
  blocker cache *fresh* (a watch move writes the partner's ``_wother``
  entry — an O(1) side-table update).  With blockers inline in
  per-literal lists the partner's pair lives in some other list at an
  unknown position, so freshness would cost a linear search per watch
  move; instead blockers are allowed to go stale, exactly as in
  MiniSat.  Staleness is *sound* (a blocker is always some literal of
  the clause, so "blocker true" still implies "clause satisfied") but
  it is **not trajectory-neutral**: a stale-but-true blocker skips a
  visit where the fresh-blocker engine would have moved a watch, after
  which the two engines' watch lists — and eventually their decision
  sequences — differ.  The packed engine is therefore deterministic
  (same seed, same search) and always agrees on the *answer*, but its
  decision/conflict counts are its own; its fixtures are pinned
  separately from the arena/legacy pair, which do share a trajectory.
* **Typed-array state.**  ``_values`` is an ``array('b')``, trail /
  reason / level / arena / offsets are ``'l'``/``'i'`` arrays and the
  learnt flags a ``bytearray`` — 1–8 bytes per element instead of an
  8-byte pointer to a boxed object, roughly a 4–8x smaller working set.

This is a *locality experiment*: CPython re-boxes every element it
reads from an ``array``, so the smaller footprint is paid for with an
allocation per access, and on small instances the packed engine is
expected to lose to plain lists.  The point of shipping it behind a
flag is to measure exactly where the crossover sits
(``repro.bench.throughput`` races the three engines) — the FPGA-BCP
line of work (PAPERS.md) says layout, not logic, is the ceiling, and
this is the cheapest software probe of that claim we can run.

Everything above the two overridden methods — analysis, reduction,
inprocessing, decisions, the solve loop — is inherited unchanged from
:class:`~repro.sat.solver.cdcl.CDCLSolver`; typed arrays index and
slice like lists, which is what makes the sharing work.

Clause sharing (``SolverConfig.clause_channel``) is likewise inherited:
the export hook reads conflict-time levels through ``self._level`` and
the restart-time import path goes through *this* class's ``_attach``,
which wires fresh interleaved watch pairs — imported clauses never
interact with the stale-blocker subtlety above, because both their
watches start on unassigned (root-level) literals.  The packed engine
therefore shares clauses with arena peers over the same channel, and
``repro.dist`` treats the two engines as interchangeable portfolio
members.
"""

from __future__ import annotations

import heapq
import random
from array import array
from typing import List, Optional

from ..cnf import CNF
from .cdcl import CDCLSolver, _FALSE, _TRUE, _UNDEF
from .config import SolverConfig


class PackedCDCLSolver(CDCLSolver):
    """The arena engine on typed-array storage (see module docstring)."""

    _engine_site = "packed"

    def __init__(self, cnf: CNF,
                 config: Optional[SolverConfig] = None) -> None:
        # Mirrors CDCLSolver.__init__ with packed containers.  It cannot
        # delegate: the parent would build list-backed state and then
        # _ingest through *our* overrides, which need the arrays.
        self.config = config or SolverConfig()
        self.num_vars = cnf.num_vars
        self._rng = random.Random(self.config.seed)

        n = self.num_vars
        self._values = array("b", bytes(2 * n + 2))
        self._level = array("i", [0]) * (n + 1)
        self._reason = array("l", [-1]) * (n + 1)
        self._trail = array("l")
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._activity: List[float] = [0.0] * (n + 1)
        self._var_inc = 1.0
        self._heap: List = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self._heap)
        if self.config.default_phase == "true":
            self._saved_phase = bytearray([1]) * (n + 1)
        elif self.config.default_phase == "random":
            self._saved_phase = bytearray(
                self._rng.random() < 0.5 for _ in range(n + 1))
        else:
            self._saved_phase = bytearray(n + 1)

        self._arena = array("l")
        self._coff = array("l")
        self._clen = array("i")
        self._learnt = bytearray()
        self._clause_act: List[float] = []
        self._arena_dead = 0
        self._clause_inc = 1.0
        self._num_original = 0
        self._num_learned_live = 0
        # Watch lists: per-literal flat arrays of interleaved
        # (watcher record, blocker) pairs; no _wother side table.
        self._watches = [array("l") for _ in range(2 * n + 2)]
        self._wother: List[int] = []  # unused; parent attribute kept
        self._seen = bytearray(n + 1)
        self._lbd: List[int] = []
        self._used_at: List[int] = []
        self._tier_on = self.config.reduce_policy == "tier"
        self._last_reduce_conflicts = 0
        self._tier_reductions = 0
        self._eliminated = bytearray(n + 1)
        self._inpro = None

        self._ok = True
        self.proof: List[tuple] = []
        self._init_hints(cnf)
        self.stats = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "restarts": 0, "learned_clauses": 0, "deleted_clauses": 0,
            "minimized_literals": 0,
            "watch_inspections": 0, "blocker_hits": 0,
            "arena_compactions": 0,
        }
        self._ingest(cnf)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _attach(self, codes: List[int], learnt: bool, cid: int = -1) -> int:
        ref = len(self._coff)
        self._coff.append(len(self._arena))
        self._clen.append(len(codes))
        self._arena.extend(codes)
        self._learnt.append(1 if learnt else 0)
        self._clause_act.append(0.0)
        self._lbd.append(0)
        self._used_at.append(0)
        self._clause_id.append(cid)
        # Pair layout: record first, blocker (the other watch) second.
        self._watches[codes[0]].extend((2 * ref, codes[1]))
        self._watches[codes[1]].extend((2 * ref + 1, codes[0]))
        if learnt:
            self._num_learned_live += 1
        else:
            self._num_original += 1
        return ref

    def _clause_codes(self, ref: int) -> List[int]:
        off = self._coff[ref]
        return list(self._arena[off:off + self._clen[ref]])

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> int:
        """Packed-layout twin of :meth:`CDCLSolver._propagate`.

        The control flow is the parent's; the differences are mechanical
        (pair-stepped iteration, blocker read from the adjacent slot,
        ``other`` recovered from the normalised arena slots instead of
        the fresh ``_wother`` cache) plus the satisfied-after-deref
        keep path, which the fresh-blocker parent can never reach but a
        stale blocker makes possible (see module docstring).
        """
        values = self._values
        watches = self._watches
        arena = self._arena
        coff = self._coff
        clen = self._clen
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
            count = len(watchers)
            if not count:
                continue
            inspections += count >> 1
            i = 0
            j = 0
            removed = False
            while i < count:
                e = watchers[i]
                blocker = watchers[i + 1]
                i += 2
                if values[blocker] == 1:  # blocker true: satisfied
                    if removed:
                        watchers[j] = e
                        watchers[j + 1] = blocker
                    j += 2
                    continue
                derefs += 1
                ci = e >> 1
                length = clen[ci]
                if length == 0:  # deleted: drop the pair
                    removed = True
                    continue
                off = coff[ci]
                c0 = arena[off]
                other = arena[off + 1] if c0 == false_code else c0
                value = values[other]
                if value == 1:
                    # Stale blocker, satisfied clause: keep the pair
                    # and refresh the blocker in place (MiniSat's
                    # satisfied-after-dereference case).
                    if removed:
                        watchers[j] = e
                        watchers[j + 1] = other
                    else:
                        watchers[i - 1] = other
                    j += 2
                    continue
                if length == 2:
                    arena[off] = other  # normalise slots for _analyze
                    arena[off + 1] = false_code
                elif length == 3:
                    code = arena[off + 2]
                    if values[code] != -1:
                        if c0 == false_code:
                            arena[off] = other
                        arena[off + 1] = code
                        arena[off + 2] = false_code
                        watches[code].extend((e, other))
                        removed = True
                        continue
                    arena[off] = other
                    arena[off + 1] = false_code
                else:
                    if c0 == false_code:
                        arena[off] = other
                        arena[off + 1] = false_code
                    moved = False
                    for k in range(off + 2, off + length):
                        code = arena[k]
                        if values[code] != -1:
                            arena[off + 1] = code
                            arena[k] = false_code
                            watches[code].extend((e, other))
                            moved = True
                            break
                    if moved:
                        removed = True
                        continue
                # Unit or conflict: the pair stays (blocker refreshed).
                if removed:
                    watchers[j] = e
                    watchers[j + 1] = other
                else:
                    watchers[i - 1] = other
                j += 2
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
                # Conflict.  Pairs after this one were pre-counted as
                # inspected but never scanned — undo that, then (only
                # when compacting) shift the rest left and stop.
                inspections -= (count - i) >> 1
                if removed:
                    while i < count:
                        watchers[j] = watchers[i]
                        watchers[j + 1] = watchers[i + 1]
                        i += 2
                        j += 2
                qhead = trail_len
                conflict = ci
                break
            if removed:
                del watchers[j:]
            if conflict != -1:
                break
        self._qhead = qhead
        stats = self.stats
        stats["propagations"] += props
        stats["watch_inspections"] += inspections
        stats["blocker_hits"] += inspections - derefs
        return conflict

    # ------------------------------------------------------------------
    # Arena maintenance
    # ------------------------------------------------------------------

    def _compact_arena(self) -> None:
        arena = self._arena
        coff = self._coff
        clen = self._clen
        compacted = array("l")
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
