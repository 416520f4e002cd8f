"""Reusable at-most-one clause builders (Zhou's AMK survey).

The paper's direct encoding pays the pairwise quadratic price for its
at-most-one constraint; modern SAT practice offers a family of
auxiliary-variable alternatives with linear (or near-linear) clause
counts.  This module is the registry's cardinality toolbox:

* **pairwise** — the textbook O(n²) binomial encoding, no auxiliaries;
* **sequential** (Sinz 2005) — the n-1-variable ladder, 3n-4 clauses;
* **commander** (Klieber & Kwon 2007) — recursive group commanders with
  a configurable group size;
* **bimander** (Hölldobler & Nguyen 2013) — pairwise groups crossed
  with a binary group index;
* **product** (Chen 2010) — a 2-D grid of row/column selectors.

Every builder emits plain clauses over local literals, so the output
flows through :class:`~.base.EncodedProblem` (and from there into the
solvers and the DRUP proof logger) exactly like any hand-written
structural clause — there is no special clause kind to account for.
Auxiliary variables come from an :class:`AuxAllocator`, which *enforces*
freshness: handing out an index twice, or an index that collides with a
value variable, raises immediately instead of silently merging two
constraint groups (the classic aux-reuse bug this layer is tested
against).

The size formulas next to each builder are asserted literally by
``tests/test_cardinality.py``, which also checks every builder by
exhaustive enumeration: on small n the satisfying assignments, projected
onto the value variables, are exactly the ≤1-true vectors.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..patterns import LocalClause
from .base import LevelScheme


class DuplicateAuxVarError(ValueError):
    """An encoding tried to reuse a variable index as an auxiliary."""


class AuxAllocator:
    """Hands out fresh auxiliary variable indices for one constraint block.

    ``first_free`` is the first index available for auxiliaries (one past
    the value variables); ``reserved`` is the set of indices that must
    never be handed out (the value variables themselves).  Allocation is
    strictly increasing, so two builders sharing one allocator can never
    collide — and a builder handed a *misconfigured* allocator (one whose
    range overlaps the reserved block) fails loudly instead of producing
    a subtly wrong CNF.
    """

    def __init__(self, first_free: int, *,
                 reserved: Sequence[int] = ()) -> None:
        if first_free < 1:
            raise ValueError("variable indices are 1-based")
        self._next = first_free
        self._reserved = frozenset(reserved)
        self._count = 0

    def fresh(self) -> int:
        """Allocate one fresh auxiliary variable index."""
        var = self._next
        if var in self._reserved:
            raise DuplicateAuxVarError(
                f"auxiliary variable {var} collides with a reserved "
                f"(value) variable — constraint groups would overlap")
        self._next = var + 1
        self._count += 1
        return var

    def fresh_block(self, count: int) -> List[int]:
        """Allocate ``count`` consecutive fresh auxiliaries."""
        return [self.fresh() for _ in range(count)]

    @property
    def count(self) -> int:
        """How many auxiliaries have been allocated so far."""
        return self._count

    @property
    def next_free(self) -> int:
        return self._next


# ---------------------------------------------------------------------------
# At-most-one builders.  Each takes the value *literals* (usually the
# positive value variables) and returns the clause list; builders that
# need auxiliaries take the shared allocator.
# ---------------------------------------------------------------------------

def amo_pairwise(lits: Sequence[int]) -> List[LocalClause]:
    """Binomial at-most-one: ¬x_i ∨ ¬x_j for every pair.

    0 auxiliaries, n(n-1)/2 clauses.
    """
    clauses: List[LocalClause] = []
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            clauses.append((-lits[i], -lits[j]))
    return clauses


def amo_sequential(lits: Sequence[int],
                   alloc: AuxAllocator) -> List[LocalClause]:
    """Sinz's sequential (ladder) at-most-one.

    Ladder variable ``s_i`` reads "some x_{≤i} is selected"; clauses
    x_i → s_i, s_{i-1} → s_i, x_i → ¬s_{i-1}.  For n ≥ 3: n-1
    auxiliaries and 3n-4 clauses; degenerates to pairwise below that.
    """
    n = len(lits)
    if n <= 1:
        return []
    if n == 2:
        return amo_pairwise(lits)
    ladder = alloc.fresh_block(n - 1)
    clauses: List[LocalClause] = [(-lits[0], ladder[0])]
    for i in range(1, n - 1):
        clauses.append((-lits[i], ladder[i]))
        clauses.append((-ladder[i - 1], ladder[i]))
        clauses.append((-lits[i], -ladder[i - 1]))
    clauses.append((-lits[n - 1], -ladder[n - 2]))
    return clauses


def commander_groups(lits: Sequence[int],
                     group_size: int) -> List[List[int]]:
    """Partition ``lits`` into consecutive commander groups.

    Exposed as a seam so tests can substitute a *broken* grouping (e.g.
    overlapping groups) and prove the differential harness catches it.
    """
    return [list(lits[i:i + group_size])
            for i in range(0, len(lits), group_size)]


def amo_commander(lits: Sequence[int], alloc: AuxAllocator,
                  group_size: int = 3, *,
                  groups_fn=commander_groups) -> List[LocalClause]:
    """Recursive commander at-most-one (Klieber & Kwon).

    Each group gets a pairwise AMO plus a commander variable c with
    x → c for every group member and c → ∨group; the commanders then
    recurse until one group remains.  ⌈n/g⌉ + ⌈n/g²⌉ + … auxiliaries.
    """
    if group_size < 2:
        raise ValueError("commander group size must be at least 2")
    level = list(lits)
    clauses: List[LocalClause] = []
    while len(level) > group_size:
        commanders: List[int] = []
        for group in groups_fn(level, group_size):
            clauses.extend(amo_pairwise(group))
            commander = alloc.fresh()
            commanders.append(commander)
            for lit in group:
                clauses.append((-lit, commander))
            clauses.append((-commander,) + tuple(group))
        level = commanders
    clauses.extend(amo_pairwise(level))
    return clauses


def amo_bimander(lits: Sequence[int], alloc: AuxAllocator,
                 group_size: int = 2) -> List[LocalClause]:
    """Bimander at-most-one (Hölldobler & Nguyen).

    Pairwise AMO inside each of the m = ⌈n/g⌉ groups, plus ⌈log₂m⌉
    binary group-index variables: every member of group j implies the
    bit pattern of j, so two true variables in different groups force
    contradictory index bits.
    """
    if group_size < 1:
        raise ValueError("bimander group size must be at least 1")
    n = len(lits)
    if n <= 1:
        return []
    groups = [list(lits[i:i + group_size])
              for i in range(0, n, group_size)]
    num_bits = (len(groups) - 1).bit_length()
    bits = alloc.fresh_block(num_bits)
    clauses: List[LocalClause] = []
    for index, group in enumerate(groups):
        clauses.extend(amo_pairwise(group))
        for lit in group:
            for b, bit_var in enumerate(bits):
                bit_lit = bit_var if (index >> b) & 1 else -bit_var
                clauses.append((-lit, bit_lit))
    return clauses


def product_grid(n: int) -> Tuple[int, int]:
    """The ⌈√n⌉ × ⌈n/⌈√n⌉⌉ grid the product encoding arranges n in."""
    rows = math.isqrt(n - 1) + 1 if n > 1 else 1
    cols = -(-n // rows)
    return rows, cols


def amo_product(lits: Sequence[int],
                alloc: AuxAllocator) -> List[LocalClause]:
    """Chen's 2-D product at-most-one.

    Place the n variables in a ⌈√n⌉-row grid; x at cell (r, c) implies
    row selector R_r and column selector C_c, and both selector sets
    carry a pairwise AMO.  Two true variables differ in row or column,
    so two selectors of one axis would be true.  ⌈√n⌉ + ⌈n/⌈√n⌉⌉
    auxiliaries, 2n + O(n) clauses; degenerates to pairwise for n ≤ 3
    (where the grid would cost more than it saves).
    """
    n = len(lits)
    if n <= 3:
        return amo_pairwise(lits)
    num_rows, num_cols = product_grid(n)
    rows = alloc.fresh_block(num_rows)
    cols = alloc.fresh_block(num_cols)
    clauses: List[LocalClause] = []
    for i, lit in enumerate(lits):
        r, c = divmod(i, num_cols)
        clauses.append((-lit, rows[r]))
        clauses.append((-lit, cols[c]))
    clauses.extend(amo_pairwise(rows))
    clauses.extend(amo_pairwise(cols))
    return clauses


#: name → (needs_allocator, builder) for the at-most-one family.
AMO_BUILDERS = {
    "pairwise": amo_pairwise,
    "sequential": amo_sequential,
    "commander": amo_commander,
    "bimander": amo_bimander,
    "product": amo_product,
}


def build_amo(kind: str, lits: Sequence[int], alloc: AuxAllocator, *,
              group_size: Optional[int] = None) -> List[LocalClause]:
    """Uniform entry point: at-most-one over ``lits`` via ``kind``."""
    if kind == "pairwise":
        return amo_pairwise(lits)
    if kind == "sequential":
        return amo_sequential(lits, alloc)
    if kind == "commander":
        return amo_commander(lits, alloc, group_size or 3)
    if kind == "bimander":
        return amo_bimander(lits, alloc, group_size or 2)
    if kind == "product":
        return amo_product(lits, alloc)
    raise ValueError(f"unknown at-most-one kind {kind!r} "
                     f"(known: {', '.join(sorted(AMO_BUILDERS))})")


# ---------------------------------------------------------------------------
# Closed-form sizes, asserted by tests/test_cardinality.py against the
# builders' actual output.
# ---------------------------------------------------------------------------

def _group_sizes(n: int, group_size: int) -> List[int]:
    full, rest = divmod(n, group_size)
    return [group_size] * full + ([rest] if rest else [])


def amo_sizes(kind: str, n: int, *,
              group_size: Optional[int] = None) -> Tuple[int, int]:
    """``(aux_vars, clauses)`` each AMO builder spends on n values."""
    pairs = n * (n - 1) // 2
    if kind == "pairwise":
        return 0, pairs
    if kind == "sequential":
        if n <= 1:
            return 0, 0
        if n == 2:
            return 0, 1
        return n - 1, 3 * n - 4
    if kind == "commander":
        g = group_size or 3
        aux = clauses = 0
        level = n
        while level > g:
            groups = _group_sizes(level, g)
            aux += len(groups)
            clauses += sum(s * (s - 1) // 2 + s + 1 for s in groups)
            level = len(groups)
        return aux, clauses + level * (level - 1) // 2
    if kind == "bimander":
        g = group_size or 2
        if n <= 1:
            return 0, 0
        groups = _group_sizes(n, g)
        bits = (len(groups) - 1).bit_length()
        return bits, sum(s * (s - 1) // 2 for s in groups) + n * bits
    if kind == "product":
        if n <= 3:
            return 0, pairs
        rows, cols = product_grid(n)
        return (rows + cols,
                2 * n + rows * (rows - 1) // 2 + cols * (cols - 1) // 2)
    raise ValueError(f"unknown at-most-one kind {kind!r}")


# ---------------------------------------------------------------------------
# Level schemes: direct-style patterns + a pluggable at-most-one.
# ---------------------------------------------------------------------------

class CardinalityDirectScheme(LevelScheme):
    """The direct encoding with a library at-most-one instead of pairwise.

    Patterns are the plain value variables (so conflicts, symmetry
    breaking and hierarchy composition are untouched); the at-most-one
    family and its auxiliaries are the only difference between the
    members of this scheme family.  Auxiliaries live in the vertex block
    after the value variables and never appear in patterns.
    """

    is_ite = False

    def __init__(self, name: str, amo_kind: str,
                 group_size: Optional[int] = None) -> None:
        self.name = name
        self.amo_kind = amo_kind
        self.group_size = group_size
        self._memo: Dict[int, Tuple[int, List[LocalClause]]] = {}

    def _built(self, n: int) -> Tuple[int, List[LocalClause]]:
        if n < 1:
            raise ValueError("domain must have at least one value")
        if n not in self._memo:
            values = list(range(1, n + 1))
            alloc = self.allocator(n)
            clauses: List[LocalClause] = [tuple(values)]  # at-least-one
            clauses.extend(self.amo_clauses(values, alloc))
            self._memo[n] = (n + alloc.count, clauses)
        return self._memo[n]

    def allocator(self, n: int) -> AuxAllocator:
        """The per-block allocator: auxiliaries start after the values."""
        return AuxAllocator(n + 1, reserved=range(1, n + 1))

    def amo_clauses(self, values: Sequence[int],
                    alloc: AuxAllocator) -> List[LocalClause]:
        """The at-most-one part (overridable seam for the QA suite)."""
        return build_amo(self.amo_kind, values, alloc,
                         group_size=self.group_size)

    def num_vars(self, n: int) -> int:
        return self._built(n)[0]

    def patterns(self, n: int):
        self._built(n)
        return [(value + 1,) for value in range(n)]

    def structural_clauses(self, n: int) -> List[LocalClause]:
        return list(self._built(n)[1])

    def num_subdomains(self, num_level_vars: int) -> int:
        raise NotImplementedError(
            f"{self.name} uses auxiliary variables and is only meaningful "
            f"as a final hierarchy level")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


#: Commander-AMO direct encoding (group size 3, the literature default).
CMDDIRECT = CardinalityDirectScheme("cmddirect", "commander", group_size=3)
#: Bimander-AMO direct encoding (group size 2, Hölldobler & Nguyen's best).
BIMDIRECT = CardinalityDirectScheme("bimdirect", "bimander", group_size=2)
#: Product-AMO direct encoding.
PRODDIRECT = CardinalityDirectScheme("proddirect", "product")
