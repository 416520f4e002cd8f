"""CNF formula container and DIMACS CNF reader/writer.

The :class:`CNF` class is the hand-off format between the encoding layer
(:mod:`repro.core.encodings`) and the SAT solvers (:mod:`repro.sat.solver`).
It stores all literals back to back as *codes* (``2*v`` for ``v``,
``2*v + 1`` for ``-v``), the form the engine and the proof checker
propagate over, plus each clause's end offset; the DIMACS tuples of
:attr:`CNF.clauses` are a view derived on demand.  It tracks the number
of variables and reads and writes the standard DIMACS ``p cnf`` format.
"""

from __future__ import annotations

import io
from itertools import accumulate, chain, compress, count
from operator import eq
from typing import (Iterable, Iterator, List, Optional, Sequence, TextIO,
                    Tuple)

from ..errors import ParseError
from .literals import clause_to_codes

Clause = Tuple[int, ...]

#: Maps a variable's truth byte to its negation's.
_NEGATE = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class CNF:
    """A propositional formula in conjunctive normal form.

    Parameters
    ----------
    clauses:
        Optional initial clauses; each clause is an iterable of nonzero
        DIMACS literals.
    num_vars:
        Optional explicit variable count.  The count grows automatically as
        clauses mentioning larger variables are added, but it may be set
        higher than any mentioned variable (DIMACS allows unused variables,
        and encodings allocate contiguous per-vertex blocks up front).
    """

    def __init__(self, clauses: Optional[Iterable[Iterable[int]]] = None,
                 num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        # Clause i is _codes[_ends[i - 1]:_ends[i]] (from 0 for i == 0).
        self._codes: List[int] = []
        self._ends: List[int] = []
        self._num_vars = num_vars
        # True while no clause mentions a variable twice (no duplicate or
        # complementary literal), see code_clauses.
        self._distinct = True
        self._view: Optional[List[Clause]] = None
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    @classmethod
    def from_codes(cls, num_vars: int, codes: List[int],
                   ends: List[int]) -> "CNF":
        """A formula owning ``codes`` and ``ends`` as its storage.  The
        caller guarantees each code's variable is in ``1..num_vars`` and
        no clause mentions a variable twice (as the encoder does)."""
        cnf = cls(num_vars=num_vars)
        cnf._codes = codes
        cnf._ends = ends
        return cnf

    @property
    def num_vars(self) -> int:
        """Number of variables (the largest variable id in use)."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses added so far."""
        return len(self._ends)

    @property
    def clauses(self) -> List[Clause]:
        """The clauses as DIMACS literal tuples (shared, do not mutate):
        a view built on first use, which :meth:`add_clause` extends."""
        if self._view is None:
            lits = [-(code >> 1) if code & 1 else code >> 1
                    for code in self._codes]
            self._view = list(map(tuple, map(lits.__getitem__,
                                             self._slices())))
        return self._view

    def _slices(self) -> Iterator[slice]:
        """Each clause's slice of the stored codes, in clause order."""
        ends = self._ends
        return map(slice, chain((0,), ends), ends)

    def code_clauses(self) -> Iterator[Optional[List[int]]]:
        """Each clause's literal codes as a fresh list, in clause order:
        what the engine and the proof checker load.  While no clause
        mentions a variable twice (as in encoder output) these are the
        stored codes; otherwise each clause goes through
        :func:`~repro.sat.literals.clause_to_codes` (duplicates dropped,
        ``None`` for a tautology)."""
        if self._distinct:
            return map(self._codes.__getitem__, self._slices())
        return map(clause_to_codes, self.clauses)

    def first_falsified(self, values: Sequence[bool]) -> int:
        """Index of the first clause the assignment falsifies, or -1 when
        it satisfies every clause.  ``values[v]`` is variable ``v``'s
        value for ``v`` in ``1..num_vars`` (``values[0]`` is unused)."""
        n = self._num_vars
        if len(values) <= n:
            raise ValueError(f"{len(values) - 1} values for {n} variables")
        positive = bytes(values[1:n + 1])
        truth = bytearray(2 * n + 2)  # one truth byte per literal code
        truth[2::2] = positive
        truth[3::2] = positive.translate(_NEGATE)
        # true_before[k]: true literals among the first k codes.
        true_before = [0, *accumulate(map(truth.__getitem__, self._codes))]
        at_ends = list(map(true_before.__getitem__, self._ends))
        falsified = map(eq, at_ends, chain((0,), at_ends))
        return next(compress(count(), falsified), -1)

    def new_var(self) -> int:
        """Allocate and return a fresh variable id."""
        self._num_vars += 1
        return self._num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables and return their ids."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._num_vars + 1
        self._num_vars += count
        return list(range(first, self._num_vars + 1))

    def reserve(self, num_vars: int) -> None:
        """Ensure the formula has at least ``num_vars`` variables."""
        if num_vars > self._num_vars:
            self._num_vars = num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause given as an iterable of DIMACS literals.

        The empty clause is allowed and makes the formula trivially
        unsatisfiable.  Literal order is preserved; duplicates are kept
        (the engine loads the clause normalised, see
        :meth:`code_clauses`).  A literal that is ``0`` or not an ``int``
        (``bool`` included) raises ``ValueError``.
        """
        clause = tuple(lits)
        codes = []
        for lit in clause:
            if type(lit) is not int or lit == 0:
                raise ValueError(
                    f"clause contains the invalid literal {lit!r}")
            codes.append(2 * lit if lit > 0 else 1 - 2 * lit)
        if codes:
            top = max(codes) >> 1
            if top > self._num_vars:
                self._num_vars = top
            if self._distinct and \
                    len({code >> 1 for code in codes}) < len(codes):
                self._distinct = False
        self._codes.extend(codes)
        self._ends.append(len(self._codes))
        if self._view is not None:
            self._view.append(clause)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add many clauses at once."""
        for clause in clauses:
            self.add_clause(clause)

    def negate_literal(self, index: int, position: int) -> None:
        """Flip the sign of literal ``position`` of clause ``index``."""
        length = len(self.clauses[index])
        if not 0 <= position < length:
            raise IndexError(f"clause {index} has no literal {position}")
        self._codes[self._ends[index] - length + position] ^= 1
        self._view = None

    def remove_clause(self, index: int) -> Clause:
        """Delete clause ``index`` and return it."""
        clause, ends = self.clauses[index], self._ends
        if index < 0:
            index += len(ends)
        del self._codes[ends[index] - len(clause):ends[index]]
        ends[index:] = [end - len(clause) for end in ends[index + 1:]]
        self._view = None
        return clause

    def copy(self) -> "CNF":
        """Return an independent copy of this formula."""
        duplicate = CNF.from_codes(self._num_vars, list(self._codes),
                                   list(self._ends))
        duplicate._distinct = self._distinct
        return duplicate

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self._ends)

    def __repr__(self) -> str:
        return f"CNF(num_vars={self._num_vars}, num_clauses={len(self._ends)})"

    # ------------------------------------------------------------------
    # DIMACS serialisation
    # ------------------------------------------------------------------

    def write_dimacs(self, stream: TextIO, comments: Sequence[str] = ()) -> None:
        """Write the formula to ``stream`` in DIMACS CNF format."""
        for comment in comments:
            stream.write(f"c {comment}\n")
        stream.write(f"p cnf {self._num_vars} {len(self._ends)}\n")
        for clause in self.clauses:
            stream.write(" ".join(str(lit) for lit in clause))
            stream.write(" 0\n")

    def to_dimacs(self, comments: Sequence[str] = ()) -> str:
        """Return the DIMACS CNF text for this formula."""
        buffer = io.StringIO()
        self.write_dimacs(buffer, comments=comments)
        return buffer.getvalue()

    def write_dimacs_file(self, path: str, comments: Sequence[str] = ()) -> None:
        """Write the formula to the file at ``path`` in DIMACS CNF format."""
        with open(path, "w", encoding="ascii") as handle:
            self.write_dimacs(handle, comments=comments)


def parse_dimacs(stream: TextIO, source: str = "") -> CNF:
    """Parse a DIMACS CNF formula from a text stream.

    Comment lines (``c ...``) are ignored.  The ``p cnf`` header is
    optional in practice but, when present, its variable count is honoured
    even if larger than any literal.  Clauses may span lines; each is
    terminated by ``0``.

    Malformed input raises :class:`~repro.errors.ParseError` (a
    ``ValueError`` subclass) carrying the 1-based line number and
    ``source``, never a bare ``ValueError``/``IndexError`` from
    tokenising.
    """
    cnf = CNF()
    declared_vars = 0
    pending: List[int] = []
    for line_no, raw_line in enumerate(stream, start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"malformed DIMACS problem line: {line!r}",
                                 line=line_no, source=source)
            try:
                declared_vars = int(fields[2])
                int(fields[3])  # clause count: must at least be a number
            except ValueError:
                raise ParseError(
                    f"non-numeric counts in problem line: {line!r}",
                    line=line_no, source=source) from None
            if declared_vars < 0:
                raise ParseError(
                    f"negative variable count in problem line: {line!r}",
                    line=line_no, source=source)
            continue
        if line.startswith("%"):
            break
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"invalid literal {token!r}",
                                 line=line_no, source=source) from None
            if lit == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        cnf.add_clause(pending)
    cnf.reserve(declared_vars)
    return cnf


def parse_dimacs_string(text: str) -> CNF:
    """Parse a DIMACS CNF formula from a string."""
    return parse_dimacs(io.StringIO(text), source="<string>")


def parse_dimacs_file(path: str) -> CNF:
    """Parse a DIMACS CNF formula from the file at ``path``."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_dimacs(handle, source=path)
