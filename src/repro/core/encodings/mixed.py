"""Mixed-scheme hierarchy levels (paper §4, last paragraph).

"Note that it is not required that all the subdomains at a particular
level of a hierarchical encoding be further divided ... by using the same
simple encoding.  That is, we can have different simple encodings that
are used to further partition the subdomains from the same level."

The named encodings in the registry all use one scheme per level (as the
paper's experiments do); this module implements the general form: an
upper level partitions the domain, and each subdomain is indexed by its
*own* scheme.  Subdomains sharing a scheme share that scheme's variable
block (sized for the largest of them), mirroring §4's variable-sharing
rule; different schemes get disjoint blocks.
"""

from __future__ import annotations

from typing import Sequence

from ...coloring.problem import ColoringProblem
from ..patterns import negate_pattern, shift_clause, shift_pattern
from .base import EncodedProblem, Level, LevelScheme, VertexEncoding
from .hierarchical import split_sizes


def build_mixed_vertex_encoding(num_values: int, top: Level,
                                bottoms: Sequence[LevelScheme]) -> VertexEncoding:
    """Compose a 2-level encoding with a per-subdomain bottom scheme.

    ``bottoms[i]`` indexes subdomain ``i``; its length must equal the
    number of subdomains the top level produces for ``num_values``.
    """
    if num_values < 1:
        raise ValueError("domain must have at least one value")
    if top.num_vars is None:
        raise ValueError("the top level needs an explicit variable count")
    declared = top.scheme.num_subdomains(top.num_vars)
    parts = min(declared, num_values)
    if len(bottoms) != parts:
        raise ValueError(
            f"{parts} subdomains but {len(bottoms)} bottom schemes")

    sizes = split_sizes(num_values, parts)
    top_patterns = top.scheme.patterns(parts)
    top_vars = top.scheme.num_vars(parts)
    clauses = list(top.scheme.structural_clauses(parts))

    # One shared variable block per distinct scheme, sized to the largest
    # subdomain that scheme serves.
    block_offset: dict = {}
    block_size: dict = {}
    next_offset = top_vars
    for scheme, size in zip(bottoms, sizes):
        needed = scheme.num_vars(size)
        if id(scheme) not in block_offset:
            block_offset[id(scheme)] = None  # placeholder; fix below
            block_size[id(scheme)] = needed
        else:
            block_size[id(scheme)] = max(block_size[id(scheme)], needed)
    for scheme in bottoms:
        key = id(scheme)
        if block_offset[key] is None:
            block_offset[key] = next_offset
            next_offset += block_size[key]

    patterns = []
    emitted_structural = set()
    for subdomain, (scheme, size) in enumerate(zip(bottoms, sizes)):
        offset = block_offset[id(scheme)]
        width = block_size[id(scheme)]
        if scheme.is_ite:
            # Smaller trees reuse a prefix of the shared block.
            for pattern in scheme.patterns(size):
                patterns.append(top_patterns[subdomain]
                                + shift_pattern(pattern, offset))
        else:
            full = scheme.patterns(_block_domain(scheme, width))
            for position in range(size):
                patterns.append(top_patterns[subdomain]
                                + shift_pattern(full[position], offset))
            for position in range(size, len(full)):
                clauses.append(
                    negate_pattern(top_patterns[subdomain])
                    + negate_pattern(shift_pattern(full[position], offset)))
            if id(scheme) not in emitted_structural:
                emitted_structural.add(id(scheme))
                for clause in scheme.structural_clauses(
                        _block_domain(scheme, width)):
                    clauses.append(shift_clause(clause, offset))

    encoding = VertexEncoding(num_values=num_values, num_vars=next_offset,
                              patterns=patterns, clauses=clauses)
    encoding.validate()
    return encoding


def _block_domain(scheme: LevelScheme, block_vars: int) -> int:
    """Largest domain size the scheme can index with ``block_vars``
    variables (inverse of num_vars for the simple schemes)."""
    if block_vars == 0:
        return 1
    if scheme.name == "log":
        return 2 ** block_vars
    # direct / muldirect: one variable per value.
    return block_vars


def encode_mixed(problem: ColoringProblem, top: Level,
                 bottoms: Sequence[LevelScheme],
                 name: str = "mixed") -> EncodedProblem:
    """Translate a coloring problem with a mixed-bottom hierarchy."""
    vertex = build_mixed_vertex_encoding(problem.num_colors, top, bottoms)
    return EncodedProblem(problem, vertex, name)
