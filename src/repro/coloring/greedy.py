"""Greedy coloring and clique bounds.

These give cheap two-sided bounds on the chromatic number of a
routing-induced conflict graph:

* a greedy (largest-degree-first / DSATUR) coloring upper-bounds it, and
* a greedily grown clique lower-bounds it.

The benchmark harness uses the bounds to bracket the minimum channel width
before the exact SAT search, exactly as a router would before invoking the
expensive unroutability proof.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence

from .problem import Graph


def greedy_coloring(graph: Graph, order: Sequence[int] = None) -> Dict[int, int]:
    """Color greedily in the given vertex order (default: degree-descending).

    Each vertex takes the smallest color unused among its already-colored
    neighbours, so the result is always a proper coloring.
    """
    if order is None:
        order = sorted(range(graph.num_vertices),
                       key=lambda v: graph.degree(v), reverse=True)
    elif sorted(order) != list(range(graph.num_vertices)):
        raise ValueError("order must be a permutation of all vertices")
    coloring: Dict[int, int] = {}
    for v in order:
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        color = 0
        while color in used:
            color += 1
        coloring[v] = color
    return coloring


def dsatur_coloring(graph: Graph) -> Dict[int, int]:
    """DSATUR (Brélaz) coloring: branch on maximum saturation degree.

    Colours next the uncoloured vertex with the most distinct neighbour
    colours, then the highest degree, then the lowest id.  The pick comes
    from a heap of ``(-saturation, -degree, vertex)`` entries: an entry is
    stale once its vertex is coloured or its saturation has grown, and a
    neighbour whose saturation grows gets a fresh one.  Usually needs
    fewer colors than plain greedy; used for the channel width upper bound.
    """
    degree = [graph.degree(v) for v in range(graph.num_vertices)]
    coloring: Dict[int, int] = {}
    saturation: List[set] = [set() for _ in degree]
    heap = [(0, -d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    while heap:
        negative_saturation, _, v = heapq.heappop(heap)
        used = saturation[v]
        if v in coloring or -negative_saturation < len(used):
            continue
        color = 0
        while color in used:
            color += 1
        coloring[v] = color
        for u in graph.neighbors(v):
            if u not in coloring and color not in saturation[u]:
                saturation[u].add(color)
                heapq.heappush(heap, (-len(saturation[u]), -degree[u], u))
    return coloring


def greedy_num_colors(graph: Graph) -> int:
    """Number of colors used by :func:`dsatur_coloring` (upper bound)."""
    if graph.num_vertices == 0:
        return 0
    coloring = dsatur_coloring(graph)
    return max(coloring.values()) + 1


def greedy_clique(graph: Graph) -> List[int]:
    """Grow a clique greedily from the highest-degree vertices.

    The size of the returned clique lower-bounds the chromatic number (and
    in routing terms, the channel width): all members pairwise conflict, so
    they need pairwise-distinct tracks.
    """
    clique: List[int] = []
    candidates = sorted(range(graph.num_vertices),
                        key=lambda v: graph.degree(v), reverse=True)
    for v in candidates:
        if all(graph.has_edge(v, u) for u in clique):
            clique.append(v)
    return clique


def clique_lower_bound(graph: Graph) -> int:
    """Size of the greedy clique (chromatic-number lower bound)."""
    return len(greedy_clique(graph))
