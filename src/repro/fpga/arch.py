"""Island-style FPGA architecture model (paper §2).

The model is the classic symmetric array: a ``cols × rows`` grid of logic
blocks, horizontal routing channels between block rows, vertical channels
between block columns, *connection blocks* hooking block pins onto channel
tracks, and *switch blocks* at channel intersections.

Switch blocks use the **disjoint** (subset) pattern: track ``t`` of one
segment connects only to track ``t`` of adjacent segments.  This is the
property the paper's reduction relies on ("each switching block preserves
the track assignment"): a routed 2-pin net occupies the same track index
along its entire path, so one CSP variable with domain ``0..W-1`` per
2-pin net captures its whole detailed route.

Channel geometry (``cols = 3``, ``rows = 2`` example)::

    v(0,1) h(0,2) v(1,1) h(1,2) v(2,1) h(2,2) v(3,1)
           [0,1]         [1,1]         [2,1]
    v(0,0) h(0,1) v(1,0) h(1,1) v(2,0) h(2,1) v(3,0)
           [0,0]         [1,0]         [2,0]
           h(0,0)        h(1,0)        h(2,0)

``h(x, y)`` is the segment of horizontal channel ``y`` (0..rows) above/below
block column ``x``; ``v(x, y)`` the segment of vertical channel ``x``
(0..cols) beside block row ``y``.  Segments meet at switch-block corners
``(cx, cy)`` with ``cx`` in 0..cols and ``cy`` in 0..rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Tuple


@dataclass(frozen=True, order=True)
class Segment:
    """One channel segment: ``kind`` is ``"h"`` or ``"v"``.

    For ``h``: ``x`` is the block column it spans, ``y`` the horizontal
    channel index (0 = below the bottom block row).  For ``v``: ``x`` is
    the vertical channel index, ``y`` the block row it spans.
    """

    kind: str
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.kind not in ("h", "v"):
            raise ValueError(f"segment kind must be 'h' or 'v', got {self.kind!r}")

    def corners(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """The two switch-block corners this segment connects."""
        if self.kind == "h":
            return (self.x, self.y), (self.x + 1, self.y)
        return (self.x, self.y), (self.x, self.y + 1)

    def __repr__(self) -> str:
        return f"{self.kind}({self.x},{self.y})"


class SegmentTables(NamedTuple):
    """The segment graph on integer ids: a segment's id is its position in
    :meth:`FPGAArchitecture.segments`."""

    #: One shared :class:`Segment` instance per id.
    segments: Tuple[Segment, ...]
    #: Each segment's id.
    ids: Dict[Segment, int]
    #: Per id, the ids of :meth:`FPGAArchitecture.segment_neighbors`.
    neighbors: Tuple[Tuple[int, ...], ...]
    #: Per block ``y * cols + x``, its south, north, west and east ids.
    blocks: Tuple[Tuple[int, int, int, int], ...]


class FPGAArchitecture:
    """Geometry and routing-resource graph of one island-style array."""

    def __init__(self, cols: int, rows: int, channel_width: int = 1) -> None:
        if cols < 1 or rows < 1:
            raise ValueError("the array needs at least one block")
        if channel_width < 1:
            raise ValueError("channel width must be at least 1")
        self.cols = cols
        self.rows = rows
        self.channel_width = channel_width

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------

    def blocks(self) -> Iterator[Tuple[int, int]]:
        """Yield every logic-block position ``(x, y)``."""
        for y in range(self.rows):
            for x in range(self.cols):
                yield (x, y)

    @property
    def num_blocks(self) -> int:
        return self.cols * self.rows

    def segments(self) -> Iterator[Segment]:
        """Yield every channel segment of the array, in id order."""
        return iter(self.tables.segments)

    @property
    def num_segments(self) -> int:
        return self.cols * (self.rows + 1) + (self.cols + 1) * self.rows

    def contains_segment(self, segment: Segment) -> bool:
        if segment.kind == "h":
            return 0 <= segment.x < self.cols and 0 <= segment.y <= self.rows
        return 0 <= segment.x <= self.cols and 0 <= segment.y < self.rows

    def contains_block(self, x: int, y: int) -> bool:
        return 0 <= x < self.cols and 0 <= y < self.rows

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def block_segments(self, x: int, y: int) -> List[Segment]:
        """Segments a block's pins reach through its connection blocks:
        the channels on its four sides (south, north, west, east)."""
        if not self.contains_block(x, y):
            raise ValueError(f"block ({x},{y}) outside the {self.cols}x{self.rows} array")
        tables = self.tables
        return [tables.segments[i] for i in tables.blocks[y * self.cols + x]]

    def segment_neighbors(self, segment: Segment) -> List[Segment]:
        """Segments reachable through the switch blocks at either end."""
        if not self.contains_segment(segment):
            raise ValueError(f"segment {segment} outside the array")
        tables = self.tables
        return [tables.segments[i] for i in tables.neighbors[tables.ids[segment]]]

    @cached_property
    def tables(self) -> SegmentTables:
        """The segment graph on ids, built once per architecture.

        A segment's neighbours are listed corner by corner (first corner,
        then second), each corner as ``h(cx-1,cy)``, ``h(cx,cy)``,
        ``v(cx,cy-1)``, ``v(cx,cy)``.  The global router breaks ties
        between equal-cost paths by this order.
        """
        cols, rows = self.cols, self.rows
        segments = tuple([Segment("h", x, y) for y in range(rows + 1)
                          for x in range(cols)]
                         + [Segment("v", x, y) for x in range(cols + 1)
                            for y in range(rows)])
        ids = {segment: index for index, segment in enumerate(segments)}
        neighbors = tuple(
            tuple(ids[c] for cx, cy in segment.corners()
                  for c in (Segment("h", cx - 1, cy), Segment("h", cx, cy),
                            Segment("v", cx, cy - 1), Segment("v", cx, cy))
                  if c != segment and c in ids)
            for segment in segments)
        blocks = tuple((ids[Segment("h", x, y)], ids[Segment("h", x, y + 1)],
                        ids[Segment("v", x, y)], ids[Segment("v", x + 1, y)])
                       for y in range(rows) for x in range(cols))
        return SegmentTables(segments, ids, neighbors, blocks)

    def manhattan_distance(self, a: Tuple[int, int], b: Tuple[int, int]) -> int:
        """Manhattan distance between two block positions."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def __repr__(self) -> str:
        return (f"FPGAArchitecture(cols={self.cols}, rows={self.rows}, "
                f"channel_width={self.channel_width})")
