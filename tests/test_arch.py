"""Tests for the island-style FPGA architecture model."""

import pytest

from repro.fpga import FPGAArchitecture, Segment


class TestSegment:
    def test_kinds(self):
        with pytest.raises(ValueError):
            Segment("x", 0, 0)

    def test_corners_horizontal(self):
        assert Segment("h", 2, 1).corners() == ((2, 1), (3, 1))

    def test_corners_vertical(self):
        assert Segment("v", 2, 1).corners() == ((2, 1), (2, 2))

    def test_hashable_and_ordered(self):
        assert Segment("h", 0, 0) == Segment("h", 0, 0)
        assert len({Segment("h", 0, 0), Segment("h", 0, 0)}) == 1
        assert Segment("h", 0, 0) < Segment("v", 0, 0)


class TestArchitecture:
    def test_validation(self):
        with pytest.raises(ValueError):
            FPGAArchitecture(0, 3)
        with pytest.raises(ValueError):
            FPGAArchitecture(3, 3, channel_width=0)

    def test_block_enumeration(self):
        arch = FPGAArchitecture(3, 2)
        assert arch.num_blocks == 6
        assert len(list(arch.blocks())) == 6

    def test_segment_count(self):
        # cols*(rows+1) horizontal + (cols+1)*rows vertical
        arch = FPGAArchitecture(3, 2)
        assert arch.num_segments == 3 * 3 + 4 * 2
        assert len(list(arch.segments())) == arch.num_segments

    def test_contains_segment(self):
        arch = FPGAArchitecture(3, 2)
        assert arch.contains_segment(Segment("h", 2, 2))
        assert not arch.contains_segment(Segment("h", 3, 0))
        assert arch.contains_segment(Segment("v", 3, 1))
        assert not arch.contains_segment(Segment("v", 0, 2))

    def test_block_segments_are_four_adjacent_channels(self):
        arch = FPGAArchitecture(3, 3)
        segments = arch.block_segments(1, 1)
        assert segments == [Segment("h", 1, 1), Segment("h", 1, 2),
                            Segment("v", 1, 1), Segment("v", 2, 1)]
        assert all(arch.contains_segment(s) for s in segments)

    def test_block_segments_out_of_range(self):
        with pytest.raises(ValueError):
            FPGAArchitecture(2, 2).block_segments(2, 0)

    def test_neighbors_share_a_corner(self):
        arch = FPGAArchitecture(4, 4)
        segment = Segment("h", 1, 2)
        for neighbor in arch.segment_neighbors(segment):
            shared = set(segment.corners()) & set(neighbor.corners())
            assert shared, f"{segment} and {neighbor} share no corner"

    def test_neighbors_symmetric(self):
        arch = FPGAArchitecture(3, 3)
        for segment in arch.segments():
            for neighbor in arch.segment_neighbors(segment):
                assert segment in arch.segment_neighbors(neighbor)

    def test_corner_segment_has_fewer_neighbors(self):
        arch = FPGAArchitecture(3, 3)
        corner = Segment("h", 0, 0)
        middle = Segment("h", 1, 1)
        assert len(arch.segment_neighbors(corner)) \
            < len(arch.segment_neighbors(middle))

    def test_neighbors_of_foreign_segment_rejected(self):
        with pytest.raises(ValueError):
            FPGAArchitecture(2, 2).segment_neighbors(Segment("h", 5, 5))

    def test_segment_graph_is_connected(self):
        arch = FPGAArchitecture(4, 3)
        segments = list(arch.segments())
        seen = {segments[0]}
        frontier = [segments[0]]
        while frontier:
            current = frontier.pop()
            for neighbor in arch.segment_neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert len(seen) == arch.num_segments

    def test_manhattan_distance(self):
        arch = FPGAArchitecture(5, 5)
        assert arch.manhattan_distance((0, 0), (3, 4)) == 7


#: ``segment_neighbors`` of every segment of a 3x2 array, in order.  The
#: global router breaks ties between equal-cost paths by push order, so
#: this order is part of every route.
NEIGHBORS_3X2 = {
    "h(0,0)": "v(0,0) h(1,0) v(1,0)",
    "h(1,0)": "h(0,0) v(1,0) h(2,0) v(2,0)",
    "h(2,0)": "h(1,0) v(2,0) v(3,0)",
    "h(0,1)": "v(0,0) v(0,1) h(1,1) v(1,0) v(1,1)",
    "h(1,1)": "h(0,1) v(1,0) v(1,1) h(2,1) v(2,0) v(2,1)",
    "h(2,1)": "h(1,1) v(2,0) v(2,1) v(3,0) v(3,1)",
    "h(0,2)": "v(0,1) h(1,2) v(1,1)",
    "h(1,2)": "h(0,2) v(1,1) h(2,2) v(2,1)",
    "h(2,2)": "h(1,2) v(2,1) v(3,1)",
    "v(0,0)": "h(0,0) h(0,1) v(0,1)",
    "v(0,1)": "h(0,1) v(0,0) h(0,2)",
    "v(1,0)": "h(0,0) h(1,0) h(0,1) h(1,1) v(1,1)",
    "v(1,1)": "h(0,1) h(1,1) v(1,0) h(0,2) h(1,2)",
    "v(2,0)": "h(1,0) h(2,0) h(1,1) h(2,1) v(2,1)",
    "v(2,1)": "h(1,1) h(2,1) v(2,0) h(1,2) h(2,2)",
    "v(3,0)": "h(2,0) h(2,1) v(3,1)",
    "v(3,1)": "h(2,1) v(3,0) h(2,2)",
}

#: ``block_segments`` (south, north, west, east) of every 3x2 block.
BLOCK_SEGMENTS_3X2 = {
    (0, 0): "h(0,0) h(0,1) v(0,0) v(1,0)",
    (1, 0): "h(1,0) h(1,1) v(1,0) v(2,0)",
    (2, 0): "h(2,0) h(2,1) v(2,0) v(3,0)",
    (0, 1): "h(0,1) h(0,2) v(0,1) v(1,1)",
    (1, 1): "h(1,1) h(1,2) v(1,1) v(2,1)",
    (2, 1): "h(2,1) h(2,2) v(2,1) v(3,1)",
}


def _names(segments):
    return " ".join(repr(segment) for segment in segments)


class TestAdjacencyOrder:
    def test_segment_neighbors_pinned(self):
        arch = FPGAArchitecture(3, 2)
        assert {repr(segment): _names(arch.segment_neighbors(segment))
                for segment in arch.segments()} == NEIGHBORS_3X2

    def test_block_segments_pinned(self):
        arch = FPGAArchitecture(3, 2)
        assert {block: _names(arch.block_segments(*block))
                for block in arch.blocks()} == BLOCK_SEGMENTS_3X2
