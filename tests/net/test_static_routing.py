"""Static routing tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.static_routing import StaticRouting


def _path(n: int) -> dict[int, list[int]]:
    """Adjacency of the path graph 0-1-...-(n-1)."""
    return {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}


class TestNextHopTable:
    def test_shortest_path_next_hop(self):
        r = StaticRouting(_path(4))  # 0-1-2-3
        assert r.next_hop(0, 3) == 1
        assert r.next_hop(1, 3) == 2
        assert r.next_hop(2, 3) == 3
        assert r.next_hop(3, 0) == 2

    def test_disconnected_pair_has_no_hop(self):
        r = StaticRouting({0: [], 1: []})
        assert r.next_hop(0, 1) is None

    def test_self_route_absent(self):
        r = StaticRouting(_path(3))
        assert r.next_hop(1, 1) is None

    def test_unknown_source_has_no_hop(self):
        assert StaticRouting(_path(3)).next_hop(7, 0) is None

    def test_first_listed_neighbour_wins_a_tie(self):
        # Square 0-1-3 / 0-2-3: both two-hop paths tie.
        square = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
        assert StaticRouting(square).next_hop(0, 3) == 1
        square[0] = [2, 1]
        assert StaticRouting(square).next_hop(0, 3) == 2

    def test_from_positions_builds_disc_graph(self):
        r = StaticRouting.from_positions(
            {0: (0, 0), 1: (100, 0), 2: (200, 0)}, comm_range_m=150.0
        )
        assert r.next_hop(0, 2) == 1  # 0→2 is 200 m: out of range directly

    def test_from_positions_direct_when_in_range(self):
        r = StaticRouting.from_positions(
            {0: (0, 0), 1: (100, 0)}, comm_range_m=150.0
        )
        assert r.next_hop(0, 1) == 1

    def test_views_share_table_but_not_counters(self):
        base = StaticRouting(_path(3))
        v1, v2 = base.view(), base.view()
        assert v1.next_hop(0, 2) == v2.next_hop(0, 2) == 1
        assert v1._tables is v2._tables is base._tables
        v1._unroutable += 1
        assert v2._unroutable == 0

    def test_tables_are_built_per_source_on_first_use(self):
        r = StaticRouting(_path(5))
        assert r._tables == {}
        r.next_hop(2, 0)
        assert list(r._tables) == [2]
        assert r._tables[2] == {0: 1, 1: 1, 3: 3, 4: 3}

    def test_route_count_is_reachable_destinations(self):
        class _Node:
            node_id = 0

        r = StaticRouting({0: [1], 1: [0], 2: []}).view()
        r.attach(_Node())
        assert r.route_count() == 1


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


# Coordinates on a 50 m lattice make co-located nodes common; the range
# runs from 0 m (only co-located nodes link) to beyond the field's diagonal.
_coords = st.integers(0, 12).map(lambda k: 50.0 * k)
_positions = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=40)


class TestNetworkxOracle:
    @given(points=_positions, comm_range_m=st.floats(0.0, 900.0),
           order=st.randoms(use_true_random=False))
    def test_from_positions_matches_all_pairs_shortest_path(
        self, nx, points, comm_range_m, order
    ):
        ids = list(range(len(points)))
        order.shuffle(ids)  # insertion order must not matter
        positions = {i: points[i] for i in ids}

        # The disc graph as this module built it when it used networkx.
        g = nx.Graph()
        g.add_nodes_from(positions)
        items = sorted(positions.items())
        for i, (a, pa) in enumerate(items):
            for b, pb in items[i + 1 :]:
                dx = pa[0] - pb[0]
                dy = pa[1] - pb[1]
                if (dx * dx + dy * dy) ** 0.5 <= comm_range_m:
                    g.add_edge(a, b)
        expected = {
            (src, dst): path[1]
            for src, paths in nx.all_pairs_shortest_path(g)
            for dst, path in paths.items()
            if len(path) >= 2
        }

        r = StaticRouting.from_positions(positions, comm_range_m)
        got = {
            (src, dst): r.next_hop(src, dst)
            for src in positions
            for dst in positions
            if r.next_hop(src, dst) is not None
        }
        assert got == expected
