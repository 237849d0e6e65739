"""Static shortest-path routing for controlled (immobile) experiments.

Routes follow hop-count shortest paths over the maximum-power connectivity
graph and never change.  This removes routing dynamics from experiments
that study pure MAC behaviour (the paper's Figure 1/4/6 scenarios and several
tests), at the cost of being wrong under mobility — use AODV there.

Each source's next-hop table is a breadth-first search over the adjacency
lists, run the first time that source routes and shared by every node's
view.  Among equal-length paths the search keeps the one found first, so
neighbour order is the tie-break; :meth:`StaticRouting.from_positions`
lists neighbours in ascending node id, which gives the same next hops as
``networkx.all_pairs_shortest_path`` over the same disc graph.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.net.packet import Packet
from repro.net.routing_base import RoutingProtocol


def _next_hops(adjacency: Mapping[int, Sequence[int]], src: int) -> dict[int, int]:
    """``{dst: first hop}`` of a breadth-first search from ``src``."""
    first = {src: src}
    order = [src]
    for v in order:  # appended while iterated: a FIFO queue
        hop = first[v]
        for w in adjacency.get(v, ()):
            if w not in first:
                first[w] = w if v == src else hop
                order.append(w)
    del first[src]
    return first


class StaticRouting(RoutingProtocol):
    """Fixed next-hop tables over a connectivity graph.

    ``adjacency`` maps every node to its neighbours, in the order the
    breadth-first search visits them.
    """

    def __init__(self, adjacency: Mapping[int, Sequence[int]]) -> None:
        self._adjacency = adjacency
        self._tables: dict[int, dict[int, int]] = {}
        self._unroutable = 0
        self._failures = 0

    def view(self) -> "StaticRouting":
        """A per-node instance sharing this table.

        Routing protocols bind 1:1 to nodes (``attach`` stores the owner), so
        a shared shortest-path table is exposed to each node through a cheap
        view object.
        """
        clone = object.__new__(StaticRouting)
        clone._adjacency = self._adjacency
        clone._tables = self._tables
        clone._unroutable = 0
        clone._failures = 0
        return clone

    @classmethod
    def from_positions(
        cls, positions: dict[int, tuple[float, float]], comm_range_m: float
    ) -> "StaticRouting":
        """Build from node positions with a disc connectivity model."""
        items = sorted(positions.items())
        adjacency: dict[int, list[int]] = {a: [] for a, _ in items}
        for i, (a, pa) in enumerate(items):
            for b, pb in items[i + 1 :]:
                dx = pa[0] - pb[0]
                dy = pa[1] - pb[1]
                if (dx * dx + dy * dy) ** 0.5 <= comm_range_m:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        return cls(adjacency)

    def _table(self, src: int) -> dict[int, int]:
        table = self._tables.get(src)
        if table is None:
            table = self._tables[src] = _next_hops(self._adjacency, src)
        return table

    def next_hop(self, src: int, dst: int) -> int | None:
        """The shortest-path next hop from ``src`` toward ``dst``."""
        return self._table(src).get(dst)

    def route_packet(self, packet: Packet) -> None:
        nh = self.next_hop(self.node.node_id, packet.dst)
        if nh is None:
            self._unroutable += 1
            self.node.metrics_drop(packet, "no_route")
            return
        self.node.mac_send(packet, nh)

    def on_mac_failure(self, packet: Packet, next_hop: int) -> None:
        # Static routes cannot heal; the loss is recorded and that is all.
        self._failures += 1
        self.node.metrics_drop(packet, "mac_failure")

    def on_packet(self, packet: Packet, from_node: int) -> None:
        # Static routing has no control traffic.
        pass

    def stats(self) -> dict[str, int]:
        return {"unroutable": self._unroutable, "mac_failures": self._failures}

    def route_count(self) -> int:
        """Destinations reachable from this node (probe gauge)."""
        return len(self._table(self.node.node_id))
