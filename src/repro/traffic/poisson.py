"""Poisson (exponential inter-arrival) traffic source.

Not used by the paper's headline figures, but included for robustness
studies: CBR's perfectly periodic arrivals can phase-lock with MAC timing;
Poisson arrivals break that artefact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.node import Node
from repro.net.packet import Packet

if TYPE_CHECKING:
    import numpy as np


class PoissonSource:
    """Emits fixed-size packets with exponential gaps at a mean rate."""

    def __init__(
        self,
        node: Node,
        flow_id: int,
        dst: int,
        *,
        mean_interval_s: float,
        size_bytes: int,
        start_s: float,
        rng: np.random.Generator,
        stop_s: float | None = None,
    ) -> None:
        if mean_interval_s <= 0:
            raise ValueError(f"mean interval must be positive, got {mean_interval_s!r}")
        if dst == node.node_id:
            raise ValueError("source and destination must differ")
        self.node = node
        self.flow_id = flow_id
        self.dst = dst
        self.mean_interval_s = mean_interval_s
        self.size_bytes = size_bytes
        self.stop_s = stop_s
        self._rng = rng
        self._seq = 0
        self.sent = 0
        self._label = f"poisson.{flow_id}"  # built once, not per packet
        node.sim.schedule(start_s, self._emit, label=self._label)

    def _emit(self) -> None:
        now = self.node.sim.now
        if self.stop_s is not None and now >= self.stop_s:
            return
        self._seq += 1
        packet = Packet(
            flow_id=self.flow_id,
            seq=self._seq,
            src=self.node.node_id,
            dst=self.dst,
            size_bytes=self.size_bytes,
            created_at=now,
            kind="data",
        )
        self.sent += 1
        self.node.app_send(packet)
        gap = float(self._rng.exponential(self.mean_interval_s))
        self.node.sim.schedule_in(gap, self._emit, label=self._label)
