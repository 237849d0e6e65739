"""Pluggable receiver models behind the ``reception`` scenario slot.

The radio's built-in decode rules (NS-2 ``CPThresh`` semantics — see
:mod:`repro.phy.radio`) are the ``null`` component: nothing is installed and
runs are bit-identical to every build before this slot existed, including
``events_executed`` (guarded by
``tests/reception/test_reception_null_identity.py``).

The ``sinr`` component installs a :class:`~repro.phy.reception.sinr.SinrReceiver`
on every radio: a cumulative-interference state machine
(IDLE / SYNC / RX / TX-deaf) that decides decode success on the frame's
worst-interval SINR, lets a sufficiently stronger later arrival capture the
receiver during preamble sync, and classifies every discarded arrival with a
typed loss reason (:data:`~repro.phy.reception.plan.DROP_REASONS`) surfaced
through tracing, per-MAC counters and the ``rx_drops`` gauge.

See ``docs/phy-models.md`` for the threshold-vs-SINR semantics and a capture
walkthrough.
"""

from repro.phy.reception.plan import (
    DROP_BELOW_SENSITIVITY,
    DROP_CAPTURE_LOST,
    DROP_COLLISION,
    DROP_REASONS,
    ReceptionPlan,
)
from repro.phy.reception.sinr import SinrReceiver

__all__ = [
    "DROP_BELOW_SENSITIVITY",
    "DROP_CAPTURE_LOST",
    "DROP_COLLISION",
    "DROP_REASONS",
    "ReceptionPlan",
    "SinrReceiver",
]
