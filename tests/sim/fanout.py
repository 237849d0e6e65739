"""Helpers for tests of signal-edge fan-outs: stand-in frames and receivers,
and the two ways to schedule a fan-out (one batch, or edge by edge)."""

from __future__ import annotations

from repro.sim.event import SIG_END, SIG_START, fanout_columns


class Frame:
    """The two attributes the kernel reads off a frame."""

    def __init__(self, duration_s: float, frame_id: int = 1) -> None:
        self.duration_s = duration_s
        self.frame_id = frame_id


class Receiver:
    """Logs each edge it is handed as ``(edge, now, name, power or id)``,
    then calls ``hook(edge)`` if one is given."""

    def __init__(self, sim, name, log: list, hook=None) -> None:
        self.sim = sim
        self.name = name
        self.log = log
        self.hook = hook

    def signal_start(self, frame, power) -> None:
        self.log.append(("start", self.sim.now, self.name, power))
        if self.hook is not None:
            self.hook("start")

    def signal_end(self, frame_id) -> None:
        self.log.append(("end", self.sim.now, self.name, frame_id))
        if self.hook is not None:
            self.hook("end")


def columns(rows) -> tuple:
    """``[(receiver, power, delay)]`` in attach order as fan-out columns."""
    return fanout_columns(
        [(rx, power, delay, 2 * i) for i, (rx, power, delay) in enumerate(rows)]
    )


def schedule_fanout(sim, rows, frame) -> None:
    """Schedule ``rows`` (as :func:`columns` takes them) as one fan-out."""
    sim.schedule_fanout(columns(rows), frame)


def schedule_one_by_one(sim, rows, frame) -> None:
    """The ``schedule`` calls a fan-out of ``rows`` stands for."""
    now = sim.now
    for rx, power, delay in rows:
        t = now + delay
        sim.schedule(t, rx.signal_start, 1, SIG_START, (frame, power))
        sim.schedule(
            t + frame.duration_s, rx.signal_end, 0, SIG_END, (frame.frame_id,)
        )
