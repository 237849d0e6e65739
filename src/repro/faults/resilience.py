"""Resilience metrics: how delivery degrades under faults and recovers.

A :class:`ResilienceMonitor` samples the metrics collector's cumulative
sent/received counters on a fixed grid (the :class:`GaugeSampler` pattern —
scheduled events, so it runs only for fault scenarios, which already change
the event schedule by construction).  At the end of the run it reduces the
bins plus the plan's fault windows into a :class:`ResilienceReport`:

* per-bin offered/delivered curves (the degradation/recovery time series);
* delivery ratio inside vs. outside fault windows;
* per-crash reaction times — time to first post-crash delivery (the
  reroute proxy, resolved at bin granularity) and time for the windowed
  delivery ratio to return to 90 % of its pre-crash baseline.

The report is plain frozen data and rides
:attr:`~repro.experiments.scenario.ExperimentResult.resilience` through the
campaign store's JSON round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.collector import MetricsCollector
    from repro.sim.kernel import Simulator

#: A crash is "recovered" when the windowed delivery ratio is back to this
#: fraction of its pre-crash baseline.
RECOVERY_FRACTION = 0.9


@dataclass(frozen=True)
class CrashRecovery:
    """Reaction times around one crash (bin-granular, None = never)."""

    #: The crashed node.
    node: int
    #: Crash instant [sim s].
    crashed_at_s: float
    #: Rejoin instant [sim s]; None for permanent failures.
    recovered_at_s: float | None
    #: Seconds from the crash to the first bin with a delivery — the
    #: time-to-reroute proxy; None if nothing was delivered afterwards.
    reroute_s: float | None
    #: Seconds from the crash until the per-bin delivery ratio returned to
    #: ``RECOVERY_FRACTION`` of the pre-crash baseline in a bin that
    #: delivered something; None if it never did.  Never below ``reroute_s``.
    recovery_s: float | None


@dataclass(frozen=True)
class ResilienceReport:
    """Binned delivery under faults, plus the reductions that matter."""

    #: Bin width [sim s].
    interval_s: float
    #: Bin end times [sim s].
    times: tuple[float, ...]
    #: Packets sent per bin (cumulative-counter deltas).
    sent: tuple[int, ...]
    #: Packets delivered per bin.
    received: tuple[int, ...]
    #: Every fault window as (start_s, end_s).
    fault_windows: tuple[tuple[float, float], ...]
    #: Delivery ratio over bins overlapping a fault window.
    delivery_during_faults: float
    #: Delivery ratio over bins entirely outside fault windows.
    delivery_outside_faults: float
    #: Per-crash reaction times, in crash order.
    crashes: tuple[CrashRecovery, ...]

    @property
    def degradation(self) -> float:
        """Fractional delivery loss inside fault windows vs. outside."""
        if self.delivery_outside_faults <= 0.0:
            return 0.0
        return 1.0 - self.delivery_during_faults / self.delivery_outside_faults

    @classmethod
    def from_payload(cls, data: dict) -> "ResilienceReport":
        """Rebuild from the campaign store's JSON dict."""
        return cls(
            interval_s=data["interval_s"],
            times=tuple(data["times"]),
            sent=tuple(int(v) for v in data["sent"]),
            received=tuple(int(v) for v in data["received"]),
            fault_windows=tuple(
                (w[0], w[1]) for w in data["fault_windows"]
            ),
            delivery_during_faults=data["delivery_during_faults"],
            delivery_outside_faults=data["delivery_outside_faults"],
            crashes=tuple(
                CrashRecovery(**crash) for crash in data["crashes"]
            ),
        )


class ResilienceMonitor:
    """Samples delivery counters on a grid and reduces them to a report."""

    def __init__(
        self,
        sim: "Simulator",
        metrics: "MetricsCollector",
        plan: FaultPlan,
        *,
        interval_s: float,
        horizon_s: float,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        self.sim = sim
        self.metrics = metrics
        self.plan = plan
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self._times: list[float] = []
        self._sent: list[int] = []
        self._received: list[int] = []
        self._last_sent = 0
        self._last_received = 0
        sim.schedule(0.0, self._sample, label="fault.sample")

    def _sample(self) -> None:
        now = self.sim.now
        sent = self.metrics.total_sent
        received = self.metrics.total_received
        if now > 0.0:
            # The t=0 tick only establishes the baseline; bins are deltas.
            self._times.append(now)
            self._sent.append(sent - self._last_sent)
            self._received.append(received - self._last_received)
        self._last_sent = sent
        self._last_received = received
        if now + self.interval_s <= self.horizon_s:
            self.sim.schedule(
                now + self.interval_s, self._sample, label="fault.sample"
            )

    # ---------------------------------------------------------------- report

    def report(self) -> ResilienceReport:
        """Reduce the samples to a :class:`ResilienceReport`."""
        windows = self.plan.fault_windows(self.horizon_s)
        times = tuple(self._times)
        sent = tuple(self._sent)
        received = tuple(self._received)

        def in_fault(t_end: float) -> bool:
            t_start = t_end - self.interval_s
            return any(s < t_end and e > t_start for s, e in windows)

        during_s = during_r = outside_s = outside_r = 0
        for t, s, r in zip(times, sent, received):
            if in_fault(t):
                during_s += s
                during_r += r
            else:
                outside_s += s
                outside_r += r
        return ResilienceReport(
            interval_s=self.interval_s,
            times=times,
            sent=sent,
            received=received,
            fault_windows=windows,
            delivery_during_faults=(during_r / during_s) if during_s else 0.0,
            delivery_outside_faults=(outside_r / outside_s) if outside_s else 0.0,
            crashes=tuple(
                self._crash_recovery(c, times, sent, received)
                for c in self.plan.crashes
            ),
        )

    def _crash_recovery(
        self,
        crash,
        times: tuple[float, ...],
        sent: tuple[int, ...],
        received: tuple[int, ...],
    ) -> CrashRecovery:
        """Reaction times for one crash, at bin granularity."""
        # Pre-crash baseline: delivery ratio over bins ending at/before the
        # crash (falls back to 1.0 when traffic had not started yet).
        base_s = base_r = 0
        for t, s, r in zip(times, sent, received):
            if t <= crash.at_s:
                base_s += s
                base_r += r
        baseline = (base_r / base_s) if base_s else 1.0

        reroute_s: float | None = None
        recovery_s: float | None = None
        target = RECOVERY_FRACTION * baseline
        for t, s, r in zip(times, sent, received):
            if t <= crash.at_s:
                continue
            if reroute_s is None and r > 0:
                reroute_s = t - crash.at_s
            # A bin that delivered nothing never counts as recovered, even
            # against a zero baseline (nothing delivered before the crash),
            # so recovery never precedes the reroute.
            if recovery_s is None and s > 0 and r > 0 and r / s >= target:
                recovery_s = t - crash.at_s
            if reroute_s is not None and recovery_s is not None:
                break
        return CrashRecovery(
            node=crash.node,
            crashed_at_s=crash.at_s,
            recovered_at_s=crash.recover_at_s,
            reroute_s=reroute_s,
            recovery_s=recovery_s,
        )
