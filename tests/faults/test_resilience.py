"""ResilienceMonitor's per-crash reductions, driven by scripted counters.

A stand-in for the metrics collector exposes the two cumulative counters
the monitor samples; scheduled bumps set each bin's sent/delivered deltas,
so the reduction is checked without building a network.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.faults.plan import CrashEvent, FaultPlan
from repro.faults.resilience import ResilienceMonitor
from repro.sim.kernel import Simulator


class _Counters:
    """The metrics collector's cumulative counters, and nothing else."""

    total_sent = 0
    total_received = 0


def _recovery(bins: list[tuple[int, int]], crash_at_s: float):
    """The crash's :class:`CrashRecovery` over 1 s bins of ``(sent,
    delivered)``."""
    sim = Simulator()
    counters = _Counters()
    plan = FaultPlan(crashes=(CrashEvent(node=3, at_s=crash_at_s),))
    monitor = ResilienceMonitor(
        sim, counters, plan, interval_s=1.0, horizon_s=float(len(bins))
    )

    def bump(sent: int, received: int) -> None:
        counters.total_sent += sent
        counters.total_received += received

    for i, (sent, received) in enumerate(bins):
        sim.schedule(i + 0.5, bump, args=(sent, received))
    sim.run_until(float(len(bins)))
    (crash,) = monitor.report().crashes
    return crash


def test_a_zero_delivery_baseline_waits_for_a_delivery():
    # Nothing was delivered before the crash at 1.5 s: the baseline is 0,
    # yet the bins that sent without delivering do not count as recovered.
    crash = _recovery([(5, 0), (5, 0), (5, 0), (5, 3), (5, 5)], crash_at_s=1.5)
    assert crash.reroute_s == 2.5
    assert crash.recovery_s == 2.5


def test_no_delivery_after_the_crash_is_no_recovery():
    crash = _recovery([(5, 0), (5, 0), (5, 0)], crash_at_s=0.5)
    assert crash.reroute_s is None and crash.recovery_s is None


def test_recovery_waits_for_the_baseline_ratio():
    # Baseline 4/5; 90 % of it needs 3.6 of 5 delivered.
    crash = _recovery([(5, 4), (5, 1), (5, 3), (5, 4)], crash_at_s=1.0)
    assert crash.reroute_s == 1.0
    assert crash.recovery_s == 3.0


@given(
    bins=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8
    ),
    crash_at_s=st.sampled_from([0.5, 1.0, 2.5]),
)
def test_recovery_never_precedes_the_reroute(bins, crash_at_s):
    crash = _recovery(bins, crash_at_s)
    if crash.recovery_s is not None:
        assert crash.reroute_s is not None
        assert crash.recovery_s >= crash.reroute_s
