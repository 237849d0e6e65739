"""Differential suite: on-demand carrier callbacks vs every edge delivered.

A radio calls ``on_carrier_busy`` / ``on_carrier_idle`` only while its
``carrier_watch`` is true; a DCF MAC keeps the watch on exactly while it
contends, and the PCMAC control radio keeps it off.  The gating is exact
only if the MAC's callbacks are no-ops outside ``CONTEND``, which rests on
one invariant: **the access timer is armed only in CONTEND** (a busy edge
then has no countdown to pause, and an idle edge's ``_schedule_access``
returns at once).

The oracle forces the watch on for every radio, so every edge reaches its
listener as it did before the gating existed, and the default build must
produce the identical :class:`~repro.metrics.ExperimentResult`.  Both
sides also check the invariant on every arm of every access timer, and on
every sender-state change away from CONTEND.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.mac.base import DcfMac, MacState, _MacTimer
from repro.phy.radio import Radio
from repro.scenariospec import ScenarioSpec
from tests.differential.test_megascale_equivalence import (
    make_moving_spec,
    make_spec,
    run_spec,
)
from tests.integration.test_result_fingerprints import CELLS


@contextmanager
def every_edge_delivered():
    """Make ``carrier_watch`` read true on every radio (writes ignored)."""
    member = Radio.__dict__["carrier_watch"]
    Radio.carrier_watch = property(lambda self: True, lambda self, on: None)
    try:
        yield
    finally:
        Radio.carrier_watch = member


@contextmanager
def access_timer_invariant():
    """Assert the access timer is armed only in CONTEND; yield the tally."""
    tally = {"arms": 0, "exits": 0}
    arm_at, arm_in = _MacTimer.arm_at, _MacTimer.arm_in
    state_prop = DcfMac.__dict__["_state"]

    def check_arm(timer):
        fn = timer._fn
        if getattr(fn, "__func__", None) is DcfMac._access_fire:
            assert fn.__self__._state is MacState.CONTEND
            tally["arms"] += 1

    def checked_arm_at(self, *args, **kwargs):
        check_arm(self)
        arm_at(self, *args, **kwargs)

    def checked_arm_in(self, *args, **kwargs):
        check_arm(self)
        arm_in(self, *args, **kwargs)

    def set_state(mac, state):
        timer = getattr(mac, "_access_timer", None)
        if timer is not None and state is not MacState.CONTEND:
            assert not timer.armed
            tally["exits"] += 1
        state_prop.fset(mac, state)

    _MacTimer.arm_at, _MacTimer.arm_in = checked_arm_at, checked_arm_in
    DcfMac._state = property(state_prop.fget, set_state)
    try:
        yield tally
    finally:
        _MacTimer.arm_at, _MacTimer.arm_in = arm_at, arm_in
        DcfMac._state = state_prop


def assert_gating_exact(spec: ScenarioSpec) -> dict:
    """Default build vs every edge delivered; the invariant held on both."""
    with access_timer_invariant() as tally:
        got = run_spec(spec, oracle=False)
        with every_edge_delivered():
            want = run_spec(spec, oracle=False)
    assert got == want
    assert got["events_executed"] > 0
    # Non-vacuous: contention happened and the MACs left CONTEND.
    assert tally["arms"] > 0 and tally["exits"] > 0
    return got


class TestGatingIsExact:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=30),
        protocol=st.sampled_from(["basic", "pcmac"]),
        mobile=st.booleans(),
        duration_s=st.sampled_from([2.0, 3.0]),
    )
    def test_random_scenarios(self, seed, n, protocol, mobile, duration_s):
        assert_gating_exact(make_spec(protocol, mobile, n, duration_s, seed))

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=20),
        protocol=st.sampled_from(["basic", "pcmac"]),
        crashes=st.integers(min_value=1, max_value=3),
    )
    def test_churning_worlds(self, seed, n, protocol, crashes):
        spec = make_moving_spec(
            protocol, n, 2.0, seed, speed_mps=8.0, pause_s=0.0,
            side_m=700.0, crashes=min(crashes, n - 2),
        )
        assert_gating_exact(spec)

    @pytest.mark.parametrize("label", sorted(CELLS))
    def test_fingerprint_cells(self, label):
        """SINR reception, PCMAC, churn, corruption and battery deaths."""
        assert_gating_exact(ScenarioSpec.from_dict(CELLS[label]))


def _watches(spec: ScenarioSpec) -> list[bool]:
    """``carrier_watch`` of every data and control radio, freshly built."""
    net = NetworkBuilder(spec).build()
    return [
        radio.carrier_watch
        for node in net.nodes
        for radio in (node.mac.radio, node.mac.control.radio)
    ]


class TestOracleHooks:
    def test_forcing_reaches_every_radio(self):
        """Idle MACs and control radios unwatch; the oracle overrides both."""
        spec = make_spec("pcmac", False, 4, 1.0, 1)
        assert not any(_watches(spec))
        with every_edge_delivered():
            assert all(_watches(spec))
