"""Shared fixtures, hypothesis profiles and helpers for the test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import settings

# Property-test budgets.  The ``dev`` profile keeps local iteration fast;
# CI's differential job selects the heavier sweep with
# ``--hypothesis-profile=ci`` (the hypothesis pytest plugin applies the CLI
# choice after this module loads, so the flag wins over the default below).
# Tests that pin ``@settings(max_examples=...)`` inline keep their pinned
# budget under either profile.
settings.register_profile("dev", max_examples=12, deadline=None)
settings.register_profile("ci", max_examples=40, deadline=None)
settings.load_profile("dev")

from repro.config import MacConfig, PhyConfig, PowerControlConfig
from repro.mac.timing import MacTiming
from repro.mobility.static import StaticMobility
from repro.phy.channel import Channel
from repro.phy.noise import ConstantNoise
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import Radio
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def collector_on():
    """Run the test with the cyclic garbage collector enabled, then restore
    whatever state the test found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def full_collections():
    """Records every full (generation 2) collection while the test runs."""
    seen = []

    def on_gc(phase, info):
        if phase == "stop" and info["generation"] == 2:
            seen.append(info)

    gc.collect()
    gc.callbacks.append(on_gc)
    yield seen
    gc.callbacks.remove(on_gc)


@pytest.fixture
def phy_cfg() -> PhyConfig:
    """The paper's PHY configuration."""
    return PhyConfig()


@pytest.fixture
def mac_cfg() -> MacConfig:
    """The paper's MAC configuration."""
    return MacConfig()


@pytest.fixture
def power_cfg() -> PowerControlConfig:
    """Default power-control parameters."""
    return PowerControlConfig()


@pytest.fixture
def timing(mac_cfg, phy_cfg) -> MacTiming:
    """Derived MAC timing."""
    return MacTiming(mac_cfg, phy_cfg)


@pytest.fixture
def two_ray() -> TwoRayGround:
    """The paper's propagation model."""
    return TwoRayGround()


@pytest.fixture
def tracer() -> Tracer:
    """A tracer with every stack category enabled."""
    t = Tracer()
    t.enable(
        "phy.tx",
        "phy.rx_ok",
        "phy.rx_err",
        "phy.cs",
        "mac.send",
        "mac.drop",
        "mac.handshake",
        "mac.defer",
        "pcmac.pcn",
        "net.route",
        "net.drop",
        "app.tx",
        "app.rx",
    )
    return t


def make_radio(
    sim: Simulator,
    node_id: int,
    position: tuple[float, float],
    phy_cfg: PhyConfig | None = None,
    **overrides,
) -> Radio:
    """A radio pinned at a fixed position with paper thresholds."""
    cfg = phy_cfg or PhyConfig()
    kwargs = dict(
        mobility=StaticMobility(position),
        rx_threshold_w=cfg.rx_threshold_w,
        cs_threshold_w=cfg.cs_threshold_w,
        capture_threshold=cfg.capture_threshold,
        noise=ConstantNoise(cfg.noise_floor_w),
    )
    kwargs.update(overrides)
    return Radio(sim, node_id, **kwargs)


def make_channel(sim: Simulator, phy_cfg: PhyConfig | None = None, **overrides) -> Channel:
    """A two-ray data channel with paper parameters."""
    cfg = phy_cfg or PhyConfig()
    kwargs = dict(
        interference_floor_w=cfg.interference_floor_w,
        model_propagation_delay=cfg.model_propagation_delay,
    )
    kwargs.update(overrides)
    return Channel(sim, TwoRayGround(), **kwargs)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for deterministic tests."""
    return np.random.default_rng(42)
