"""Configuration dataclass validation and derived quantities."""

from __future__ import annotations

import pytest

from repro.config import (
    AodvConfig,
    MacConfig,
    MobilityConfig,
    PcmacConfig,
    PhyConfig,
    PowerControlConfig,
    ScenarioConfig,
    TrafficConfig,
)


class TestPhyConfig:
    def test_paper_defaults(self):
        cfg = PhyConfig()
        assert cfg.frequency_hz == 914e6
        assert cfg.data_rate_bps == 2e6
        assert cfg.rx_threshold_w == pytest.approx(3.652e-10)
        assert cfg.cs_threshold_w == pytest.approx(1.559e-11)
        assert cfg.capture_threshold == 10.0
        assert len(cfg.power_levels_w) == 10
        assert cfg.max_power_w == pytest.approx(281.8e-3)
        assert cfg.min_power_w == pytest.approx(1e-3)

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            PhyConfig(power_levels_w=())

    def test_rejects_capture_below_one(self):
        with pytest.raises(ValueError):
            PhyConfig(capture_threshold=0.5)

    @pytest.mark.parametrize("rx", [0.0, -1e-10, float("nan")])
    def test_rejects_non_positive_rx_threshold(self, rx):
        # The MAC divides the decode threshold by the gain of every decoded
        # frame: the power it records must come out positive.
        with pytest.raises(ValueError, match="rx_threshold_w must be positive"):
            PhyConfig(rx_threshold_w=rx, cs_threshold_w=-1.0)


class TestMacConfig:
    def test_difs_derivation(self):
        cfg = MacConfig()
        assert cfg.difs_s == pytest.approx(cfg.sifs_s + 2 * cfg.slot_time_s)

    def test_dsss_defaults(self):
        cfg = MacConfig()
        assert cfg.slot_time_s == pytest.approx(20e-6)
        assert cfg.sifs_s == pytest.approx(10e-6)
        assert cfg.cw_min == 31
        assert cfg.cw_max == 1023
        assert cfg.ifq_capacity == 50


class TestPcmacConfig:
    def test_paper_defaults(self):
        cfg = PcmacConfig()
        assert cfg.control_rate_bps == 500e3
        assert cfg.margin_coefficient == 0.7
        assert cfg.pcn_size_bytes == 6
        assert cfg.three_way_data is True

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            PcmacConfig(margin_coefficient=0.0)
        with pytest.raises(ValueError):
            PcmacConfig(margin_coefficient=1.5)

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            PcmacConfig(pcn_repeats=0)


class TestPowerControlConfig:
    def test_paper_expiry(self):
        assert PowerControlConfig().history_expiry_s == 3.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PowerControlConfig(history_expiry_s=0.0)
        with pytest.raises(ValueError):
            PowerControlConfig(decode_margin=0.9)


class TestTrafficConfig:
    def test_paper_defaults(self):
        cfg = TrafficConfig()
        assert cfg.packet_size_bytes == 512
        assert cfg.flow_count == 10

    def test_per_flow_arithmetic(self):
        cfg = TrafficConfig(flow_count=10, offered_load_bps=600e3)
        assert cfg.per_flow_rate_bps == pytest.approx(60e3)
        assert cfg.per_flow_interval_s == pytest.approx(512 * 8 / 60e3)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrafficConfig(flow_count=0)
        with pytest.raises(ValueError):
            TrafficConfig(offered_load_bps=0)


class TestAodvConfig:
    def test_net_traversal_time(self):
        cfg = AodvConfig()
        assert cfg.net_traversal_time_s == pytest.approx(
            2 * cfg.node_traversal_time_s * cfg.net_diameter
        )


class TestMobilityAndScenario:
    def test_paper_mobility(self):
        cfg = MobilityConfig()
        assert cfg.speed_mps == 3.0
        assert cfg.pause_s == 3.0
        assert cfg.field_width_m == 1000.0

    def test_paper_scenario(self):
        cfg = ScenarioConfig()
        assert cfg.node_count == 50
        assert cfg.duration_s == 400.0

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            ScenarioConfig(node_count=1)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.0)

    @pytest.mark.parametrize("speed", [-1.0, float("nan"), float("inf")])
    def test_rejects_dishonest_speed(self, speed):
        """The channel trusts ``speed_mps`` as a hard bound on movement;
        NaN passes a plain ``< 0`` check, so it is tested explicitly."""
        with pytest.raises(ValueError, match="speed_mps"):
            MobilityConfig(speed_mps=speed)

    @pytest.mark.parametrize("pause", [-0.5, float("nan")])
    def test_rejects_negative_or_nan_pause(self, pause):
        with pytest.raises(ValueError, match="pause_s"):
            MobilityConfig(pause_s=pause)

    @pytest.mark.parametrize("side", [0.0, -10.0, float("nan")])
    def test_rejects_bad_field(self, side):
        with pytest.raises(ValueError, match="field"):
            MobilityConfig(field_width_m=side)

    def test_accepts_zero_pause_and_speed(self):
        cfg = MobilityConfig(speed_mps=0.0, pause_s=0.0)
        assert (cfg.speed_mps, cfg.pause_s) == (0.0, 0.0)
