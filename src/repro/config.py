"""Configuration dataclasses for every layer of the simulated stack.

Defaults reproduce the paper's NS-2 (2.1b8a) environment: a Lucent WaveLAN
radio at 914 MHz, 2 Mbps data rate, two-ray ground propagation with decode /
carrier-sense ranges of 250 m / 550 m at the maximum (281.8 mW) power level,
IEEE 802.11 DSSS MAC timing, AODV routing and CBR/UDP traffic.

Every object is a frozen dataclass so a configuration can be shared between
nodes and hashed into experiment records without defensive copying.  Use
:func:`dataclasses.replace` to derive variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.units import MBPS, USEC

# ---------------------------------------------------------------------------
# PHY
# ---------------------------------------------------------------------------

#: The paper's ten discrete transmission power levels, in watts
#: (Section IV: 1, 2, 3.45, 4.8, 7.25, 10.6, 15, 36.6, 75.8, 281.8 mW).
PAPER_POWER_LEVELS_W: tuple[float, ...] = (
    1e-3,
    2e-3,
    3.45e-3,
    4.8e-3,
    7.25e-3,
    10.6e-3,
    15e-3,
    36.6e-3,
    75.8e-3,
    281.8e-3,
)

#: Decode ranges the paper associates with each power level (metres).
PAPER_POWER_RANGES_M: tuple[float, ...] = (
    40.0,
    60.0,
    80.0,
    90.0,
    100.0,
    110.0,
    120.0,
    150.0,
    180.0,
    250.0,
)


@dataclass(frozen=True)
class PhyConfig:
    """Physical-layer parameters (NS-2 WaveLAN defaults)."""

    #: Carrier frequency [Hz].
    frequency_hz: float = 914e6
    #: Payload bit rate of the data channel [bit/s].
    data_rate_bps: float = 2.0 * MBPS
    #: Rate used for the PLCP preamble+header and (conventionally) control
    #: frames [bit/s].
    basic_rate_bps: float = 1.0 * MBPS
    #: PLCP preamble + header airtime [s] (192 us for DSSS long preamble).
    plcp_overhead_s: float = 192.0 * USEC
    #: Minimum received power to decode a frame [W]
    #: (NS-2 RXThresh_: two-ray ground at 250 m with 281.8 mW).
    rx_threshold_w: float = 3.652e-10
    #: Minimum received power to sense carrier [W]
    #: (NS-2 CSThresh_: two-ray ground at 550 m with 281.8 mW).
    cs_threshold_w: float = 1.559e-11
    #: Capture threshold C_p — required SINR (linear) for successful decode
    #: (NS-2 CPThresh_ = 10).
    capture_threshold: float = 10.0
    #: Transmit/receive antenna gains (linear; NS-2 default 1.0).
    antenna_gain_tx: float = 1.0
    antenna_gain_rx: float = 1.0
    #: Antenna heights above ground [m] for the two-ray model.
    antenna_height_tx_m: float = 1.5
    antenna_height_rx_m: float = 1.5
    #: System loss factor L (linear; NS-2 default 1.0).
    system_loss: float = 1.0
    #: Discrete transmission power levels [W], ascending.
    power_levels_w: tuple[float, ...] = PAPER_POWER_LEVELS_W
    #: Receiver noise floor [W].  Kept small but positive so noise-tolerance
    #: arithmetic is well defined even with no interferers.
    noise_floor_w: float = 1e-13
    #: Received-power floor below which a signal is ignored entirely [W].
    #: The default equals ``cs_threshold_w``: NS-2 2.1b8a (the paper's
    #: platform) discards arrivals below the carrier-sense threshold, so
    #: they contribute neither carrier sense nor interference.  Lower this
    #: (e.g. to 1e-14) for a more physical cumulative-interference model —
    #: the orderings of Figures 8/9 are preserved, PCMAC's margin shrinks
    #: slightly.
    interference_floor_w: float = 1.559e-11
    #: Whether propagation delay is modelled (distance / c).  NS-2 models it;
    #: it is negligible at these scales but keeps event ordering honest.
    model_propagation_delay: bool = True

    @property
    def max_power_w(self) -> float:
        """The maximum (normal) transmission power level [W]."""
        return self.power_levels_w[-1]

    @property
    def min_power_w(self) -> float:
        """The minimum transmission power level [W]."""
        return self.power_levels_w[0]

    def __post_init__(self) -> None:
        if not self.power_levels_w:
            raise ValueError("power_levels_w must be non-empty")
        if list(self.power_levels_w) != sorted(self.power_levels_w):
            raise ValueError("power_levels_w must be ascending")
        if not self.rx_threshold_w > 0:
            raise ValueError(
                f"rx_threshold_w must be positive, got {self.rx_threshold_w!r}"
            )
        if self.rx_threshold_w <= self.cs_threshold_w:
            raise ValueError(
                "rx_threshold_w must exceed cs_threshold_w "
                f"({self.rx_threshold_w!r} <= {self.cs_threshold_w!r})"
            )
        if self.capture_threshold < 1.0:
            raise ValueError("capture_threshold must be >= 1 (linear SINR)")


# ---------------------------------------------------------------------------
# MAC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MacConfig:
    """IEEE 802.11 DSSS DCF timing and frame-size parameters."""

    #: Slot time [s].
    slot_time_s: float = 20.0 * USEC
    #: Short interframe space [s].
    sifs_s: float = 10.0 * USEC
    #: Minimum / maximum contention window (slots, 2^k - 1 values).
    cw_min: int = 31
    cw_max: int = 1023
    #: Retry limits (802.11: short for RTS/CTS exchanges, long for DATA).
    short_retry_limit: int = 7
    long_retry_limit: int = 4
    #: MAC frame sizes [bytes] (802.11 DSSS, incl. FCS).
    rts_size: int = 20
    cts_size: int = 14
    ack_size: int = 14
    #: MAC header + FCS overhead added to every DATA frame [bytes].
    data_overhead: int = 28
    #: Interface queue capacity [packets] (NS-2 drop-tail default).
    ifq_capacity: int = 50
    #: CTS arrival timeout after an RTS, in addition to the RTS airtime
    #: [s]; NS-2 uses SIFS + CTS airtime + slack.  Computed by MacTiming.
    timeout_slack_s: float = 25.0 * USEC

    @property
    def difs_s(self) -> float:
        """Distributed interframe space: SIFS + 2 slots."""
        return self.sifs_s + 2.0 * self.slot_time_s

    def __post_init__(self) -> None:
        if self.cw_min <= 0 or self.cw_max < self.cw_min:
            raise ValueError(
                f"invalid contention window bounds ({self.cw_min}, {self.cw_max})"
            )
        if self.short_retry_limit < 1 or self.long_retry_limit < 1:
            raise ValueError("retry limits must be >= 1")


# ---------------------------------------------------------------------------
# Power control (Schemes 1/2 + PCMAC)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerControlConfig:
    """Parameters shared by the power-controlled MAC variants."""

    #: Power history record lifetime [s] (paper: 3 seconds).
    history_expiry_s: float = 3.0
    #: Safety margin multiplying the decode threshold when computing the
    #: needed power from an observed gain.  >1 guards against the gain
    #: drifting (mobility) between observation and use.  The paper's formula
    #: is margin-free, but its *discrete level table* adds an implicit
    #: 1–2.4× cushion (each level covers a range band); 1.3 reproduces that
    #: average cushion.
    decode_margin: float = 1.3

    def __post_init__(self) -> None:
        if self.history_expiry_s <= 0.0:
            raise ValueError("history_expiry_s must be positive")
        if self.decode_margin < 1.0:
            raise ValueError("decode_margin must be >= 1")


@dataclass(frozen=True)
class PcmacConfig:
    """PCMAC-specific knobs (the paper's Section III choices)."""

    #: Bandwidth of the separate power control channel [bit/s].
    control_rate_bps: float = 500e3
    #: Fraction of the advertised noise tolerance a prospective transmitter
    #: may consume (paper: 0.7, leaving headroom for fluctuation and other
    #: contenders).
    margin_coefficient: float = 0.7
    #: Power-control-notification frame size [bytes]: 16-bit preamble +
    #: 8-bit node id + 16-bit noise tolerance + 8-bit FEC (Fig. 7) = 48 bits.
    pcn_size_bytes: int = 6
    #: PLCP-equivalent overhead on the control channel [s].  The PCN frame
    #: is engineered to be tiny; a short sync preamble is still needed.
    control_plcp_s: float = 48.0 * USEC
    #: Whether DATA frames also use the three-way (no-ACK) handshake.
    #: Disabled only by the ablation bench.
    three_way_data: bool = True
    #: How many times the receiver rebroadcasts its noise tolerance during
    #: one DATA reception (the paper broadcasts when reception begins; IS-95
    #: inspiration suggests periodic refresh).
    pcn_repeats: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.margin_coefficient <= 1.0):
            raise ValueError("margin_coefficient must be in (0, 1]")
        if self.control_rate_bps <= 0.0:
            raise ValueError("control_rate_bps must be positive")
        if self.pcn_repeats < 1:
            raise ValueError("pcn_repeats must be >= 1")


# ---------------------------------------------------------------------------
# Routing / traffic / mobility / scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AodvConfig:
    """AODV protocol constants (RFC 3561 names, NS-2-ish defaults)."""

    active_route_timeout_s: float = 10.0
    route_reply_wait_s: float = 1.0
    rreq_retries: int = 2
    net_diameter: int = 35
    node_traversal_time_s: float = 0.04
    #: Random jitter applied to RREQ rebroadcasts to de-synchronise floods.
    broadcast_jitter_s: float = 0.01
    #: How long a (src, bcast_id) pair is remembered for duplicate surpression.
    bcast_id_save_s: float = 6.0
    #: Hello-based neighbour sensing is disabled; link failures come from the
    #: MAC retry-exhaustion callback exactly as in NS-2's AODV default.
    use_hello: bool = False

    @property
    def net_traversal_time_s(self) -> float:
        """Expected time to traverse the network (RFC 3561)."""
        return 2.0 * self.node_traversal_time_s * self.net_diameter


@dataclass(frozen=True)
class TrafficConfig:
    """CBR/UDP workload parameters (paper Section IV)."""

    packet_size_bytes: int = 512
    flow_count: int = 10
    #: Aggregate offered load across all flows [bit/s].
    offered_load_bps: float = 600e3
    #: Application warm-up before sources start [s], staggered per flow.
    start_time_s: float = 1.0
    start_stagger_s: float = 0.1

    @property
    def per_flow_rate_bps(self) -> float:
        """Offered load of a single flow [bit/s]."""
        return self.offered_load_bps / self.flow_count

    @property
    def per_flow_interval_s(self) -> float:
        """Packet inter-departure time of one flow [s]."""
        return (self.packet_size_bytes * 8.0) / self.per_flow_rate_bps

    def __post_init__(self) -> None:
        if self.flow_count < 1:
            raise ValueError("flow_count must be >= 1")
        if self.packet_size_bytes <= 0:
            raise ValueError("packet_size_bytes must be positive")
        if self.offered_load_bps <= 0:
            raise ValueError("offered_load_bps must be positive")


@dataclass(frozen=True)
class MobilityConfig:
    """Random waypoint parameters (paper Section IV)."""

    speed_mps: float = 3.0
    pause_s: float = 3.0
    #: Field dimensions [m].
    field_width_m: float = 1000.0
    field_height_m: float = 1000.0

    def __post_init__(self) -> None:
        # Written as ``not (... >= 0)`` so that NaN, which fails every
        # comparison, is rejected too: the channel's spatial index and its
        # motion bound both trust this speed as an upper bound.
        if not (0.0 <= self.speed_mps < math.inf):
            raise ValueError("speed_mps must be finite and non-negative")
        if not (self.pause_s >= 0.0):
            raise ValueError("pause_s must be non-negative")
        if not (self.field_width_m > 0 and self.field_height_m > 0):
            raise ValueError("field dimensions must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Top-level experiment description, mirroring the paper's Section IV."""

    node_count: int = 50
    duration_s: float = 400.0
    seed: int = 1
    phy: PhyConfig = field(default_factory=PhyConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    power: PowerControlConfig = field(default_factory=PowerControlConfig)
    pcmac: PcmacConfig = field(default_factory=PcmacConfig)
    aodv: AodvConfig = field(default_factory=AodvConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
