"""Resilience under churn: BASIC vs PCM with the same crash schedule.

The paper's claim is about steady-state efficiency; this standing study
asks the robustness question next to it: when relay nodes crash and rejoin
mid-run, does per-frame power control make the network *more fragile*?
Shorter links mean longer routes, so a single relay crash severs more
paths — the study quantifies whether PCM's delivery degrades more inside
fault windows and whether it takes longer to reroute.

Both protocols run the identical scenario at equal offered load with the
**identical** crash schedule: the ``churn`` faults component draws crash
victims and times from the dedicated ``"faults"`` RNG stream, which depends
only on the seed — not on the MAC — so at a given seed BASIC and PCM see
the same nodes die at the same instants.  Flow endpoints are excluded from
the victim pool (``pick_flow_pairs`` is deterministic per seed, so the
endpoints are known before the run), which keeps every crash a *relay*
crash: delivery loss then measures routing disruption, not a dead sender.

Reported per protocol, seed-averaged with 95 % confidence half-widths:
delivery ratio inside vs. outside fault windows, the degradation fraction,
and mean time-to-reroute / time-to-recover after each crash (from the
:class:`~repro.faults.resilience.ResilienceReport` each cell carries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.analysis.report import markdown_table
from repro.analysis.stats import mean_confidence_interval
from repro.builder import pick_flow_pairs
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.sim.rng import RngRegistry
from repro.studies.base import Study, close, failed, is_ratio

#: Crashes land inside this fraction of the run, leaving room before the
#: first crash for routes to form and room after the last rejoin to recover.
CRASH_WINDOW = (0.25, 0.6)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _degradation(during: float, outside: float) -> float:
    """Fractional delivery loss inside fault windows vs. outside."""
    return 1.0 - during / outside if outside > 0 else 0.0


@dataclass(frozen=True)
class ChaosResilience(Study):
    """BASIC vs PCMAC under seeded relay crashes at one load.

    Claims :meth:`check` holds a snapshot to:

    * *identical crash schedule*: both protocols record
      ``crashes_per_run`` crashes per seed;
    * *every crash rerouted*: each crash was followed by a delivery
      (``rerouted == crashes``);
    * *deliveries are ratios*: every delivery lies in [0, 1];
    * *crashes cost delivery*: delivery inside fault windows is no higher
      than outside (degradation ≥ 0);
    * *degradation adds up*: each degradation is 1 − during/outside and
      the gap is basic − pcmac.
    """

    crashes_per_run: int
    downtime_s: float

    name: ClassVar[str] = "chaos_resilience"
    title: ClassVar[str] = (
        "Resilience under churn — BASIC vs PCM with identical crashes"
    )
    cells: ClassVar[tuple] = ("basic", "pcmac")

    def scenario(self, protocol, cfg):
        # The victim pool excludes the seed's flow endpoints (the builder's
        # own draw), so every crash hits a relay.
        pairs = pick_flow_pairs(
            RngRegistry(cfg.seed), cfg.node_count, cfg.traffic.flow_count
        )
        return ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec(protocol),
            faults=ComponentSpec(
                "churn",
                crash_count=self.crashes_per_run,
                window_start_s=cfg.duration_s * CRASH_WINDOW[0],
                window_end_s=cfg.duration_s * CRASH_WINDOW[1],
                downtime_s=self.downtime_s,
                exclude=tuple(sorted({n for pair in pairs for n in pair})),
            ),
        )

    def summarise(self, groups):
        protocols = {}
        for protocol, results in groups.items():
            if any(r.resilience is None for r in results):
                raise RuntimeError(
                    "chaos_resilience cells must carry a ResilienceReport "
                    "(stale store entry from a fault-free run?)"
                )
            during, during_ci = mean_confidence_interval(
                [r.resilience.delivery_during_faults for r in results]
            )
            outside, outside_ci = mean_confidence_interval(
                [r.resilience.delivery_outside_faults for r in results]
            )
            crashes = [c for r in results for c in r.resilience.crashes]
            reroutes = [c.reroute_s for c in crashes if c.reroute_s is not None]
            protocols[protocol] = {
                "seeds": list(self.seeds),
                "throughput_kbps": _mean([r.throughput_kbps for r in results]),
                "delivery_during": during,
                "delivery_during_ci": during_ci,
                "delivery_outside": outside,
                "delivery_outside_ci": outside_ci,
                "degradation": _degradation(during, outside),
                "crashes": len(crashes),
                "rerouted": len(reroutes),
                "mean_reroute_s": _mean(reroutes),
                "mean_recovery_s": _mean(
                    [c.recovery_s for c in crashes if c.recovery_s is not None]
                ),
            }
        return {
            "protocols": protocols,
            "degradation_gap": (
                protocols["basic"]["degradation"]
                - protocols["pcmac"]["degradation"]
            ),
        }

    def check(self, snapshot):
        protos = snapshot["protocols"]
        expected = self.crashes_per_run * len(snapshot["config"]["seeds"])
        return failed({
            "identical crash schedule: crashes_per_run crashes per seed each": all(
                q["crashes"] == expected for q in protos.values()
            ),
            "every crash rerouted: rerouted == crashes": all(
                q["rerouted"] == q["crashes"] for q in protos.values()
            ),
            "deliveries are ratios in [0, 1]": all(
                is_ratio(q["delivery_during"]) and is_ratio(q["delivery_outside"])
                for q in protos.values()
            ),
            "crashes cost delivery: delivery during faults <= outside": all(
                q["delivery_during"] <= q["delivery_outside"]
                for q in protos.values()
            ),
            "degradation adds up: 1 - during/outside, gap basic - pcmac": (
                all(close(q["degradation"], _degradation(
                        q["delivery_during"], q["delivery_outside"]))
                    for q in protos.values())
                and close(snapshot["degradation_gap"],
                          protos["basic"]["degradation"]
                          - protos["pcmac"]["degradation"])
            ),
        })

    def body(self, snapshot):
        cfg, protos = snapshot["config"], snapshot["protocols"]
        rows = [
            [
                name,
                f"{p['delivery_during']:.3f} ± {p['delivery_during_ci']:.3f}",
                f"{p['delivery_outside']:.3f} ± {p['delivery_outside_ci']:.3f}",
                f"{p['degradation']:+.1%}",
                f"{p['rerouted']}/{p['crashes']}",
                f"{p['mean_reroute_s']:.1f}",
                f"{p['mean_recovery_s']:.1f}",
            ]
            for name, p in protos.items()
        ]
        gap = snapshot["degradation_gap"]
        return (
            f"Deterministic relay churn at equal offered load: {cfg['nodes']} "
            f"nodes, {cfg['duration_s']:g} s, {cfg['load_kbps']:g} kbps, "
            f"{cfg['crashes_per_run']} relay crashes per run "
            f"({cfg['downtime_s']:g} s downtime each), seeds {cfg['seeds']} — "
            "both protocols see the *same* nodes die at the same instants "
            "(the crash schedule is drawn from the seeded `\"faults\"` stream, "
            "independent of the MAC), mean ± 95 % CI.\n\n"
            + markdown_table(
                ["protocol", "delivery (faults)", "delivery (clear)",
                 "degradation", "rerouted", "reroute [s]", "recovery [s]"],
                rows,
            )
            + f"\n\n- degradation gap (basic − pcmac): **{gap:+.1%}** — "
            f"{'PCM' if gap > 0 else 'BASIC'} holds its delivery up better "
            "inside fault windows\n"
            "- reroute/recovery times are bin-granular "
            "(1 s resilience sampling interval); see docs/faults.md for the "
            "fault model and determinism contract"
        )
