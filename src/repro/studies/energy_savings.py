"""The paper's energy-savings claim: PCM vs BASIC at equal throughput.

The paper's central argument (and the related work it cites, [4][5][16])
is that per-frame power control saves transmit energy *without* giving up
throughput.  This study puts numbers on that claim in the paper's own
Section IV environment: the 50-node random-waypoint field, AODV, CBR
flows, offered load held **below saturation** so both protocols deliver
essentially the whole load — making their throughputs statistically
indistinguishable by construction — while the full-stack energy accounting
(:mod:`repro.energy`, WaveLAN draws) books what each protocol's radios
actually consumed.

Reported per protocol, seed-averaged with 95 % confidence half-widths:
throughput, aggregate electrical energy (all states), the per-state split,
radiated TX energy, and full-stack J/bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.analysis.report import markdown_table
from repro.analysis.stats import mean_confidence_interval
from repro.metrics.summary import summarise_energy
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.studies.base import Study, close, failed

#: Per-state energies averaged over seeds, as the snapshot names them.
_MEAN_FIELDS = ("tx_j", "rx_j", "idle_j", "radiated_j", "energy_per_bit_j")


def _welch_t(a: Sequence[float], b: Sequence[float]) -> float:
    """Welch's t statistic (0 for degenerate/zero-variance inputs)."""
    if len(a) < 2 or len(b) < 2:
        return 0.0
    from scipy import stats as _scipy_stats  # deferred, as in repro.analysis.stats

    t = float(_scipy_stats.ttest_ind(a, b, equal_var=False).statistic)
    # Identical per-seed throughputs (common below saturation) give scipy
    # a 0/0 → nan; report that as "no detectable difference".
    return t if math.isfinite(t) else 0.0


def _overlap(b: dict, p: dict) -> bool:
    """Whether two protocols' throughput 95 % CIs overlap."""
    return (
        abs(b["throughput_kbps"] - p["throughput_kbps"])
        <= b["throughput_ci_kbps"] + p["throughput_ci_kbps"]
    )


@dataclass(frozen=True)
class EnergySavings(Study):
    """BASIC vs PCMAC energy at one below-saturation load, WaveLAN draws.

    Claims :meth:`check` holds a snapshot to:

    * *equal throughput*: the two protocols' throughput 95 % CIs overlap,
      and ``throughput_indistinguishable`` says so;
    * *delivered ≤ offered*: neither protocol's mean throughput exceeds
      the offered load;
    * *radiated saving*: PCMAC radiates less than BASIC
      (``radiated_fraction`` > 0) — the quantity the paper's power
      control bounds;
    * *aggregate saving*: PCMAC draws less electrical energy in all
      (``aggregate_fraction`` > 0);
    * *energy books balance*: per protocol, tx + rx + idle = total (no
      radio sleeps in this scenario), and both saving fractions equal
      1 − pcmac/basic of the energies they summarise.
    """

    name: ClassVar[str] = "energy_savings"
    title: ClassVar[str] = "Energy savings at equal throughput"
    cells: ClassVar[tuple] = ("basic", "pcmac")

    def scenario(self, protocol, cfg):
        return ScenarioSpec(
            cfg=cfg, mac=ComponentSpec(protocol), energy=ComponentSpec("wavelan")
        )

    def summarise(self, groups):
        protocols = {}
        for protocol, results in groups.items():
            summaries = [summarise_energy(r) for r in results]
            if any(s is None for s in summaries):
                raise RuntimeError(
                    "energy_savings cells must run with a non-null energy "
                    "component (stale store entry without accounting?)"
                )
            thr, thr_ci = mean_confidence_interval([r.throughput_kbps for r in results])
            tot, tot_ci = mean_confidence_interval([s.total_j for s in summaries])
            protocols[protocol] = {
                "seeds": list(self.seeds),
                "throughput_kbps": thr,
                "throughput_ci_kbps": thr_ci,
                "total_j": tot,
                "total_ci_j": tot_ci,
                **{
                    f: sum(getattr(s, f) for s in summaries) / len(summaries)
                    for f in _MEAN_FIELDS
                },
            }
        b, p = protocols["basic"], protocols["pcmac"]
        return {
            "protocols": protocols,
            "savings": {
                "aggregate_fraction": 1.0 - p["total_j"] / b["total_j"],
                "radiated_fraction": 1.0 - p["radiated_j"] / b["radiated_j"],
                "throughput_welch_t": _welch_t(
                    [r.throughput_kbps for r in groups["basic"]],
                    [r.throughput_kbps for r in groups["pcmac"]],
                ),
                "throughput_indistinguishable": _overlap(b, p),
            },
        }

    def check(self, snapshot):
        protos, savings = snapshot["protocols"], snapshot["savings"]
        b, p = protos["basic"], protos["pcmac"]
        load = snapshot["config"]["load_kbps"]
        return failed({
            "equal throughput: basic and pcmac throughput CIs overlap": (
                _overlap(b, p) and savings["throughput_indistinguishable"]
            ),
            "delivered <= offered: throughput stays within the offered load": all(
                q["throughput_kbps"] <= load for q in protos.values()
            ),
            "radiated saving: pcmac radiates less than basic": (
                savings["radiated_fraction"] > 0
            ),
            "aggregate saving: pcmac draws less energy than basic": (
                savings["aggregate_fraction"] > 0
            ),
            "energy books balance: tx + rx + idle = total, savings match": (
                all(close(q["tx_j"] + q["rx_j"] + q["idle_j"], q["total_j"])
                    for q in protos.values())
                and close(savings["aggregate_fraction"],
                          1.0 - p["total_j"] / b["total_j"])
                and close(savings["radiated_fraction"],
                          1.0 - p["radiated_j"] / b["radiated_j"])
            ),
        })

    def body(self, snapshot):
        cfg, protos = snapshot["config"], snapshot["protocols"]
        savings = snapshot["savings"]
        rows = [
            [
                name,
                f"{p['throughput_kbps']:.1f} ± {p['throughput_ci_kbps']:.1f}",
                f"{p['total_j']:.0f} ± {p['total_ci_j']:.0f}",
                round(p["tx_j"], 1),
                round(p["rx_j"], 1),
                round(p["idle_j"], 1),
                round(p["radiated_j"], 2),
                round(p["energy_per_bit_j"] * 1e6, 1),
            ]
            for name, p in protos.items()
        ]
        verdict = (
            "statistically indistinguishable (overlapping 95 % CIs)"
            if savings["throughput_indistinguishable"]
            else "**distinct** (CIs do not overlap)"
        )
        return (
            f"The paper's headline claim, measured: {cfg['nodes']} nodes, "
            f"{cfg['duration_s']:g} s, {cfg['load_kbps']:g} kbps offered "
            f"(below saturation), seeds {cfg['seeds']} — WaveLAN per-state "
            "draws (see docs/model-assumptions.md), mean ± 95 % CI.\n\n"
            + markdown_table(
                ["protocol", "thr [kbps]", "total [J]", "tx [J]", "rx [J]",
                 "idle [J]", "radiated [J]", "J/Mbit (full stack)"],
                rows,
            )
            + f"\n\n- throughput: {verdict}, Welch t = "
            f"{savings['throughput_welch_t']:+.2f}\n"
            f"- PCMAC saves **{savings['aggregate_fraction']:.1%}** of BASIC's "
            "aggregate electrical energy (TX draw at reduced power levels + "
            "fewer overheard max-power frames to decode)\n"
            f"- PCMAC saves **{savings['radiated_fraction']:.1%}** of BASIC's "
            "radiated transmit energy — the quantity the paper's power-control "
            "argument bounds"
        )
