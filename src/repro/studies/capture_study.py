"""Capture study: does the reception model change the protocol verdict?

The paper's BASIC-vs-PCM comparison rides on NS-2's threshold receiver: a
frame decodes iff it clears the lock threshold and stays ``CPThresh`` above
each interferer *pairwise*.  On a dense field that model is generous —
several sub-threshold interferers can sum to more noise than any one of
them — and generous in a way that interacts with power control: PCM's
reduced data powers sit closer to the decode margin, so a stricter receiver
should tax PCM and BASIC differently.

This standing study quantifies that modelling risk.  The same dense
clustered field runs under both protocols with the ``null`` (threshold) and
``sinr`` (cumulative-interference, capture-aware) reception components,
seed-averaged.  Reported per cell: throughput, delivery, and the typed drop
ledger the SINR receiver keeps; the headline number is the **BASIC−PCM
throughput gap under each model** — if the gap moves materially (or flips
sign) when the receiver gets honest about interference, conclusions drawn
from the threshold model alone carry that error bar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from repro.analysis.report import markdown_table
from repro.analysis.stats import mean_confidence_interval
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.studies.base import Study, close, failed, is_ratio

#: The SINR receiver's typed discards, as ``MacStats`` totals name them.
_DROPS = ("drop_collision", "drop_capture_lost", "drop_below_sensitivity")


@dataclass(frozen=True)
class CaptureStudy(Study):
    """BASIC vs PCMAC on a dense static field, threshold vs SINR receiver.

    ``field_m`` is the square field's side: ~16 nodes in a square this
    tight keep most pairs inside carrier-sense range of each other, so
    overlapping transmissions — where the receivers disagree — are
    routine.  The load saturates both protocols, so decode decisions, not
    queueing slack, set the throughput.

    Claims :meth:`check` holds a snapshot to:

    * *threshold receiver types nothing*: every ``null``-reception cell
      has zero typed drops;
    * *SINR receiver types its losses*: every ``sinr`` cell has some;
    * *deliveries are ratios*: every delivery lies in [0, 1];
    * *delivered ≤ offered*: no cell's mean throughput exceeds the load;
    * *gaps add up*: each gap is basic − pcmac under its receiver, and
      the shift is the SINR gap less the threshold gap.
    """

    field_m: float

    name: ClassVar[str] = "capture_study"
    title: ClassVar[str] = (
        "Reception-model sensitivity — threshold vs cumulative SINR"
    )
    cells: ClassVar[tuple] = (
        ("basic", "null"), ("basic", "sinr"), ("pcmac", "null"), ("pcmac", "sinr"),
    )

    def config(self):
        cfg = super().config()
        return replace(cfg, mobility=replace(
            cfg.mobility,
            speed_mps=0.0,
            field_width_m=self.field_m,
            field_height_m=self.field_m,
        ))

    def scenario(self, cell, cfg):
        protocol, reception = cell
        return ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec(protocol),
            placement=ComponentSpec("cluster", clusters=3, spread_m=40.0),
            mobility=ComponentSpec("static"),
            reception=ComponentSpec(reception),
        )

    def summarise(self, groups):
        cells = []
        for (protocol, reception), results in groups.items():
            thr, thr_ci = mean_confidence_interval([r.throughput_kbps for r in results])
            pdr, pdr_ci = mean_confidence_interval([r.delivery_ratio for r in results])
            cells.append({
                "protocol": protocol,
                "reception": reception,
                "seeds": list(self.seeds),
                "throughput_kbps": thr,
                "throughput_ci": thr_ci,
                "delivery": pdr,
                "delivery_ci": pdr_ci,
                **{d: int(sum(r.mac_totals["rx_" + d] for r in results))
                   for d in _DROPS},
            })
        return {"cells": cells, **_gaps(cells)}

    def check(self, snapshot):
        cells = snapshot["cells"]
        load = snapshot["config"]["load_kbps"]
        gaps = _gaps(cells)
        return failed({
            "threshold receiver types nothing: no drops on null cells": all(
                c[d] == 0 for c in cells if c["reception"] == "null" for d in _DROPS
            ),
            "sinr receiver types its losses: drops on every sinr cell": all(
                sum(c[d] for d in _DROPS) > 0
                for c in cells if c["reception"] == "sinr"
            ),
            "deliveries are ratios in [0, 1]": all(
                is_ratio(c["delivery"]) for c in cells
            ),
            "delivered <= offered: throughput stays within the offered load": all(
                c["throughput_kbps"] <= load for c in cells
            ),
            "gaps add up: basic - pcmac per receiver, shift sinr - null": all(
                close(snapshot[k], v) for k, v in gaps.items()
            ),
        })

    def body(self, snapshot):
        cfg = snapshot["config"]
        rows = []
        for c in snapshot["cells"]:
            sinr = c["reception"] == "sinr"
            rows.append([
                c["protocol"],
                c["reception"],
                f"{c['throughput_kbps']:.1f} ± {c['throughput_ci']:.1f}",
                f"{c['delivery']:.3f} ± {c['delivery_ci']:.3f}",
                *(c[d] if sinr else "—" for d in _DROPS),
            ])
        return (
            f"The same dense clustered field ({cfg['nodes']} nodes on "
            f"{cfg['field_m']:g}×{cfg['field_m']:g} m, {cfg['duration_s']:g} s, "
            f"{cfg['load_kbps']:g} kbps offered — saturating), run under the "
            "paper's NS-2 threshold receiver (`reception=null`) and the "
            "cumulative-interference SINR state machine (`reception=sinr`, "
            "see docs/phy-models.md), seeds "
            f"{cfg['seeds']}, mean ± 95 % CI.  Drop columns are the SINR "
            "receiver's typed loss ledger summed over nodes and seeds.\n\n"
            + markdown_table(
                ["protocol", "reception", "thr [kbps]", "delivery",
                 "collision", "capture lost", "below sens."],
                rows,
            )
            + f"\n\n- BASIC − PCM throughput gap: **{snapshot['gap_null_kbps']:+.1f} "
            f"kbps** under the threshold receiver, "
            f"**{snapshot['gap_sinr_kbps']:+.1f} kbps** under SINR — the model "
            f"choice moves the protocol comparison by "
            f"**{snapshot['gap_shift_kbps']:+.1f} kbps**\n"
            "- a shifted (or flipped) gap is the modelling risk this section "
            "tracks: conclusions drawn from the threshold receiver alone carry "
            "at least this error bar"
        )


def _gaps(cells: list[dict]) -> dict[str, float]:
    """BASIC − PCM throughput gap per receiver, and how far SINR moves it."""
    thr = {(c["protocol"], c["reception"]): c["throughput_kbps"] for c in cells}
    null = thr["basic", "null"] - thr["pcmac", "null"]
    sinr = thr["basic", "sinr"] - thr["pcmac", "sinr"]
    return {"gap_null_kbps": null, "gap_sinr_kbps": sinr, "gap_shift_kbps": sinr - null}
