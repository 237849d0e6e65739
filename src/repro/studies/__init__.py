"""Standing studies: the claims behind EXPERIMENTS.md, one declaration each.

``STUDIES`` maps a study's name to its grid.  ``repro study NAME`` runs it
through :func:`run_study` and writes ``studies/NAME.json``;
``tools/make_experiments_md.py`` renders each committed snapshot, and the
tier-1 suite holds each to its study's :meth:`~Study.check`.  Changing a
grid here is a code change that regenerates its snapshot.
"""

from repro.studies.base import (
    SNAPSHOT_DIR,
    Study,
    fingerprint,
    run_study,
)
from repro.studies.capture_study import CaptureStudy
from repro.studies.chaos_resilience import ChaosResilience
from repro.studies.energy_savings import EnergySavings

#: Every standing study, in EXPERIMENTS.md order.
STUDIES: dict[str, Study] = {
    s.name: s
    for s in (
        # 300 kbps, the paper's lowest Figure 8 load: below saturation.
        EnergySavings(nodes=50, duration_s=40.0, load_kbps=300.0, seeds=(1, 2, 3)),
        ChaosResilience(
            nodes=50, duration_s=40.0, load_kbps=300.0, seeds=(1, 2, 3),
            crashes_per_run=3, downtime_s=8.0,
        ),
        # 1600 kbps saturates both protocols on the dense 250 m field.
        CaptureStudy(
            nodes=16, duration_s=15.0, load_kbps=1600.0, seeds=(1, 2, 3),
            field_m=250.0,
        ),
    )
}

__all__ = [
    "SNAPSHOT_DIR",
    "STUDIES",
    "Study",
    "fingerprint",
    "run_study",
]
