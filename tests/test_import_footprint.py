"""Import footprint: a simulation process never loads numpy, networkx or scipy.

Every campaign worker and CLI process imports the package, so a top-level
import of a heavy library costs each of them its memory and start-up time
(on CPython 3.11, numpy about 13 MB, networkx about 14 MB, and scipy.stats
about 66 MB and half a second).  networkx is only a test oracle, scipy is
imported inside the summary statistics that need it, and numpy only by the
three consumers of numpy-only distributions (cluster placement, Poisson
traffic and the churn crash plan).  A uniform-placement cell, static or
random-waypoint, draws from native streams alone.  The check runs in a
fresh interpreter, because this test process may have loaded any of them
already.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

_CHILD = """
import json
import sys

import repro
import repro.cli
import repro.fleet.worker
from repro.builder import NetworkBuilder
from repro.scenariospec import ScenarioSpec

mobility, routing, speed = json.loads(sys.argv[1])
spec = ScenarioSpec.from_dict({
    "cfg": {"node_count": 8, "duration_s": 2.0, "seed": 1,
            "traffic": {"flow_count": 2, "offered_load_bps": 200000.0},
            "mobility": {"speed_mps": speed, "pause_s": 0.5,
                         "field_width_m": 600.0, "field_height_m": 600.0}},
    "components": {"mac": {"name": "pcmac", "params": {}},
                   "mobility": {"name": mobility, "params": {}},
                   "routing": {"name": routing, "params": {}}},
})
result = NetworkBuilder(spec).build().run()
assert result.sent > 0, result
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("numpy", "networkx", "scipy"))
print(" ".join(loaded))
"""


@pytest.mark.parametrize(
    "mobility, routing, speed_mps",
    [("static", "static", 0.0), ("waypoint", "aodv", 20.0)],
)
def test_simulation_process_loads_no_heavy_library(mobility, routing, speed_mps):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([mobility, routing, speed_mps])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"heavy modules loaded: {proc.stdout}"
