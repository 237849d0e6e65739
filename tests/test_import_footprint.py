"""Import footprint: a simulation process never loads networkx or scipy.

Every campaign worker and CLI process imports the package, so a top-level
import of a heavy library costs each of them its memory and start-up time
(on CPython 3.11, networkx about 14 MB, and scipy.stats about 66 MB and
half a second).  networkx is only a test oracle, and scipy is imported
inside the summary statistics that need it.  The check runs in a fresh
interpreter, because this test process may have loaded either library
already.
"""

from __future__ import annotations

import subprocess
import sys

_CHILD = """
import sys

import repro
import repro.cli
import repro.fleet.worker
from repro.builder import NetworkBuilder
from repro.scenariospec import ScenarioSpec

spec = ScenarioSpec.from_dict({
    "cfg": {"node_count": 8, "duration_s": 2.0, "seed": 1,
            "traffic": {"flow_count": 2, "offered_load_bps": 200000.0},
            "mobility": {"speed_mps": 0.0, "field_width_m": 600.0,
                         "field_height_m": 600.0}},
    "components": {"mac": {"name": "pcmac", "params": {}},
                   "mobility": {"name": "static", "params": {}},
                   "routing": {"name": "static", "params": {}}},
})
result = NetworkBuilder(spec).build().run()
assert result.sent > 0, result
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("networkx", "scipy"))
print(" ".join(loaded))
"""


def test_simulation_process_loads_neither_networkx_nor_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"heavy modules loaded: {proc.stdout}"
