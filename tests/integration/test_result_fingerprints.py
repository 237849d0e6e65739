"""Result fingerprints: twelve short cells pinned to the exact bytes they produce.

The differential suite compares two builds of the *same* code, so a change
made to both sides passes it.  These cells compare against the past
instead: each one's full :class:`~repro.metrics.ExperimentResult`, minus
``wallclock_s``, is hashed as canonical JSON (sorted keys, no whitespace —
the same recipe as ``bench/workloads.py::fingerprint``) and pinned below.

Between them the cells cover all four MACs (basic, Scheme 1, Scheme 2 and
PCMAC), the SINR receiver under basic and PCMAC, random waypoint mobility
under basic and PCMAC (moving from t = 0), crash/rejoin churn, injected
corruption with link fades and noise bursts, battery energy with node
deaths, an interference floor below carrier sense, and multi-hop static
routing whose flows have several equal-length shortest paths (so the
next-hop tie-break shows).  A change that is meant to keep results
bit-identical must leave every hash alone; a change that is allowed to
move results updates the hashes on purpose, in the same commit, saying
why.

Regenerate (only for an intended result change)::

    PYTHONPATH=src python tests/integration/test_result_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.builder import NetworkBuilder
from repro.scenariospec import ScenarioSpec


def _spec(mac: str, cfg: dict, **components) -> dict:
    return {"cfg": cfg,
            "components": {"mac": {"name": mac, "params": {}}, **components}}


_STATIC_FIELD = {"speed_mps": 0.0, "field_width_m": 600.0,
                 "field_height_m": 600.0}

#: label -> scenario spec dict (each runs in under 2 s).
CELLS: dict[str, dict] = {
    "basic-static": _spec(
        "basic",
        {"node_count": 16, "duration_s": 3.0, "seed": 3,
         "traffic": {"flow_count": 5, "offered_load_bps": 900000.0},
         "mobility": _STATIC_FIELD},
        mobility={"name": "static", "params": {}},
    ),
    "pcmac-static": _spec(
        "pcmac",
        {"node_count": 16, "duration_s": 3.0, "seed": 3,
         "traffic": {"flow_count": 5, "offered_load_bps": 900000.0},
         "mobility": _STATIC_FIELD},
        mobility={"name": "static", "params": {}},
    ),
    "pcmac-sinr-cluster": _spec(
        "pcmac",
        {"node_count": 12, "duration_s": 2.0, "seed": 11,
         "traffic": {"flow_count": 4, "offered_load_bps": 400000.0},
         "mobility": {"speed_mps": 0.0, "field_width_m": 250.0,
                      "field_height_m": 250.0}},
        placement={"name": "cluster",
                   "params": {"clusters": 3, "spread_m": 40.0}},
        mobility={"name": "static", "params": {}},
        reception={"name": "sinr", "params": {}},
    ),
    "scheme1-static": _spec(
        "scheme1",
        {"node_count": 16, "duration_s": 3.0, "seed": 3,
         "traffic": {"flow_count": 5, "offered_load_bps": 900000.0},
         "mobility": _STATIC_FIELD},
        mobility={"name": "static", "params": {}},
    ),
    "scheme2-static": _spec(
        "scheme2",
        {"node_count": 16, "duration_s": 3.0, "seed": 3,
         "traffic": {"flow_count": 5, "offered_load_bps": 900000.0},
         "mobility": _STATIC_FIELD},
        mobility={"name": "static", "params": {}},
    ),
    "basic-sinr-cluster": _spec(
        "basic",
        {"node_count": 12, "duration_s": 2.0, "seed": 11,
         "traffic": {"flow_count": 4, "offered_load_bps": 400000.0},
         "mobility": {"speed_mps": 0.0, "field_width_m": 250.0,
                      "field_height_m": 250.0}},
        placement={"name": "cluster",
                   "params": {"clusters": 3, "spread_m": 40.0}},
        mobility={"name": "static", "params": {}},
        reception={"name": "sinr", "params": {}},
    ),
    "basic-waypoint-churn": _spec(
        "basic",
        {"node_count": 14, "duration_s": 3.0, "seed": 5,
         "traffic": {"flow_count": 3, "offered_load_bps": 200000.0},
         "mobility": {"speed_mps": 15.0, "pause_s": 0.0,
                      "field_width_m": 500.0, "field_height_m": 500.0}},
        mobility={"name": "waypoint", "params": {}},
        faults={"name": "churn",
                "params": {"crash_count": 2, "downtime_s": 0.6}},
    ),
    "pcmac-waypoint": _spec(
        "pcmac",
        {"node_count": 14, "duration_s": 3.0, "seed": 5,
         "traffic": {"flow_count": 3, "offered_load_bps": 200000.0},
         "mobility": {"speed_mps": 15.0, "pause_s": 0.0,
                      "field_width_m": 500.0, "field_height_m": 500.0}},
        mobility={"name": "waypoint", "params": {}},
    ),
    # Below carrier sense the channel delivers arrivals too, so the EIFS
    # flags of a busy period see sub-threshold energy.
    "pcmac-lowered-floor": _spec(
        "pcmac",
        {"node_count": 16, "duration_s": 2.0, "seed": 3,
         "traffic": {"flow_count": 4, "offered_load_bps": 900000.0},
         "mobility": _STATIC_FIELD,
         "phy": {"interference_floor_w": 1e-14}},
        mobility={"name": "static", "params": {}},
    ),
    "pcmac-scripted-corruption": _spec(
        "pcmac",
        {"node_count": 8, "duration_s": 3.0, "seed": 7,
         "traffic": {"flow_count": 1, "offered_load_bps": 200000.0,
                     "start_time_s": 0.2},
         "mobility": {"speed_mps": 0.0, "field_width_m": 1400.0,
                      "field_height_m": 100.0}},
        placement={"name": "line", "params": {"spacing_m": 180.0}},
        mobility={"name": "static", "params": {}},
        faults={"name": "scripted", "params": {
            "crashes": [[3, 1.0, 1.8]],
            "noise_bursts": [[2.2, 2.5, 1e-9]],
            "link_fades": [[1, 2, 0.5, 1.5, 0.3]],
            "corrupt": [[0.4, 2.8, 0.2]],
        }},
    ),
    "pcmac-battery": _spec(
        "pcmac",
        {"node_count": 6, "duration_s": 4.0, "seed": 7,
         "traffic": {"flow_count": 1, "offered_load_bps": 300000.0,
                     "start_time_s": 0.2},
         "mobility": {"speed_mps": 0.0, "field_width_m": 1000.0,
                      "field_height_m": 100.0}},
        placement={"name": "line", "params": {"spacing_m": 180.0}},
        mobility={"name": "static", "params": {}},
        energy={"name": "wavelan", "params": {"battery_j": 3.0}},
    ),
    "pcmac-static-routing": _spec(
        "pcmac",
        {"node_count": 20, "duration_s": 3.0, "seed": 3,
         "traffic": {"flow_count": 6, "offered_load_bps": 600000.0},
         "mobility": {"speed_mps": 0.0, "field_width_m": 900.0,
                      "field_height_m": 900.0}},
        mobility={"name": "static", "params": {}},
        routing={"name": "static", "params": {}},
    ),
}

#: label -> SHA-256 of the canonical result JSON (see the module docstring).
FINGERPRINTS: dict[str, str] = {
    "basic-sinr-cluster": "607b852e21e3e9ae65577c36b72700f66e28ccba16ec0bd13abb09cf5801271b",
    "basic-static": "7885ea9f2be789547a702c0b2b1c94d86b3adc9784832d213454bf50de1b7de1",
    "basic-waypoint-churn": "c357dcffc510385d9d210ee137d7f1c97793f893935f65b090671fe1e6c3aab7",
    "pcmac-battery": "7e92d9a9f7a469820805d4d64f21e5f70c2bffd72ac69f7effcd244df7a7b20a",
    "pcmac-lowered-floor": "48d71ed87008e0ccab69d00589610027d4157a22b12affcd33dcca065283d4a5",
    "pcmac-scripted-corruption": "5561c4184b350f1d805dade6bf1a5fd3a65f825030cbc402745be5d9153a60fb",
    "pcmac-sinr-cluster": "ec78587562ef30e3e9b1245bbf03b747ffc4700268624c237611e9e8643a8d4a",
    "pcmac-static": "2c4265430546ed0b63263f13d80b2a6755f90e7aa6f38a5c8e268c5afccd1693",
    "pcmac-static-routing": "da8b7450ff4f13693170ba04cb5e3bf707f5e784d80f5a81b3f4c30df227c831",
    "pcmac-waypoint": "87f21694c8a1ec8db91c8c25a2637a3f8199dbc593f7e02d5369ff7abf47a045",
    "scheme1-static": "ed0859fd1fc73dc50808eb9d84fbeffcaf6e16dcfc5a6153a344d747a9a14ef8",
    "scheme2-static": "7d557dc0da16fa3abcca7ca94dd405179d3363b10cc8a164062668c88171a393",
}


def fingerprint_of(label: str) -> str:
    """Build and run one cell; the SHA-256 of its canonical result JSON."""
    data = asdict(NetworkBuilder(ScenarioSpec.from_dict(CELLS[label])).build().run())
    data.pop("wallclock_s")
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(CELLS))
def test_result_matches_pinned_fingerprint(label):
    assert fingerprint_of(label) == FINGERPRINTS[label], (
        f"{label}: results changed; run this module as a script to see the "
        "new hashes, and update them only for an intended result change"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name in sorted(CELLS):
        print(f'    "{name}": "{fingerprint_of(name)}",')
