"""The content-key contract: literal keys that must never move.

A result store addresses every cell by :meth:`ScenarioSpec.key`, so a key
that moves silently orphans every stored result under it.  The table below
was generated once and is compared literally; it covers every component
slot with params, nested tuples (``explicit`` positions, ``scripted``
fault rows), ``flow_pairs``, int-spelled numerics and the benchmark's
paper-static cell.

A property test then compares :meth:`ScenarioSpec.canonical` and
:meth:`ScenarioSpec.to_dict` byte for byte with the original
``dataclasses.asdict`` pipeline, kept verbatim below as the oracle.  The
one intended difference is pinned separately: an int with no exact float
(``2**53 + 1``) keeps its own key instead of colliding with a neighbour.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    MacConfig,
    MobilityConfig,
    PhyConfig,
    ScenarioConfig,
    TrafficConfig,
)
from repro.registry import SLOTS
from repro.scenariospec import (
    SCENARIO_SCHEMA_VERSION,
    ComponentSpec,
    ScenarioSpec,
    config_to_dict,
)


def _paper_static() -> ScenarioSpec:
    """The benchmark's first paper-static cell at seed 7."""
    base = replace(
        ScenarioConfig(),
        node_count=50,
        duration_s=8.0,
        seed=7,
        mobility=replace(
            MobilityConfig(), field_width_m=1000.0, field_height_m=1000.0
        ),
    )
    return ScenarioSpec.from_legacy(base, "basic", mobile=False)


def _every_slot() -> ScenarioSpec:
    """Params in all ten slots (hash-only: mac/mobility/routing/traffic
    declare no params, so this spec would not build)."""
    return ScenarioSpec(
        cfg=ScenarioConfig(node_count=12, duration_s=10.0, seed=3),
        mac=ComponentSpec("pcmac", tag="a"),
        placement=ComponentSpec("cluster", clusters=3, spread_m=40.0),
        mobility=ComponentSpec("waypoint", pause_jitter_s=0.5),
        routing=ComponentSpec("aodv", hello=False),
        traffic=ComponentSpec("poisson", burst=2),
        propagation=ComponentSpec("log_distance", exponent=3.0, shadowing_db=4.0),
        energy=ComponentSpec("wavelan", battery_j=(30.0, 40.0, 50.0)),
        observability=ComponentSpec(
            "flight", interval_s=0.5, gauges=("queue",), profile=False
        ),
        faults=ComponentSpec("churn", crash_count=2, exclude=(0, 1)),
        reception=ComponentSpec("sinr", capture_threshold_db=10.0),
    )


def _explicit_chain() -> ScenarioSpec:
    """Nested position tuples, static routing and explicit flow pairs."""
    return ScenarioSpec(
        cfg=ScenarioConfig(node_count=3, duration_s=5.0),
        mac="scheme1",
        placement=ComponentSpec(
            "explicit", positions=((0.0, 0.0), (100.0, 0.0), (200.0, 0.0))
        ),
        mobility="static",
        routing="static",
        flow_pairs=((0, 2), (2, 0)),
    )


def _int_spelled() -> ScenarioSpec:
    """Hand-written JSON with ints where the configs declare floats."""
    return ScenarioSpec.from_dict(
        {
            "cfg": {
                "node_count": 8,
                "duration_s": 5,
                "seed": 9,
                "traffic": {"offered_load_bps": 300000, "start_time_s": 1},
                "mobility": {"field_width_m": 600, "field_height_m": 600},
            },
            "components": {
                "placement": {"name": "line", "params": {"spacing_m": 150}},
                "mobility": "static",
            },
            "flow_pairs": [[0, 7]],
        }
    )


def _scripted_faults() -> ScenarioSpec:
    """Scripted fault rows: tuples of mixed ints and floats."""
    return ScenarioSpec.from_dict(
        {
            "cfg": {
                "node_count": 8,
                "duration_s": 40.0,
                "seed": 7,
                "traffic": {
                    "flow_count": 1,
                    "offered_load_bps": 100000.0,
                    "start_time_s": 0.5,
                },
                "mobility": {
                    "speed_mps": 0.0,
                    "field_width_m": 1400.0,
                    "field_height_m": 100.0,
                },
            },
            "components": {
                "mac": "pcmac",
                "placement": {"name": "line", "params": {"spacing_m": 180.0}},
                "mobility": "static",
                "faults": {
                    "name": "scripted",
                    "params": {
                        "crashes": [[3, 10.0, 22.0]],
                        "noise_bursts": [[28.0, 32.0, 1e-9]],
                        "link_fades": [[1, 2, 5.0, 9.0, 0.25]],
                        "corrupt": [[12.0, 14.0, 0.1]],
                        "resilience_interval_s": 1.0,
                    },
                },
            },
            "flow_pairs": [[0, 7]],
        }
    )


def _dense_sinr() -> ScenarioSpec:
    """The benchmark's dense-sinr field at seed 7 (SINR reception slot)."""
    return ScenarioSpec.from_dict(
        {
            "cfg": {
                "node_count": 16,
                "duration_s": 30.0,
                "seed": 7,
                "traffic": {"flow_count": 6, "offered_load_bps": 400000.0},
                "mobility": {
                    "speed_mps": 0.0,
                    "field_width_m": 250.0,
                    "field_height_m": 250.0,
                },
            },
            "components": {
                "placement": {
                    "name": "cluster",
                    "params": {"clusters": 3, "spread_m": 40.0},
                },
                "mobility": "static",
                "reception": "sinr",
            },
            "flow_pairs": [[0, 13], [4, 9], [7, 2], [10, 5], [14, 1], [3, 11]],
        }
    )


SPECS = {
    "default": ScenarioSpec,
    "paper-static": _paper_static,
    "every-slot": _every_slot,
    "explicit-chain": _explicit_chain,
    "int-spelled": _int_spelled,
    "scripted-faults": _scripted_faults,
    "dense-sinr": _dense_sinr,
}

KEYS = {
    "default": "e80dfa07e30f8e706fcdbb683d2afc7a",
    "dense-sinr": "2de444cec051bd532644720183d460c3",
    "every-slot": "26732e8e96d73877c847f004b6456358",
    "explicit-chain": "56ee62c52a6e764bb540b7c0eeb9bceb",
    "int-spelled": "4dabbbf99ed34e5ebfaa42540f464554",
    "paper-static": "e3a48bce40261cc22d490635bdbeaa8b",
    "scripted-faults": "cf355b0e4e53e8a52075e715fb7ad72c",
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_key_is_pinned(name):
    assert SPECS[name]().key() == KEYS[name]


# ---------------------------------------------------------------------------
# Large ints
# ---------------------------------------------------------------------------


def _seeded(seed) -> ScenarioSpec:
    return ScenarioSpec(cfg=ScenarioConfig(seed=seed))


def test_ints_past_float_precision_key_apart():
    """Seeds 2**53 and 2**53 + 1 are different runs and need two keys; a
    float-exact int keys as its float did."""
    assert _seeded(2**53).key() != _seeded(2**53 + 1).key()
    assert _seeded(2**53 + 1).canonical()["cfg"]["seed"] == 2**53 + 1
    assert _seeded(2**60).key() == _seeded(float(2**60)).key()


def test_int_too_large_for_a_float_keys():
    assert _seeded(10**400).key() != _seeded(10**400 + 1).key()


# ---------------------------------------------------------------------------
# Oracle: the original serialisation, verbatim
# ---------------------------------------------------------------------------


def _jsonable(value):
    """Recursively convert tuples to lists (JSON-ready spec values)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


def _normalize_numbers(value):
    """Render every non-bool number as float (hash pre-image only)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, list):
        return [_normalize_numbers(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize_numbers(v) for k, v in value.items()}
    return value


def oracle_config_to_dict(cfg):
    return _jsonable(dataclasses.asdict(cfg))


def oracle_component_to_dict(spec):
    return {"name": spec.name, "params": _jsonable(spec.params_dict)}


def oracle_to_dict(spec):
    return {
        "schema": SCENARIO_SCHEMA_VERSION,
        "cfg": oracle_config_to_dict(spec.cfg),
        "components": {
            slot: oracle_component_to_dict(c)
            for slot, c in spec.components().items()
        },
        "flow_pairs": _jsonable(spec.flow_pairs),
    }


def oracle_canonical(spec):
    return _normalize_numbers(oracle_to_dict(spec))


def canonical_bytes(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Specs for the property test
# ---------------------------------------------------------------------------

#: Ints whose float is exact: the range the oracle keys correctly.
exact_ints = st.integers(-(2**53), 2**53) | st.integers(0, 2**20).map(
    lambda k: k << 60
)
any_floats = st.floats(allow_nan=True, allow_infinity=True)
numbers = exact_ints | any_floats
positive = st.integers(1, 10**6) | st.floats(1e-3, 1e6)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=6)
param_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12
)
components = st.builds(
    ComponentSpec.of,
    st.sampled_from(["basic", "pcmac", "line", "explicit", "scripted", "x"]),
    st.dictionaries(
        st.text("abcdefgh_", min_size=1, max_size=8), param_values, max_size=4
    ),
)


@st.composite
def configs(draw) -> ScenarioConfig:
    levels = sorted(draw(st.lists(positive, min_size=1, max_size=4)))
    return ScenarioConfig(
        node_count=draw(st.integers(2, 2000)),
        duration_s=draw(positive),
        seed=draw(exact_ints),
        phy=PhyConfig(
            power_levels_w=tuple(levels),
            noise_floor_w=draw(any_floats),
            model_propagation_delay=draw(st.booleans()),
        ),
        mac=MacConfig(cw_min=draw(st.integers(1, 63)), cw_max=1023),
        traffic=TrafficConfig(
            flow_count=draw(st.integers(1, 20)),
            offered_load_bps=draw(positive),
            start_time_s=draw(any_floats),
        ),
        mobility=MobilityConfig(speed_mps=draw(st.integers(0, 20) | st.floats(0, 20))),
    )


@st.composite
def specs(draw) -> ScenarioSpec:
    slots = draw(st.fixed_dictionaries({}, optional={s: components for s in SLOTS}))
    pairs = draw(
        st.none()
        | st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=4)
    )
    return ScenarioSpec(
        cfg=draw(configs()),
        flow_pairs=None if pairs is None else tuple(pairs),
        **slots,
    )


@given(specs())
def test_canonical_bytes_match_the_oracle(spec):
    blob = canonical_bytes(oracle_canonical(spec))
    assert canonical_bytes(spec.canonical()) == blob
    assert spec.key() == hashlib.sha256(blob).hexdigest()[:32]


@given(specs())
def test_to_dict_matches_the_oracle(spec):
    # Order-sensitive and type-exact: a stored ``scenario`` dict must not
    # change by a byte.
    assert json.dumps(spec.to_dict()) == json.dumps(oracle_to_dict(spec))
    assert json.dumps(config_to_dict(spec.cfg)) == json.dumps(
        oracle_config_to_dict(spec.cfg)
    )


def test_oracle_agrees_on_nan():
    spec = ScenarioSpec(
        cfg=ScenarioConfig(traffic=TrafficConfig(start_time_s=math.nan))
    )
    assert canonical_bytes(spec.canonical()) == canonical_bytes(
        oracle_canonical(spec)
    )
