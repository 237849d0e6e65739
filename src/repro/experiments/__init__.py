"""Experiment harness: scenario construction, sweeps and figure replication.

Scenario construction is declarative — a
:class:`~repro.scenariospec.ScenarioSpec` built by
:class:`~repro.builder.NetworkBuilder`; the historical ``build_network``
keyword API remains as a compatibility shim.  ``run_load_sweep``
replicates the paper's offered-load sweep over the four MAC protocols;
:mod:`repro.experiments.figure8` / :mod:`repro.experiments.figure9` regenerate
the paper's two evaluation figures; :mod:`repro.experiments.ranges`
reproduces the power-level ↔ range table; :mod:`repro.experiments.ablations`
probes the design constants the paper fixes by fiat.

The standing studies behind EXPERIMENTS.md (energy savings, churn
resilience, receiver-model sensitivity) are declarations in
:mod:`repro.studies`, run by ``repro study NAME``.
"""

from repro.experiments.saturation import SaturationPoint, find_saturation
from repro.experiments.scenario import (
    MAC_REGISTRY,
    BuiltNetwork,
    ExperimentResult,
    FlowSummary,
    build_network,
)
from repro.experiments.sweep import SweepResult, run_load_sweep, sweep_from_campaign

__all__ = [
    "MAC_REGISTRY",
    "BuiltNetwork",
    "ExperimentResult",
    "FlowSummary",
    "SaturationPoint",
    "SweepResult",
    "build_network",
    "find_saturation",
    "run_load_sweep",
    "sweep_from_campaign",
]
