"""The study harness: one declaration per standing experiment.

A :class:`Study` is a frozen dataclass whose fields are its grid (node
count, duration, offered load, seeds, plus the study's own knobs).  It
expands into :class:`~repro.campaign.spec.RunSpec` cells
(:meth:`Study.specs`), folds their results into a JSON-able snapshot
(:meth:`Study.reduce`), renders a snapshot as its EXPERIMENTS.md section
(:meth:`Study.render`) and lists the shape claims a snapshot breaks
(:meth:`Study.check`).  Changing a grid is a code change that regenerates
the snapshot: ``repro study NAME`` writes ``studies/NAME.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Sequence

from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.config import ScenarioConfig
from repro.scenariospec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.store import ResultStore
    from repro.experiments.scenario import ExperimentResult

#: Snapshot layout: 2 adds the smallest cell's result fingerprint.
SNAPSHOT_SCHEMA = 2

#: Where ``repro study NAME`` writes ``NAME.json`` (relative to the
#: working directory; the repo's snapshots live in ``<root>/studies``).
SNAPSHOT_DIR = "studies"


def fingerprint(result: "ExperimentResult") -> str:
    """SHA-256 of a result as canonical JSON (sorted keys, no whitespace),
    ``wallclock_s`` left out — the recipe the pinned result fingerprints use."""
    data = asdict(result)
    data.pop("wallclock_s")
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def failed(claims: dict[str, bool]) -> list[str]:
    """The names of the claims that do not hold."""
    return [claim for claim, holds in claims.items() if not holds]


def is_ratio(x: float) -> bool:
    """Whether ``x`` is a delivery-style ratio in [0, 1]."""
    return 0.0 <= x <= 1.0


def close(a: float, b: float) -> bool:
    """Equal up to float rounding (for derived snapshot fields)."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Study:
    """A standing experiment: a grid, a reducer, a renderer, its claims.

    Every cell of the grid runs once per seed.  ``cells`` lists the
    study's outer coordinates (protocols, or protocol × receiver pairs);
    specs expand with the seed innermost, and :meth:`reduce` hands the
    study's :meth:`summarise` one result list per coordinate.
    """

    nodes: int
    duration_s: float
    load_kbps: float
    seeds: tuple[int, ...]

    name: ClassVar[str]
    title: ClassVar[str]
    cells: ClassVar[tuple]

    # ---------------------------------------------------------- per study

    def scenario(self, cell: Any, cfg: ScenarioConfig) -> ScenarioSpec:
        """The scenario of one grid coordinate at one seeded config."""
        raise NotImplementedError

    def summarise(self, groups: dict[Any, list["ExperimentResult"]]) -> dict:
        """The study's measured fields, from each coordinate's results."""
        raise NotImplementedError

    def body(self, snapshot: dict) -> str:
        """The EXPERIMENTS.md section between its heading and Reproduce line."""
        raise NotImplementedError

    def check(self, snapshot: dict) -> list[str]:
        """The shape claims ``snapshot`` breaks (empty when all hold)."""
        raise NotImplementedError

    # ------------------------------------------------------------- shared

    def config(self) -> ScenarioConfig:
        """The base scenario config every cell shares (seed aside)."""
        return ScenarioConfig(node_count=self.nodes, duration_s=self.duration_s)

    def specs(self) -> list[RunSpec]:
        """Every cell of the grid: coordinates outermost, seed innermost."""
        cfg = self.config()
        cfg = replace(
            cfg,
            traffic=replace(cfg.traffic, offered_load_bps=self.load_kbps * 1000.0),
        )
        return [
            RunSpec(scenario=self.scenario(cell, replace(cfg, seed=seed)))
            for cell in self.cells
            for seed in self.seeds
        ]

    def reduce(self, results: Sequence["ExperimentResult"]) -> dict:
        """The snapshot of ``results``, given in :meth:`specs` order.

        Every cell of a study has the same size, so the first is a
        smallest; its fingerprint lets a later run confirm the committed
        numbers still come out of the simulator.
        """
        n = len(self.seeds)
        groups = {
            cell: list(results[i * n:(i + 1) * n])
            for i, cell in enumerate(self.cells)
        }
        return {
            "experiment": self.name,
            "schema": SNAPSHOT_SCHEMA,
            "generated_by": f"repro study {self.name}",
            "config": {**asdict(self), "seeds": list(self.seeds)},
            **self.summarise(groups),
            "fingerprint": {
                "key": self.specs()[0].key(),
                "sha256": fingerprint(results[0]),
            },
        }

    def render(self, snapshot: dict) -> str:
        """The snapshot's EXPERIMENTS.md section (no trailing newline)."""
        return (
            f"## {self.title}\n\n{self.body(snapshot)}\n\n"
            f"Reproduce: `python -m repro study {self.name} "
            f"--store results/{self.name}`"
        )


def run_study(
    study: Study,
    *,
    jobs: int = 1,
    store: "ResultStore | None" = None,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run (or resume) the study's grid through the campaign runner and
    reduce it to a snapshot."""
    specs = study.specs()
    report = run_specs(
        specs, jobs=jobs, store=store, resume=resume, progress=progress
    )
    missing = [s.label() for s in specs if s.key() not in report.results]
    if missing:
        raise RuntimeError(
            f"{study.name}: {len(missing)} cell(s) did not finish: "
            + ", ".join(missing)
            + "".join(
                f"\n  {e['label']}: {e['kind']}: {e['message']}"
                for e in report.errors.values()
            )
        )
    return study.reduce([report.results[s.key()] for s in specs])
