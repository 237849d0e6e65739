"""Layer attribution by sampling: where a run's CPU seconds go.

A :class:`Sampler` arms a ``SIGPROF`` timer on the process's CPU time
(``ITIMER_PROF``) around ``run_until``; each tick it reads the
interrupted frames and nothing else, so the event schedule cannot change.
The innermost frame of a ``repro`` module picks the *layer*, named as
``bench/layers.py`` names them (:func:`layer_of`).  The frame the
kernel's dispatch loop called picks the *root handler*, by qualified
name; a sample in the loop itself, or outside it, counts as ``sim``.

The timer fires at most once per kernel tick (a 1 ms request gave one
sample per 4 ms of CPU on a 250 Hz Linux host), so a row's seconds are
the measured CPU time times its share, not samples times the interval.
``setitimer`` and ``signal.signal`` are POSIX and main-thread only;
elsewhere a sampler takes no samples.  docs/observability.md has the
cost, and the bias toward frames that loop or call.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from time import process_time
from typing import Any, Mapping

from repro.sim.kernel import Simulator

#: Requested sampling period [s of CPU]; the kernel tick may stretch it.
#: At most 250 samples per CPU second keep the handler's cost below 1 %.
INTERVAL = 0.004

#: Layer of each listed ``repro`` package or module; a module takes the
#: entry of its longest listed prefix.
_LAYERS = {
    "repro.sim": "sim",
    "repro.phy": "phy.radio",
    "repro.phy.channel": "phy.channel",
    "repro.phy.propagation": "phy.channel",
    "repro.phy.reception": "phy.reception",
    "repro.mac": "mac",
    "repro.core": "core",
    "repro.net": "net",
    "repro.mobility": "mobility",
    "repro.metrics": "metrics",
    "repro.traffic": "traffic",
}

#: Code objects of the dispatch loops that call event handlers.
_LOOPS = frozenset((Simulator._run_fused.__code__, Simulator._run_reference.__code__))


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module's code (``other`` if none is listed)."""
    while module:
        layer = _LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return "other"


class Sampler:
    """Counts ``SIGPROF`` samples per layer and per root handler.

    A context manager around ``run_until``, entered once or per slice of a
    run: counts and CPU time add up.  Leaving disarms its timer and
    restores the handler and timer it found, also when the block raises,
    so samplers nest.  One sampler must not be entered while it is active.
    """

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.layers: dict[str, int] = {}
        self.handlers: dict[str, int] = {}
        self._saved: tuple | None = None
        self._t0 = 0.0

    def _sample(self, signum: int, frame: Any) -> None:
        layer = root = child = None
        while frame is not None:
            code = frame.f_code
            if layer is None:
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro."):
                    layer = layer_of(module)
            if code in _LOOPS:
                if child is not None:
                    root = getattr(child, "co_qualname", child.co_name)
                break
            child = code
            frame = frame.f_back
        layer = layer or "other"
        root = root or "sim"
        self.layers[layer] = self.layers.get(layer, 0) + 1
        self.handlers[root] = self.handlers.get(root, 0) + 1

    def __enter__(self) -> "Sampler":
        try:
            handler = signal.signal(signal.SIGPROF, self._sample)
        except (AttributeError, ValueError):  # no SIGPROF, or not the main thread
            self._saved = None
        else:
            timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
            self._saved = (handler, timer)
        self._t0 = process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.cpu_s += process_time() - self._t0
        if self._saved is not None:
            handler, timer = self._saved
            # Disarm first: a tick still pending then lands in this handler.
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, handler)
            signal.setitimer(signal.ITIMER_PROF, *timer)
            self._saved = None

    def report(self, total_events: int) -> "ProfileReport":
        """The samples so far, for a run that dispatched ``total_events``."""
        samples = sum(self.layers.values())

        def rows(counts: Mapping[str, int]) -> tuple[ProfileRow, ...]:
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            return tuple(
                ProfileRow(name, n, n / samples, self.cpu_s * n / samples)
                for name, n in ranked
            )

        return ProfileReport(
            total_events, samples, self.cpu_s, rows(self.layers), rows(self.handlers)
        )


@dataclass(frozen=True)
class ProfileRow:
    """One layer's or root handler's part of the samples: their number,
    their fraction of all samples, and that fraction of the CPU seconds."""

    name: str
    samples: int
    share: float
    seconds: float


@dataclass(frozen=True)
class ProfileReport:
    """Sampled CPU attribution of one run, by layer and by root handler,
    each sorted by samples, most first; ``cpu_s`` is the CPU time of the
    sampled region and ``total_events`` the events the run dispatched."""

    total_events: int
    samples: int
    cpu_s: float
    layers: tuple[ProfileRow, ...]
    handlers: tuple[ProfileRow, ...]

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ProfileReport":
        """Rebuild from the JSON shape ``dataclasses.asdict`` produced.

        A line stored by the per-label profiler (``attributed_s`` and
        ``entries`` of ``kind``/``calls``/``cum_s``) loads its entries as
        root-handler rows with their seconds, no samples and no layers.
        """
        if "entries" in payload:
            total = float(payload["attributed_s"])
            payload = {
                "total_events": payload["total_events"],
                "samples": 0,
                "cpu_s": total,
                "layers": (),
                "handlers": [
                    {"name": e["kind"], "samples": 0, "seconds": e["cum_s"],
                     "share": e["cum_s"] / total if total else 0.0}
                    for e in payload["entries"]
                ],
            }
        return cls(
            total_events=int(payload["total_events"]),
            samples=int(payload["samples"]),
            cpu_s=float(payload["cpu_s"]),
            layers=tuple(ProfileRow(**r) for r in payload["layers"]),
            handlers=tuple(ProfileRow(**r) for r in payload["handlers"]),
        )

    def table(self, top: int = 10) -> str:
        """The layer table and its total, then the ``top`` root handlers."""

        def section(title: str, rows: tuple[ProfileRow, ...]) -> list[str]:
            return [f"{title:<32} {'samples':>8} {'share':>6} {'cpu [s]':>8}"] + [
                f"{r.name:<32} {r.samples:>8,} {r.share:>6.1%} {r.seconds:>8.3f}"
                for r in rows
            ]

        total = (
            f"{'total':<32} {self.samples:>8,} {'':>6} {self.cpu_s:>8.3f}"
            f"  ({self.total_events:,} events)"
        )
        return "\n".join(
            [*section("layer", self.layers), total, "",
             *section("root handler", self.handlers[:top])]
        )
