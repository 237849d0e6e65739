"""Layer sampling: known-answer attribution, signal state restored, reports
round-trip."""

from __future__ import annotations

import json
import signal
import threading
import types
from dataclasses import asdict

import pytest

from repro.campaign.spec import RunSpec
from repro.config import ScenarioConfig
from repro.obs.profile import INTERVAL, ProfileReport, Sampler, layer_of
from repro.obs.telemetry import run_with_heartbeat
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.sim.kernel import Simulator

#: Fewest samples the known-answer test needs, how many it aims for (the
#: 10-point band is then four standard errors of a 75 % share) and the
#: most CPU seconds it may spend getting them.
MIN_SAMPLES = 200
TARGET_SAMPLES = 300
MAX_CPU_S = 20.0


def _burner(module: str, name: str, iterations: int):
    """A handler ``name`` that burns ``iterations`` loop turns, defined in a
    scratch module called ``module`` (never imported, so ``sys.modules``
    stays as it is)."""
    scratch = types.ModuleType(module)
    exec(
        f"def {name}():\n"
        f"    x = 0\n"
        f"    for i in range({iterations}):\n"
        f"        x += i\n",
        scratch.__dict__,
    )
    return getattr(scratch, name)


@pytest.fixture
def sigprof_restored():
    """Leave SIGPROF's handler and timer as the test found them."""
    handler = signal.getsignal(signal.SIGPROF)
    timer = signal.getitimer(signal.ITIMER_PROF)
    yield
    signal.setitimer(signal.ITIMER_PROF, 0.0)
    signal.signal(signal.SIGPROF, handler)
    signal.setitimer(signal.ITIMER_PROF, *timer)


class TestKnownAnswer:
    def test_a_three_to_one_burn_reads_three_to_one(self):
        """Two handlers in two scratch modules, one under ``repro.mac`` and
        one under ``repro.net``, burn CPU 3:1: both the layer rows and the
        root-handler rows must split the samples 75/25 within 10 points."""
        heavy = _burner("repro.mac.scratch_burn", "burn_three", 60_000)
        light = _burner("repro.net.scratch_burn", "burn_one", 20_000)
        sim = Simulator()
        sampler = Sampler()
        t = 0.0
        while sampler.cpu_s < MAX_CPU_S and sum(sampler.layers.values()) < TARGET_SAMPLES:
            for _ in range(50):
                sim.schedule(t, heavy)
                sim.schedule(t, light)
                t += 1.0
            with sampler:
                sim.run_until(t)
        report = sampler.report(sim.events_executed)
        assert report.samples >= MIN_SAMPLES
        assert report.total_events == sim.events_executed
        layers = {r.name: r for r in report.layers}
        handlers = {r.name: r for r in report.handlers}
        assert layers["mac"].share == pytest.approx(0.75, abs=0.10)
        assert layers["net"].share == pytest.approx(0.25, abs=0.10)
        assert handlers["burn_three"].share == pytest.approx(0.75, abs=0.10)
        assert handlers["burn_one"].share == pytest.approx(0.25, abs=0.10)
        # Seconds are the measured CPU time split by share.
        assert sum(r.seconds for r in report.layers) == pytest.approx(report.cpu_s)
        assert layers["mac"].seconds == pytest.approx(
            report.cpu_s * layers["mac"].samples / report.samples
        )


class TestLayerOf:
    @pytest.mark.parametrize(
        "module, layer",
        [
            ("repro.sim.kernel", "sim"),
            ("repro.sim.rng", "sim"),
            ("repro.phy.channel", "phy.channel"),
            ("repro.phy.propagation", "phy.channel"),
            ("repro.phy.radio", "phy.radio"),
            ("repro.phy.noise", "phy.radio"),
            ("repro.phy.reception.sinr", "phy.reception"),
            ("repro.mac.base", "mac"),
            ("repro.core.pcmac", "core"),
            ("repro.net.aodv.protocol", "net"),
            ("repro.mobility.waypoint", "mobility"),
            ("repro.metrics.collector", "metrics"),
            ("repro.traffic.cbr", "traffic"),
            ("repro.energy.meter", "other"),
            ("repro.obs.probes", "other"),
        ],
    )
    def test_module_to_layer(self, module, layer):
        assert layer_of(module) == layer


@pytest.mark.usefixtures("sigprof_restored")
class TestSignalStateRestored:
    def _arm_previous(self):
        """Install a handler and a timer far enough out never to fire."""
        previous = lambda signum, frame: None  # noqa: E731 - a stand-in
        signal.signal(signal.SIGPROF, previous)
        signal.setitimer(signal.ITIMER_PROF, 100.0, 50.0)
        return previous

    def _assert_restored(self, previous):
        assert signal.getsignal(signal.SIGPROF) is previous
        remaining, interval = signal.getitimer(signal.ITIMER_PROF)
        # The kernel rounds timer values up to its tick.
        assert 90.0 < remaining <= 100.1 and interval == pytest.approx(50.0, abs=0.1)

    def test_after_a_run(self):
        previous = self._arm_previous()
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with Sampler():
            assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(INTERVAL)
            sim.run_until(2.0)
        self._assert_restored(previous)

    def test_after_a_handler_raises(self):
        previous = self._arm_previous()
        sim = Simulator()

        def boom():
            raise RuntimeError("handler failed")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError), Sampler():
            sim.run_until(2.0)
        self._assert_restored(previous)

    def test_when_samplers_nest(self):
        previous = self._arm_previous()
        outer, inner = Sampler(), Sampler()
        seen = []

        def nested_run():
            sim = Simulator()
            sim.schedule(1.0, lambda: seen.append(signal.getsignal(signal.SIGPROF)))
            with inner:
                sim.run_until(2.0)
            seen.append(signal.getsignal(signal.SIGPROF))
            seen.append(signal.getitimer(signal.ITIMER_PROF)[1])

        sim = Simulator()
        sim.schedule(1.0, nested_run)
        with outer:
            sim.run_until(2.0)
        assert seen == [inner._sample, outer._sample, pytest.approx(INTERVAL)]
        self._assert_restored(previous)

    def test_off_the_main_thread_it_samples_nothing(self):
        previous = self._arm_previous()
        reports = []

        def run():
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sampler = Sampler()
            with sampler:
                sim.run_until(2.0)
            reports.append(sampler.report(sim.events_executed))

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        (report,) = reports
        assert report.samples == 0 and report.layers == () and report.total_events == 1
        self._assert_restored(previous)


def _flight_spec() -> ScenarioSpec:
    return ScenarioSpec(
        cfg=ScenarioConfig(node_count=20, duration_s=4.0, seed=3),
        mac="pcmac",
        observability=ComponentSpec("flight", interval_s=1.0),
    )


class TestRunReports:
    def test_a_flight_run_carries_a_layer_report(self):
        result = _flight_spec().run()
        report = result.profile
        assert report.total_events == result.events_executed
        assert report.samples > 0
        assert sum(r.samples for r in report.layers) == report.samples
        assert sum(r.samples for r in report.handlers) == report.samples

    def test_a_sliced_run_samples_every_slice(self):
        whole = _flight_spec().run().profile
        sliced, _ = run_with_heartbeat(RunSpec(scenario=_flight_spec()), lambda p: None)
        assert sliced.profile.total_events == sliced.events_executed
        # Sampling only the final, empty run_until would read about 0 s.
        assert sliced.profile.cpu_s > 0.3 * whole.cpu_s


def _report() -> ProfileReport:
    sampler = Sampler()
    sampler.cpu_s = 2.0
    sampler.layers = {"mac": 3, "sim": 1}
    sampler.handlers = {"Radio.signal_end": 2, "sim": 1, "_MacTimer.__call__": 1}
    return sampler.report(total_events=1234)


class TestProfileReport:
    def test_rows_sorted_by_samples_with_cpu_split_by_share(self):
        report = _report()
        assert report.samples == 4
        assert [(r.name, r.samples, r.share, r.seconds) for r in report.layers] == [
            ("mac", 3, 0.75, 1.5), ("sim", 1, 0.25, 0.5)
        ]
        assert [r.name for r in report.handlers] == [
            "Radio.signal_end", "_MacTimer.__call__", "sim"
        ]

    def test_json_round_trip(self):
        report = _report()
        rebuilt = ProfileReport.from_payload(json.loads(json.dumps(asdict(report))))
        assert rebuilt == report

    def test_table_shows_layers_then_top_handlers(self):
        table = _report().table(top=2)
        lines = table.splitlines()
        assert lines[0].split() == ["layer", "samples", "share", "cpu", "[s]"]
        assert lines[1].split()[:2] == ["mac", "3"]
        assert lines[3].startswith("total") and "1,234 events" in lines[3]
        assert lines[5].split()[:2] == ["root", "handler"]
        assert len(lines) == 8  # header, 2 layers, total, gap, header, top 2

    def test_an_empty_report_renders(self):
        report = Sampler().report(total_events=0)
        assert report.samples == 0 and report.layers == () and report.handlers == ()
        assert "total" in report.table()
