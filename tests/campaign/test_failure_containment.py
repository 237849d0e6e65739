"""Failure containment: the campaign runner must outlive its workers.

A chaos campaign is exactly the kind of run that dies nine hours in, so
these tests pin the containment contract from ISSUE 7: worker exceptions
are retried with backoff and then recorded as structured errors (never a
dead campaign), hung workers are reaped by the per-cell timeout, stops are
cooperative, and errored cells re-run on resume because the store keeps
them out of the result index.
"""

from __future__ import annotations

import gc

import pytest

from repro.campaign.runner import error_record, run_specs
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.config import ScenarioConfig, TrafficConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec


def good_cell(seed: int, duration_s: float = 2.0) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=6,
        duration_s=duration_s,
        seed=seed,
        traffic=TrafficConfig(flow_count=1, offered_load_bps=50e3),
    )
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def doomed_cell(seed: int = 99) -> RunSpec:
    """Raises ValueError inside the worker: 1 position for 6 nodes."""
    cfg = ScenarioConfig(node_count=6, duration_s=2.0, seed=seed)
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec("basic"),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
    )


class TestSerialContainment:
    def test_error_is_recorded_not_raised(self):
        report = run_specs(
            [good_cell(1), doomed_cell(), good_cell(2)],
            retries=1,
            backoff_s=0.01,
        )
        assert len(report.results) == 2
        assert len(report.errors) == 1
        err = next(iter(report.errors.values()))
        assert err["kind"] == "ValueError"
        assert err["attempts"] == 2
        assert "positions" in err["message"]
        assert "Traceback" in err["traceback"]

    def test_zero_retries_records_first_failure(self):
        report = run_specs([doomed_cell()], retries=0, backoff_s=0.01)
        assert next(iter(report.errors.values()))["attempts"] == 1

    def test_should_stop_halts_between_cells(self):
        seen: list[str] = []
        report = run_specs(
            [good_cell(1), good_cell(2), good_cell(3)],
            progress=seen.append,
            should_stop=lambda: len(seen) >= 1,
        )
        assert report.stopped
        assert len(report.results) == 1

    def test_stop_cuts_retries_short(self):
        # Once shutdown is requested, a failing cell must be recorded
        # immediately instead of burning its remaining retry budget.
        stop = {"now": False}

        def stopping() -> bool:
            result = stop["now"]
            stop["now"] = True  # stop right after the first attempt fails
            return result

        report = run_specs(
            [doomed_cell()],
            retries=50,
            backoff_s=0.01,
            should_stop=stopping,
        )
        assert next(iter(report.errors.values()))["attempts"] <= 2


class TestPooledContainment:
    def test_dying_worker_is_retried_then_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = [good_cell(1), doomed_cell(), good_cell(2)]
        report = run_specs(
            specs, jobs=2, store=store, retries=2, backoff_s=0.01
        )
        assert len(report.results) == 2
        key = doomed_cell().key()
        assert report.errors[key]["attempts"] == 3
        assert store.error(key) is not None
        assert store.get(key) is None

    def test_resume_reruns_errored_cells_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = [good_cell(1), doomed_cell()]
        run_specs(specs, jobs=2, store=store, retries=0, backoff_s=0.01)

        ran: list[str] = []
        fresh = ResultStore(tmp_path / "store")
        report = run_specs(
            specs, jobs=2, store=fresh, retries=0, backoff_s=0.01,
            progress=ran.append,
        )
        assert doomed_cell().key() in report.errors
        assert sum("cached" in line for line in ran) == 1

    def test_stop_before_start_drops_all_queued_cells(self):
        report = run_specs(
            [good_cell(1), good_cell(2), good_cell(3)],
            jobs=2,
            should_stop=lambda: True,
        )
        assert report.stopped
        assert report.results == {}
        assert report.errors == {}

    def test_worker_init_resets_inherited_signal_handlers(self):
        # Forked workers inherit the CLI's SIGINT/SIGTERM handlers.  The
        # initializer must shield SIGINT (so Ctrl-C drains instead of
        # killing in-flight cells) and restore SIGTERM to the default —
        # an inherited no-kill handler would neuter Pool.terminate() and
        # leave the parent blocked forever in pool.join().
        import signal

        from repro.campaign.runner import _init_worker

        def handler(signum, frame):  # pragma: no cover - never fired
            pass

        old_int = signal.signal(signal.SIGINT, handler)
        old_term = signal.signal(signal.SIGTERM, handler)
        try:
            _init_worker(None)
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGINT, old_int)
            signal.signal(signal.SIGTERM, old_term)
            gc.unfreeze()

    def test_worker_init_freezes_the_inherited_heap(self):
        # A forked worker inherits the parent's heap, which is not
        # garbage: frozen, it is left out of the full collections a
        # build runs once the heap has grown by a quarter.
        import signal

        from repro.campaign.runner import _init_worker

        old_int = signal.getsignal(signal.SIGINT)
        old_term = signal.getsignal(signal.SIGTERM)
        gc.unfreeze()
        try:
            _init_worker(None)
            assert gc.get_freeze_count() > 0
        finally:
            signal.signal(signal.SIGINT, old_int)
            signal.signal(signal.SIGTERM, old_term)
            gc.unfreeze()

    @pytest.mark.slow
    def test_hung_worker_times_out_and_bystander_survives(self):
        # A cell that would simulate for hours stands in for a hang; the
        # per-cell budget must reap it without losing the honest cell.
        hung = good_cell(5, duration_s=100000.0)
        report = run_specs(
            [hung, good_cell(6)],
            jobs=2,
            timeout_s=2.0,
            retries=0,
            backoff_s=0.01,
        )
        assert hung.key() in report.errors
        assert report.errors[hung.key()]["kind"] == "Timeout"
        assert len(report.results) == 1

    def test_hung_worker_times_out_within_a_short_budget(self):
        # The fast copy of the test above: the overdue check runs on the
        # loop's wait cap, so a sub-second budget is honoured too.
        hung = good_cell(7, duration_s=100000.0)
        report = run_specs(
            [hung, good_cell(8)],
            jobs=2,
            timeout_s=0.5,
            retries=0,
            backoff_s=0.01,
        )
        assert report.errors[hung.key()]["kind"] == "Timeout"
        assert report.errors[hung.key()]["attempts"] == 1
        assert len(report.results) == 1


class TestErrorRecord:
    def test_shape(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            record = error_record(exc, attempts=3)
        assert record["kind"] == "RuntimeError"
        assert record["message"] == "boom"
        assert record["attempts"] == 3
        assert "RuntimeError: boom" in record["traceback"]
