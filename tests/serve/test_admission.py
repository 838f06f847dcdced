"""Admission control: bounded in-flight budget and rejection."""

import pytest

from repro.obs.metrics import Metrics
from repro.serve.admission import AdmissionController, AdmissionRejected


class TestAdmission:
    def test_admit_and_release_track_in_flight(self):
        admission = AdmissionController(capacity=2)
        token = admission.admit()
        assert admission.in_flight == 1
        token.release()
        assert admission.in_flight == 0

    def test_rejects_beyond_capacity(self):
        admission = AdmissionController(capacity=2)
        held = [admission.admit(), admission.admit()]
        with pytest.raises(AdmissionRejected) as rejected:
            admission.admit()
        assert rejected.value.capacity == 2
        assert rejected.value.in_flight == 2
        for token in held:
            token.release()
        admission.admit().release()  # slots free again

    def test_context_manager_releases_on_exception(self):
        admission = AdmissionController(capacity=1)
        with pytest.raises(RuntimeError):
            with admission.admit():
                raise RuntimeError("boom")
        assert admission.in_flight == 0

    def test_release_is_idempotent(self):
        admission = AdmissionController(capacity=1)
        token = admission.admit()
        token.release()
        token.release()
        assert admission.in_flight == 0

    def test_zero_capacity_is_always_saturated(self):
        admission = AdmissionController(capacity=0)
        with pytest.raises(AdmissionRejected):
            admission.admit()

    def test_stats_and_metrics(self):
        metrics = Metrics()
        admission = AdmissionController(capacity=1, metrics=metrics)
        admission.admit().release()
        with pytest.raises(AdmissionRejected):
            with admission.admit():
                admission.admit()
        stats = admission.stats()
        assert stats == {
            "capacity": 1,
            "in_flight": 0,
            "peak_in_flight": 1,
            "admitted": 2,
            "rejected": 1,
        }
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serve.rejected"] == 1
        assert snapshot["histograms"]["serve.queue_depth"]["count"] == 2
        assert snapshot["histograms"]["serve.in_flight_ms"]["count"] == 2

    def test_stats_are_read_from_the_registry(self):
        """The registry is the only tally: two controllers in one registry
        keep apart by prefix, and an empty one reads zeros."""
        metrics = Metrics()
        reads = AdmissionController(capacity=2, metrics=metrics)
        writes = AdmissionController(capacity=1, metrics=metrics, prefix="w")
        assert reads.stats()["admitted"] == reads.stats()["peak_in_flight"] == 0
        with reads.admit(), reads.admit():
            with pytest.raises(AdmissionRejected):
                reads.admit()
        with writes.admit():
            pass
        assert reads.stats() == {
            "capacity": 2, "in_flight": 0, "peak_in_flight": 2, "admitted": 2, "rejected": 1,
        }
        assert writes.stats()["admitted"] == 1 and writes.stats()["rejected"] == 0
        metrics.incr("serve.rejected")
        assert reads.stats()["rejected"] == 2
        assert isinstance(AdmissionController(capacity=1).metrics, Metrics)
