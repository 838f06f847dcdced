"""Admission control: a bounded in-flight budget with 429 backpressure.

The engine has ``pool_size`` answering slots; the admission controller
lets at most ``pool_size + queue_limit`` requests exist at once (running +
waiting for a slot).  Everything beyond that is rejected *immediately*
with :class:`AdmissionRejected` — the transport maps it to HTTP 429 —
instead of growing an unbounded line of waiting threads whose tail
latency the client would pay anyway.

Queue-depth and slot-hold-time histograms and the rejection counter go
to the engine's metrics registry (``serve.queue_depth``,
``serve.in_flight_ms``, ``serve.rejected``), and only there: ``stats()``
reads admissions, the peak and rejections back from it.

Each request is also counted under the **epoch** it was admitted in.  A
writer that has made something unreachable for new requests closes the
epoch (:meth:`AdmissionController.next_epoch`) and frees the thing once
:meth:`AdmissionController.finished` says every request admitted up to it
has left — how compaction knows no reader still holds a reclaimed term id.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.contracts import guarded_by
from repro.exceptions import ReproError
from repro.obs.metrics import Metrics


class AdmissionRejected(ReproError):
    """Raised when the bounded request budget is exhausted (HTTP 429)."""

    def __init__(self, capacity: int, in_flight: int):
        super().__init__(
            f"admission queue full: {in_flight} in flight, capacity {capacity}"
        )
        self.capacity = capacity
        self.in_flight = in_flight


@guarded_by("_lock", "_in_flight", "_epoch", "_by_epoch")
class AdmissionController:
    """Counts in-flight requests against a hard capacity.

    Use as a context manager per request::

        with admission.admit():      # raises AdmissionRejected when full
            ... answer the question ...
    """

    def __init__(
        self,
        capacity: int,
        metrics: Metrics | None = None,
        clock: Callable[[], float] = time.monotonic,
        prefix: str = "serve",
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else Metrics()
        self.clock = clock
        #: Metric-name prefix: the read path uses the default ``serve``,
        #: the ingest path uses ``serve.ingest`` so write backpressure is
        #: visible separately from question-answering backpressure.
        self.prefix = prefix
        self._lock = threading.Lock()
        self._in_flight = 0
        self._epoch = 0
        #: epoch → requests admitted in it that are still in flight.
        self._by_epoch: dict[int, int] = {}

    # ------------------------------------------------------------------ #

    def admit(self) -> "_AdmissionToken":
        """Reserve one slot or raise :class:`AdmissionRejected`."""
        with self._lock:
            if self._in_flight >= self.capacity:
                self.metrics.incr(f"{self.prefix}.rejected")
                raise AdmissionRejected(self.capacity, self._in_flight)
            self._in_flight += 1
            depth = self._in_flight
            epoch = self._epoch
            self._by_epoch[epoch] = self._by_epoch.get(epoch, 0) + 1
        self.metrics.observe(f"{self.prefix}.queue_depth", depth)
        return _AdmissionToken(self, epoch)

    def _release(self, epoch: int) -> None:
        with self._lock:
            self._in_flight -= 1
            left = self._by_epoch[epoch] - 1
            if left:
                self._by_epoch[epoch] = left
            else:
                del self._by_epoch[epoch]

    def next_epoch(self) -> int:
        """Close the current epoch and return it: every request admitted
        so far was admitted in it or an earlier one."""
        with self._lock:
            self._epoch += 1
            return self._epoch - 1

    def finished(self, epoch: int) -> bool:
        """Whether every request admitted in ``epoch`` or earlier has been
        released."""
        with self._lock:
            return min(self._by_epoch, default=epoch + 1) > epoch

    # ------------------------------------------------------------------ #

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def stats(self) -> dict:
        depths = self.metrics.histogram(f"{self.prefix}.queue_depth")
        return {
            "capacity": self.capacity,
            "in_flight": self.in_flight,
            "peak_in_flight": depths["max"] if depths else 0,
            "admitted": depths["count"] if depths else 0,
            "rejected": self.metrics.counter(f"{self.prefix}.rejected"),
        }


class _AdmissionToken:
    """Releases the reserved slot exactly once, with-block or manual."""

    __slots__ = ("_controller", "_released", "_admitted_at", "_epoch")

    def __init__(self, controller: AdmissionController, epoch: int):
        self._controller = controller
        self._released = False
        self._admitted_at = controller.clock()
        self._epoch = epoch

    def release(self) -> None:
        if not self._released:
            self._released = True
            controller = self._controller
            controller.metrics.observe(
                f"{controller.prefix}.in_flight_ms",
                (controller.clock() - self._admitted_at) * 1000.0,
            )
            controller._release(self._epoch)

    def __enter__(self) -> "_AdmissionToken":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False
