"""Worker threads: compute nodes and links for the live runtime.

Each :class:`RuntimeNode` is one FIFO worker thread — a device CPU, an
edge container slice, or the cloud — consuming jobs from a real
``queue.Queue`` and "executing" them by sleeping the scaled service time.
A :class:`RuntimeLink` is the same pattern with bandwidth semantics, plus
a detached propagation delay (a timer thread) so the link is free to
serialise the next transfer while the previous one propagates — matching
:class:`repro.sim.network.Link` exactly.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
import warnings
from typing import Callable

from ..hardware import NetworkProfile
from .clock import VirtualClock

logger = logging.getLogger(__name__)


class RuntimeNode:
    """A FIFO compute worker.

    Args:
        name: Worker name (thread name).
        flops: Throughput; job demands are FLOPs.
        clock: The shared virtual clock.
        overhead: Per-job fixed virtual seconds.
        capacity: Bound on the queue (jobs).  ``None`` (the default) is
            unbounded; with a bound, :meth:`submit` rejects instead of
            enqueueing once the backlog reaches it — the runtime half of
            the overload layer's backpressure (the fluid twin is
            :func:`repro.resilience.overload.clamp_queues`).
    """

    def __init__(
        self,
        name: str,
        flops: float,
        clock: VirtualClock,
        overhead: float = 0.0,
        capacity: int | None = None,
    ):
        if flops <= 0:
            raise ValueError(f"node {name!r} needs positive FLOPS")
        if overhead < 0:
            raise ValueError("overhead must be non-negative")
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.name = name
        self.flops = flops
        self.overhead = overhead
        self.capacity = capacity
        self._clock = clock
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.jobs_done = 0
        self.jobs_rejected = 0
        self._holds_pending = 0
        self._thread.start()

    @property
    def backlog(self) -> int:
        """Jobs waiting in the queue (approximate, by nature).  Queued
        cold-start holds are excluded — a load is not admitted work."""
        return max(self._queue.qsize() - self._holds_pending, 0)

    def submit(self, demand: float, on_done: Callable[[float], None]) -> bool:
        """Enqueue a job; ``on_done(finish_virtual_time)`` runs on the
        worker thread when it completes.  Returns ``False`` (and enqueues
        nothing) when a bounded queue is full — the caller owns the
        rejected job's fate, exactly like a full ``queue.Queue``."""
        if demand < 0:
            raise ValueError("demand must be non-negative")
        if self.capacity is not None and self.backlog >= self.capacity:
            self.jobs_rejected += 1
            return False
        self._queue.put((demand, on_done))
        return True

    def hold(self, duration: float) -> None:
        """Enqueue a cold-start hold: the worker sleeps ``duration``
        virtual seconds before serving anything queued behind it — the
        runtime realisation of a model load (see
        :mod:`repro.resilience.qos`).  The hold is a sentinel job: it
        bypasses the capacity bound (a load is not admitted work, and a
        full queue must not skip it) and counts toward neither
        ``jobs_done`` nor the backlog a monitoring agent would act on."""
        if duration <= 0:
            return
        self._holds_pending += 1
        self._queue.put((-float(duration), None))

    def _service_time(self, demand: float) -> float:
        return demand / self.flops + self.overhead

    def _run(self) -> None:
        # ``None`` is the stop item :meth:`shutdown` queues behind the
        # pending jobs.
        while (job := self._queue.get()) is not None:
            demand, on_done = job
            if on_done is None:
                # Cold-start hold sentinel: sleep the load, serve nothing.
                self._holds_pending = max(self._holds_pending - 1, 0)
                self._clock.sleep(-demand)
                continue
            self._clock.sleep(self._service_time(demand))
            self.jobs_done += 1
            on_done(self._clock.now())

    def shutdown(self, join_timeout: float = 5.0) -> bool:
        """Stop the worker once its queue drains: a stop item is queued
        behind the pending jobs, which are finished first.

        Returns ``True`` on a clean stop.  A worker that finishes no job
        for ``join_timeout`` wall seconds is wedged (a callback
        deadlocked or a service sleep never returned): the leak is
        reported loudly — a ``RuntimeWarning`` plus a log record naming
        the node — and ``False`` is returned, instead of silently
        abandoning the thread.
        """
        self._queue.put(None)
        done = -1
        while self._thread.is_alive() and self.jobs_done != done:
            done = self.jobs_done
            self._thread.join(timeout=join_timeout)
        if self._thread.is_alive():
            message = (
                f"worker thread {self.name!r} is still alive "
                f"{join_timeout:.1f}s after shutdown — leaking a wedged "
                f"daemon thread ({self._queue.qsize()} jobs still queued)"
            )
            logger.warning(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            return False
        return True


class RuntimeLink(RuntimeNode):
    """A serialising link with detached propagation.

    Job demands are bytes; service time is ``bytes / bandwidth``; after
    serialisation a timer thread delivers the payload ``latency`` virtual
    seconds later without blocking the link.  Outstanding propagation
    timers are tracked so :meth:`shutdown` can wait for in-flight
    deliveries instead of leaking detached timer threads whose callbacks
    would fire into a half-torn-down runtime.
    """

    def __init__(self, name: str, profile: NetworkProfile, clock: VirtualClock):
        super().__init__(name, flops=profile.bandwidth, clock=clock)
        self.latency = profile.latency
        self._timers: set[threading.Timer] = set()
        self._timers_lock = threading.Lock()

    def transmit(
        self, num_bytes: float, on_delivered: Callable[[float], None]
    ) -> bool:
        """Serialise then deliver after the propagation delay.  Returns
        ``False`` without enqueueing when a bounded link queue is full."""

        def serialised(time_done: float) -> None:
            if self.latency <= 0:
                on_delivered(time_done)
                return
            wall_delay = self.latency / self._clock.speedup

            def deliver() -> None:
                try:
                    on_delivered(self._clock.now())
                finally:
                    with self._timers_lock:
                        self._timers.discard(timer)

            timer = threading.Timer(wall_delay, deliver)
            timer.daemon = True
            with self._timers_lock:
                self._timers.add(timer)
            timer.start()

        return self.submit(num_bytes, serialised)

    def shutdown(self, join_timeout: float = 5.0) -> bool:
        """Stop the serialising worker, then drain outstanding propagation
        timers within the same ``join_timeout`` budget.  A timer still
        alive past the budget is reported exactly like a wedged worker."""
        clean = super().shutdown(join_timeout)
        deadline = time.monotonic() + join_timeout
        # The worker is joined, so no new timers can be created; snapshot
        # and join what is still propagating.
        with self._timers_lock:
            pending = list(self._timers)
        for timer in pending:
            timer.join(timeout=max(0.0, deadline - time.monotonic()))
        leaked = [t for t in pending if t.is_alive()]
        if leaked:
            message = (
                f"link {self.name!r} leaked {len(leaked)} propagation "
                f"timer(s) still alive {join_timeout:.1f}s after shutdown"
            )
            logger.warning(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            return False
        return clean
