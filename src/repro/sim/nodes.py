"""FIFO compute servers for the event simulator.

A :class:`FifoServer` is a single non-preemptive FIFO resource — a device
CPU, an edge container slice, or the cloud GPU.  Service time for a job of
``demand`` FLOPs is ``demand / rate + overhead`` (the per-task framework
cost of :class:`repro.hardware.Platform`); an optional ``extra_delay``
is added *after* service without occupying the server, which is how links
model propagation (see :mod:`repro.sim.network`).
"""

from __future__ import annotations

from typing import Callable, Protocol


class EventScheduler(Protocol):
    """The scheduling surface a server needs from the event engine."""

    def schedule(self, time: float, callback: Callable[[float], None]) -> None:
        ...


class FifoServer:
    """A single FIFO resource: compute node or link serialiser.

    ``rate`` is FLOPS for compute servers and bytes/s for links; ``demand``
    is FLOPs or bytes accordingly.  ``overhead`` (per-job framework cost)
    occupies the server; ``extra_delay`` (propagation latency) is added
    after service without occupying the server.

    Rate and delay are mutable: dynamic environments update them at slot
    boundaries, affecting jobs that start service afterwards.
    """

    def __init__(
        self,
        name: str,
        rate: float,
        extra_delay: float = 0.0,
        overhead: float = 0.0,
    ):
        if rate <= 0:
            raise ValueError(f"server {name!r} needs a positive rate")
        if extra_delay < 0 or overhead < 0:
            raise ValueError("extra delay and overhead must be non-negative")
        self.name = name
        self.rate = rate
        self.extra_delay = extra_delay
        self.overhead = overhead
        self._queue: list[tuple[float, float, Callable[[float, float], None]]] = []
        self._busy = False
        self.jobs_served = 0
        self.busy_time = 0.0
        # Warm-pool hold: no job may *start service* before this time
        # (a cold model load in progress).  -inf == always warm.
        self.available_from = float("-inf")
        self._hold_pending = False

    @property
    def queue_length(self) -> int:
        """Jobs waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def occupancy(self) -> int:
        """Waiting plus in-service jobs — what a monitoring agent reports."""
        return self.queue_length + (1 if self._busy else 0)

    def submit(
        self,
        engine: EventScheduler,
        now: float,
        demand: float,
        on_done: Callable[[float, float], None],
    ) -> bool:
        """Enqueue a job; ``on_done(finish_time, service_time)`` fires when
        it leaves the server (after ``extra_delay``).  The queue is
        unbounded, so the job is always accepted (``True``)."""
        if demand < 0:
            raise ValueError("demand must be non-negative")
        self._queue.append((now, demand, on_done))
        if not self._busy:
            self._start_next(engine, now)
        return True

    def hold_until(self, engine: EventScheduler, now: float, time: float) -> None:
        """Floor the next service start at ``time`` (a cold-start model
        load; see :mod:`repro.resilience.qos`).  Queued jobs wait without
        occupying the server — the hold itself is invisible to occupancy,
        exactly as the fast lane folds its hold frontier into the
        schedule without touching the boundary occupancy mirror.

        Idle-with-queue servers are re-kicked immediately: a boundary
        that *lowers* the hold (a slice flushed or no longer requested)
        must start deferred work now, not at the stale resume time the
        old hold scheduled."""
        self.available_from = float(time)
        if self._queue and not self._busy:
            self._start_next(engine, now)

    def _start_next(self, engine: EventScheduler, now: float) -> None:
        if not self._queue:
            self._busy = False
            return
        if now < self.available_from:
            # Service is deferred to the warm time.  Re-enter then (and
            # re-check: the hold may have been raised again meanwhile).
            self._busy = False
            if not self._hold_pending:
                self._hold_pending = True

                def resume(time: float) -> None:
                    self._hold_pending = False
                    if not self._busy:
                        self._start_next(engine, time)

                engine.schedule(self.available_from, resume)
            return
        self._busy = True
        _, demand, on_done = self._queue.pop(0)
        service = demand / self.rate + self.overhead
        finish = now + service
        self.jobs_served += 1
        self.busy_time += service

        def complete(time: float) -> None:
            self._start_next(engine, time)
            if self.extra_delay > 0:
                engine.schedule(
                    time + self.extra_delay,
                    lambda t: on_done(t, service),
                )
            else:
                on_done(time, service)

        engine.schedule(finish, complete)
