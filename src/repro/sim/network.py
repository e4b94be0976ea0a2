"""Serialising links for the event simulator.

A :class:`Link` wraps a :class:`~repro.sim.nodes.FifoServer` whose rate is
the hop bandwidth (bytes/s) and whose ``extra_delay`` is the propagation
latency: transmissions occupy the link for ``bytes / bandwidth`` (so
back-to-back transfers queue), while propagation pipelines after service —
the same decomposition as the paper's ``d/B + L`` terms, plus the FIFO
queueing those terms omit.
"""

from __future__ import annotations

from typing import Callable

from ..hardware import NetworkProfile
from .nodes import EventScheduler, FifoServer


class Link(FifoServer):
    """One network hop with serialisation queueing and propagation delay."""

    def __init__(self, name: str, profile: NetworkProfile):
        super().__init__(
            name, rate=profile.bandwidth, extra_delay=profile.latency
        )

    @property
    def bandwidth(self) -> float:
        return self.rate

    @property
    def latency(self) -> float:
        return self.extra_delay

    def reconfigure(self, profile: NetworkProfile) -> None:
        """Apply a dynamic environment's new conditions; transmissions in
        service finish at the old rate (traffic shapers behave this way on
        short transfers)."""
        self.rate = profile.bandwidth
        self.extra_delay = profile.latency

    def transmit(
        self,
        engine: EventScheduler,
        now: float,
        num_bytes: float,
        on_delivered: Callable[[float, float], None],
    ) -> bool:
        """Queue a transfer; ``on_delivered(arrival_time, service_time)``
        fires at the far end after serialisation + propagation."""
        return self.submit(engine, now, num_bytes, on_delivered)
