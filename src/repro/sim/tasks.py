"""Task lifecycle records for the event-driven simulator."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TaskRecord:
    """One inference task's journey through the system.

    Attributes:
        task_id: Unique id in generation order.
        device: Index of the generating device.
        created: Generation time (seconds).
        offloaded: Whether the first block ran on the edge.
        exit_tier: 1 if the task exited at the First-exit, 2 at the Second,
            3 at the Third (cloud); 0 while still in flight.
        completed: Completion time, or ``None`` while in flight.
        compute_time: Total seconds spent executing on compute servers.
        transfer_time: Total seconds spent on links (serialisation +
            propagation, retries of a transfer included).
        queue_time: Total seconds spent waiting in FIFO queues (and in
            an edge outage's retries).  Each hop's span is charged once
            (see :mod:`repro.sim.pipeline`), so a completed task's
            ``compute_time + transfer_time + queue_time`` equals its TCT.
        retries: Fault-recovery attempts consumed (dropped transfers
            re-sent, corrupted transfers retransmitted, edge submissions
            re-tried during an outage).
        dropped: The task was abandoned — its retry budget ran out with
            no fallback, or a retry would have passed its deadline.  A
            dropped task is terminal but never ``done``.
        shed: The task was rejected at admission (the overload layer's
            watermark/token-bucket gate) and never entered the system.
            Terminal, like ``dropped``, but distinct in the SLO identity
            — shedding is a *decision*, dropping a *failure* (a bounded
            queue rejecting a task mid-pipeline is a drop).
        qos: QoS class name inherited from the generating device (see
            :mod:`repro.resilience.qos`); empty string when the run
            carried no QoS config.  Kept last so positional construction
            sites predating the field stay valid.
    """

    task_id: int
    device: int
    created: float
    offloaded: bool = False
    exit_tier: int = 0
    completed: float | None = None
    compute_time: float = 0.0
    transfer_time: float = 0.0
    queue_time: float = 0.0
    retries: int = 0
    dropped: bool = False
    shed: bool = False
    qos: str = ""

    @property
    def tct(self) -> float:
        """Task completion time; raises if the task is still in flight."""
        if self.completed is None:
            raise ValueError(f"task {self.task_id} has not completed")
        return self.completed - self.created

    @property
    def done(self) -> bool:
        return self.completed is not None

    @property
    def in_flight(self) -> bool:
        """Still somewhere in the system: neither completed, dropped,
        nor shed at admission."""
        return self.completed is None and not self.dropped and not self.shed
