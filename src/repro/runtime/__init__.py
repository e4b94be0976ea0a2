"""A live, threaded LEIME prototype — the §IV "prototype system" analogue.

The event simulator computes what *would* happen; this package actually
runs it: worker threads stand in for the Raspberry Pis, the Docker-sliced
edge server and the cloud, jobs move between them through real queues, a
controller thread re-runs the offloading policy every slot, and execution
takes (scaled) wall-clock time on a virtual clock.

It exists for two reasons: it demonstrates LEIME as a *system* rather than
a formula (the examples drive it live), and it cross-checks the simulators
— the same deployment produces compatible latency distributions whether
computed analytically, simulated event-by-event, or executed by threads.
Tasks walk the scalar event engine's own hop graph
(:class:`~repro.sim.pipeline.TaskPipeline`) over the worker threads, and
the controller draws each task's exit coins when it creates the task, so
workers race only the clock, never an exit stream.  A live run returns
the event simulator's own :class:`~repro.sim.events.EventSimResult`, so
every accessor and SLO helper reads both alike.
"""

from .clock import VirtualClock
from .node import RuntimeLink, RuntimeNode
from .system import LeimeRuntime

__all__ = [
    "VirtualClock",
    "RuntimeNode",
    "RuntimeLink",
    "LeimeRuntime",
]
