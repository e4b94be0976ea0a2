"""Discrete simulation substrate for the LEIME evaluation.

Two simulators share the arrival/environment machinery:

* :mod:`repro.sim.simulator` — the **slot simulator**: advances the paper's
  own queue/cost model (Eqs. 8-14) slot by slot under a pluggable offloading
  policy and a dynamic environment.  This is the direct analogue of the
  paper's simulation experiments (Fig. 11's caption: simulations "based on
  the genuine parameter of Inception v3 and ResNet-34").
* :mod:`repro.sim.events` — the **event simulator**: a task-level
  discrete-event simulation with FIFO compute queues and serialising links,
  which replaces the physical testbed (per-task completion times,
  percentiles, and queue traces that the slot model only captures in
  expectation).
"""

from .arrivals import (
    ArrivalProcess,
    ConstantArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    SinusoidalRateArrivals,
    TraceArrivals,
    UniformArrivals,
    mean_series,
)
from .environment import (
    DynamicEnvironment,
    RandomWalkEnvironment,
    StaticEnvironment,
)
from .metrics import SimulationResult, SlotRecord, summarize
from .simulator import SlotSimulator
from .events import EventSimulator, EventSimResult, TaskRecord

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
    "UniformArrivals",
    "TraceArrivals",
    "PiecewiseRateArrivals",
    "SinusoidalRateArrivals",
    "mean_series",
    "DynamicEnvironment",
    "StaticEnvironment",
    "RandomWalkEnvironment",
    "SimulationResult",
    "SlotRecord",
    "summarize",
    "SlotSimulator",
    "EventSimulator",
    "EventSimResult",
    "TaskRecord",
]
