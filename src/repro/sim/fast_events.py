"""Array-backed discrete-event engine — the event path's fast lane.

The scalar engine in :mod:`repro.sim.events` walks one Python callback
per task hop through a binary heap.  This module replays the *identical*
scenario on struct-of-arrays state: per-task columns (device, creation
time, exit coins, retry budget, accruals) live in NumPy arrays, and the
simulation advances one slot *window* at a time instead of one event at
a time.  Within a window every FIFO server's schedule is a pure function
of its submissions (a Lindley recursion, evaluated bit-exactly by
:func:`repro.core.vectorized.fifo_schedule_batch`), so the engine
iterates a small fixpoint — resolve intents to submissions, schedule,
expand completions into next-hop intents, repeat until the submission
set stops changing — and then commits the converged window: accruals in
chronological order, terminal exits/drops, retry counters, carried
queues and per-server frontiers.

The fixpoint is *incremental*: every derived row carries a ``src``
provenance (the server whose schedule produced it), so when a server's
submission multiset changes, only the rows downstream of it are
invalidated and recomputed.  Dirty servers are rescheduled in pipeline
order (device CPU → uplink → edge → cloud), so each queue is typically
scheduled once — after its feeders settle — instead of once per
upstream wave.  Batches are NumPy structured arrays: a row gather or a
split is one packed fancy-index instead of a dozen per-column gathers.

Equality contract (pinned by ``tests/test_fast_events_differential.py``):
for the same :class:`~repro.sim.events.EventSimulator` configuration and
seed, ``run(engine="fast")`` produces per-task records equal to the
scalar engine — same exit tier, completion time within 1e-9, identical
drop/retry counts — because

* both engines run the same slot step
  (:class:`~repro.sim.pipeline.TaskSlots`): the same control draws and
  the same per-task exit coins;
* service times are evaluated with the exact scalar expression
  ``demand / rate + overhead`` at the rate of the window in which the
  job starts;
* propagation delay is added at *completion* time (a transfer finishing
  after a boundary uses the reconfigured latency, as the scalar server
  does);
* fault gates, backoff schedules, and deadline checks are evaluated at
  the same simulation times with the same float expressions.

FIFO tie-breaking is replicated through the ``push`` column: the scalar
heap orders same-time events by insertion sequence, so a submission's
queue position is the (pop time, push time) of its causing event.  The
fast lane threads that push time explicitly — launches are pushed at the
slot boundary, next hops at the previous hop's service start (the scalar
server schedules its completion callback when service begins), link
deliveries at the link finish, and retries at the failure that scheduled
them — and sorts ties by it, falling back to task id (creation order,
matching the scalar's generation loop) only when push times are equal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.offloading import LiveFleet, OffloadingPolicy
from ..core.vectorized import fifo_schedule_batch, service_times_batch
from ..resilience.overload import (
    MODE_FULL,
    MODE_SECOND_EXIT,
    degraded_exit_params,
)
from ..resilience.recovery import RecoveryPolicy
from .events import check_drain_limit
from .tasks import TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventSimResult, EventSimulator
    from .pipeline import SlotTasks

# Hop kinds: which (server, demand) pair an intent targets.
K_DEV1 = 0  # first block on the device CPU (straggler-scaled)
K_UP0 = 1  # raw input d0 on the uplink (drop/corrupt gated)
K_UP1 = 2  # intermediate d1 on the uplink (drop/corrupt gated)
K_EDGE1 = 3  # first block on the edge slice (outage gated)
K_EDGE2 = 4  # second block on the edge slice (outage gated)
K_CLINK = 5  # intermediate d2 on the edge→cloud link (ungated)
K_CCPU = 6  # third block on the cloud CPU (ungated)

R_COMPLETE = 0  # server finished (frees the server; links still propagate)
R_DELIVER = 1  # link delivery at finish + latency

_F8 = np.float64
_I8 = np.int64

# ``base`` is the hop-arrival time: the instant the task first reached this
# hop, *before* any retries.  The scalar engine's success callbacks close
# over that instant, so retry backoff waits are charged to the hop's
# queue/transfer accrual — the fast lane threads it explicitly.
# ``src`` is provenance: the server id whose schedule produced the row
# (-1 for exogenous rows — launches, calendar spill-over, carried
# queues).  The incremental window fixpoint invalidates cached rows by
# provenance when a server's schedule changes, so only the dependent
# slice of the window is recomputed.
_INTENT = np.dtype(
    [
        ("time", _F8),
        ("task", _I8),
        ("kind", np.int8),
        ("attempt", np.int32),
        ("base", _F8),
        ("push", _F8),
        ("src", _I8),
    ]
, align=True)
_SUB = np.dtype(
    [
        ("sid", _I8),
        ("time", _F8),
        ("task", _I8),
        ("kind", np.int8),
        ("attempt", np.int32),
        ("base", _F8),
        ("push", _F8),
        ("src", _I8),
        ("demand", _F8),
        ("corrupt", np.bool_),
    ]
, align=True)
_REC = np.dtype(
    [
        ("time", _F8),
        ("task", _I8),
        ("kind", np.int8),
        ("rtype", np.int8),
        ("attempt", np.int32),
        ("base", _F8),
        ("push", _F8),
        ("src", _I8),
        ("service", _F8),
        ("corrupt", np.bool_),
    ]
, align=True)
_DROP = np.dtype(
    [
        ("time", _F8),
        ("task", _I8),
        ("attempt", np.int32),
        ("src", _I8),
    ]
, align=True)
_ACC = np.dtype(
    [
        ("time", _F8),
        ("task", _I8),
        ("dc", _F8),
        ("dt", _F8),
        ("dq", _F8),
        ("src", _I8),
    ]
, align=True)
_TERM = np.dtype(
    [
        ("time", _F8),
        ("task", _I8),
        ("tier", np.int8),
        ("src", _I8),
    ]
, align=True)

# Semantic submission columns — ``src`` excluded: two rounds of the
# fixpoint agree when these match, regardless of which cached batch a
# row came from.
_SUB_KEYS = (
    "time", "task", "kind", "attempt", "base", "push", "demand", "corrupt",
)


def _empty(dt: np.dtype) -> np.ndarray:
    return np.empty(0, dtype=dt)


def _cat(dt: np.dtype, batches) -> np.ndarray:
    parts = [b for b in batches if b.shape[0]]
    if not parts:
        return np.empty(0, dtype=dt)
    if len(parts) == 1:
        return parts[0]
    # Preallocate + slice-assign instead of np.concatenate: concatenating
    # structured arrays goes through dtype promotion (``_promote_fields``),
    # a fixed Python cost that dominates small-fleet windows.
    out = np.empty(sum(p.shape[0] for p in parts), dtype=dt)
    pos = 0
    for p in parts:
        out[pos : pos + p.shape[0]] = p
        pos += p.shape[0]
    return out


def _rows(dt: np.dtype, n: int, /, **cols) -> np.ndarray:
    """A fresh n-row structured batch with the given field values
    (scalars broadcast)."""
    out = np.empty(n, dtype=dt)
    for name, value in cols.items():
        out[name] = value
    return out


class _Pool:
    """Append-only row batches with O(rows) boolean invalidation.

    The incremental window fixpoint caches every derived artefact —
    submissions, expansions, resolutions — tagged with a provenance
    column, and kills rows by provenance when the producing server's
    schedule changes, so only the dependent slice of the window is ever
    recomputed."""

    __slots__ = ("batches", "alive")

    def __init__(self) -> None:
        self.batches: list[np.ndarray] = []
        self.alive: list[np.ndarray] = []

    def append(self, batch: np.ndarray) -> None:
        if batch.shape[0]:
            self.batches.append(batch)
            self.alive.append(np.ones(batch.shape[0], dtype=np.bool_))

    def invalidate(
        self, lut: np.ndarray, col: str, collect: bool = False
    ) -> list[np.ndarray]:
        """Kill alive rows whose ``col`` is flagged in ``lut``; returns
        the removed rows when ``collect``.  ``lut`` has one trailing
        always-False slot so provenance ``-1`` (exogenous rows) wraps
        onto it."""
        removed: list[np.ndarray] = []
        for b, a in zip(self.batches, self.alive):
            hit = a & lut[b[col]]
            if hit.any():
                if collect:
                    removed.append(b[hit])
                a &= ~hit
        return removed

    def select(self, lut: np.ndarray, col: str) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for b, a in zip(self.batches, self.alive):
            m = a & lut[b[col]]
            if m.any():
                out.append(b[m])
        return out

    def compress(self) -> list[np.ndarray]:
        return [
            b if bool(a.all()) else b[a]
            for b, a in zip(self.batches, self.alive)
            if a.any()
        ]


class _SchedPool:
    """Accepted per-server schedules: each batch is one round's sorted
    dirty submissions plus their Lindley outputs, invalidated wholesale
    by server id when the server is rescheduled."""

    __slots__ = ("batches", "alive")

    def __init__(self) -> None:
        self.batches: list[tuple] = []
        self.alive: list[np.ndarray] = []

    def append(self, subs, service, start, finish, served) -> None:
        if subs.shape[0]:
            self.batches.append((subs, service, start, finish, served))
            self.alive.append(np.ones(subs.shape[0], dtype=np.bool_))

    def invalidate(self, lut: np.ndarray) -> None:
        for (subs, *_), a in zip(self.batches, self.alive):
            a &= ~lut[subs["sid"]]

    def select_subs(self, lut: np.ndarray) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for (subs, *_), a in zip(self.batches, self.alive):
            m = a & lut[subs["sid"]]
            if m.any():
                out.append(subs[m])
        return out

    def compress(self):
        """``(subs, service, start, finish, served)`` over alive rows,
        or ``None`` when the window scheduled nothing."""
        cols: tuple[list, ...] = ([], [], [], [], [])
        for batch, a in zip(self.batches, self.alive):
            if not a.any():
                continue
            whole = bool(a.all())
            for acc, arr in zip(cols, batch):
                acc.append(arr if whole else arr[a])
        if not cols[0]:
            return None
        return tuple(np.concatenate(c) for c in cols)


class _TaskStore:
    """Growable struct-of-arrays task state, materialised once at the end."""

    def __init__(self) -> None:
        self.count = 0
        cap = 1024
        self.device = np.empty(cap, dtype=_I8)
        self.created = np.empty(cap, dtype=_F8)
        self.offloaded = np.empty(cap, dtype=np.bool_)
        self.u1 = np.empty(cap, dtype=_F8)
        self.u2 = np.empty(cap, dtype=_F8)
        self.completed = np.empty(cap, dtype=_F8)
        self.tier = np.empty(cap, dtype=np.int8)
        self.dropped = np.empty(cap, dtype=np.bool_)
        self.retries = np.empty(cap, dtype=np.int32)
        self.comp = np.empty(cap, dtype=_F8)
        self.trans = np.empty(cap, dtype=_F8)
        self.queue = np.empty(cap, dtype=_F8)
        self.shed = np.empty(cap, dtype=np.bool_)

    _COLS = (
        "device", "created", "offloaded", "u1", "u2", "completed",
        "tier", "dropped", "retries", "comp", "trans", "queue", "shed",
    )

    def append_batch(self, tasks: "SlotTasks") -> np.ndarray:
        """Append a slot's new tasks; returns their row ids."""
        k = tasks.created.shape[0]
        while self.count + k > self.device.shape[0]:
            for name in self._COLS:
                col = getattr(self, name)
                grown = np.empty(col.shape[0] * 2, dtype=col.dtype)
                grown[: self.count] = col[: self.count]
                setattr(self, name, grown)
        i0, i1 = self.count, self.count + k
        self.device[i0:i1] = tasks.device
        self.created[i0:i1] = tasks.created
        self.offloaded[i0:i1] = tasks.offloaded
        self.u1[i0:i1] = tasks.exits[:, 0]
        self.u2[i0:i1] = tasks.exits[:, 1]
        self.completed[i0:i1] = np.nan
        self.tier[i0:i1] = 0
        self.dropped[i0:i1] = False
        self.retries[i0:i1] = 0
        self.comp[i0:i1] = 0.0
        self.trans[i0:i1] = 0.0
        self.queue[i0:i1] = 0.0
        self.shed[i0:i1] = tasks.shed
        self.count = i1
        return np.arange(i0, i1, dtype=_I8)

    def fold_terminal(self, ledger) -> np.ndarray | None:
        """Fold terminal rows (completed, dropped, or shed) into the
        streaming ``ledger`` and left-compact the live rows.

        Returns the old→new id map over all current rows, or None when
        no row was terminal.  Live rows keep their *relative* order, so
        the creation-order tie-breaks (``lexsort`` over the ``task``
        column in :meth:`_FastEngine.schedule`) are preserved across a
        compaction — the caller must remap every cross-window batch
        (``carried``/``cal_int``/``cal_rec``) through the returned map.
        Shed rows are removed without folding: they were counted at
        creation time (they are terminal the moment they exist).
        """
        c = self.count
        if c == 0:
            return None
        completed = ~np.isnan(self.completed[:c])
        dropped = self.dropped[:c] & ~completed
        terminal = completed | dropped | self.shed[:c]
        if not terminal.any():
            return None
        if completed.any():
            ledger.finish_batch(
                self.completed[:c][completed] - self.created[:c][completed],
                self.tier[:c][completed],
                self.offloaded[:c][completed],
                self.retries[:c][completed],
                self.device[:c][completed],
            )
        if dropped.any():
            ledger.drop_batch(
                self.retries[:c][dropped], self.device[:c][dropped]
            )
        keep = ~terminal
        remap = np.cumsum(keep, dtype=_I8) - 1
        kept = int(np.count_nonzero(keep))
        for name in self._COLS:
            col = getattr(self, name)
            col[:kept] = col[:c][keep]
        self.count = kept
        return remap

    def materialize(self, names: list[str]) -> list[TaskRecord]:
        """Every row as a :class:`TaskRecord`; ``names[device]`` is the
        QoS class name its tasks carry."""
        c = self.count
        # tolist() converts whole columns to Python scalars in C; the
        # positional constructor then avoids per-field keyword overhead.
        # An open task has completed == NaN (NaN != NaN maps it to None).
        return [
            TaskRecord(
                i, dev, created, off,
                tier if fin == fin else 0,
                fin if fin == fin else None,
                comp, trans, queue, retries, dropped, shed,
                names[dev],
            )
            for i, (dev, created, off, tier, fin, comp, trans, queue,
                    retries, dropped, shed) in enumerate(
                zip(
                    self.device[:c].tolist(),
                    self.created[:c].tolist(),
                    self.offloaded[:c].tolist(),
                    self.tier[:c].tolist(),
                    self.completed[:c].tolist(),
                    self.comp[:c].tolist(),
                    self.trans[:c].tolist(),
                    self.queue[:c].tolist(),
                    self.retries[:c].tolist(),
                    self.dropped[:c].tolist(),
                    self.shed[:c].tolist(),
                )
            )
        ]


class _FastEngine:
    """One run's worth of window-batched event simulation state."""

    def __init__(
        self, sim: "EventSimulator", recovery: "RecoveryPolicy | None"
    ):
        system = sim.system
        self.system = system
        self.shared_uplink = sim.shared_uplink
        self.tau = system.slot_length
        self.n = n = system.num_devices
        self.faults = sim.faults
        # Without faults nothing fails: any budget will do.
        recovery = recovery or RecoveryPolicy.none()
        self.max_retries = recovery.max_retries
        self.backoff_tab = recovery.backoff_table()
        self.deadline = recovery.deadline
        self.fallback_local = recovery.fallback_local

        # Per-device partition parameters (heterogeneous-aware).  A
        # homogeneous fleet shares one partition object, so broadcast it
        # instead of walking 10k+ identical rows in Python.
        parts = [system.partition_for(i) for i in range(n)]
        if parts and all(p is parts[0] for p in parts):
            parts = parts[:1]

        def column(values) -> np.ndarray:
            return np.resize(np.asarray(values, dtype=_F8), n)

        self.mu1 = column([p.mu1 for p in parts])
        self.mu2 = column([p.mu2 for p in parts])
        self.mu3 = column([p.mu3 for p in parts])
        self.d0 = column([p.d0 for p in parts])
        self.d1 = column([p.d1 for p in parts])
        self.d2 = column([p.d2 for p in parts])
        # The deployed exit-coin thresholds; the slot's rungs override
        # the working copies per window (see set_device_modes).
        exits = [degraded_exit_params(p, MODE_FULL) for p in parts]
        self.base_sigma1 = column([s for s, _ in exits])
        self.base_exit2cond = column([e for _, e in exits])
        self.sigma1 = self.base_sigma1.copy()
        self.exit2cond = self.base_exit2cond.copy()

        # Server id layout: [0,n) device CPUs, [n,2n) uplinks (shared mode
        # collapses every device onto sid n), [2n,3n) edge slices, 3n the
        # edge→cloud link, 3n+1 the cloud CPU.
        self.num_servers = 3 * n + 2
        self.rate = np.empty(self.num_servers)
        self.overhead = np.zeros(self.num_servers)
        self.extra = np.zeros(self.num_servers)
        devices = system.devices
        links = [d.link for d in devices]
        self.rate[:n] = [d.flops for d in devices]
        self.overhead[:n] = [d.overhead for d in devices]
        self.rate[n : 2 * n] = [link.bandwidth for link in links]
        self.extra[n : 2 * n] = [link.latency for link in links]
        self.rate[2 * n : 3 * n] = (
            np.maximum(np.asarray(system.shares, dtype=_F8), 1e-9)
            * system.edge_flops
        )
        self.overhead[2 * n : 3 * n] = system.edge_overhead
        self.rate[3 * n] = system.edge_cloud.bandwidth
        self.extra[3 * n] = system.edge_cloud.latency
        self.rate[3 * n + 1] = system.cloud_flops
        self.overhead[3 * n + 1] = system.cloud_overhead
        if sim.shared_uplink:
            self.uplink_sid = np.full(n, n, dtype=_I8)
        else:
            self.uplink_sid = n + np.arange(n, dtype=_I8)

        # Pipeline depth of each server (device CPU → uplink → edge →
        # cloud link → cloud CPU).  The window fixpoint reschedules
        # shallow servers first so a downstream queue is only scheduled
        # once its feeders have settled, instead of burning a throwaway
        # pass per upstream wave.  One trailing slot so sid -1 lookups
        # stay in bounds.
        self.level = np.empty(self.num_servers + 1, dtype=np.int8)
        self.level[0:n] = 0
        self.level[n : 2 * n] = 1
        self.level[2 * n : 3 * n] = 2
        self.level[3 * n] = 3
        self.level[3 * n + 1] = 4
        self.level[3 * n + 2] = 5

        self.store = _TaskStore()
        self._last_live = None
        self.free_at = np.full(self.num_servers, -np.inf)
        # Warm-pool hold frontier: no job may *start service* on a
        # server before this time (a cold model load in progress; only
        # edge-slice rows are ever raised).  Folded into the Lindley
        # frontier at schedule time, never into occupancy — mirroring
        # the scalar server's deferred-start (``_busy`` stays False
        # during the gap, so occupancy == queue length on both lanes).
        self.hold_until = np.full(self.num_servers, -np.inf)
        self.carried = _empty(_SUB)
        self.cal_int = _empty(_INTENT)
        self.cal_rec = _empty(_REC)
        self.tmax = 0.0

    # -- boundary -----------------------------------------------------------

    def reconfigure(self, live) -> None:
        # A static environment hands back the same device tuple every
        # slot, so the refresh only runs when the configs changed; a
        # dynamic one hands over a LiveFleet, whose link columns are
        # copied without reading a config.
        if live is self._last_live:
            return
        self._last_live = live
        fleet = LiveFleet.of(live)
        n = self.n
        if self.shared_uplink:
            self.rate[n] = fleet.bandwidth[0]
            self.extra[n] = fleet.latency[0]
        else:
            self.rate[n : 2 * n] = fleet.bandwidth
            self.extra[n : 2 * n] = fleet.latency

    def set_device_modes(self, modes) -> None:
        """Realise the slot's per-device rungs: override the exit-coin
        thresholds for the coming window — the vectorised twin of the
        scalar engine's per-device
        :func:`~repro.resilience.overload.degraded_exit_params` refresh
        (``(1-σ₁)/(1-σ₁)`` is exactly ``1.0`` in IEEE, so forcing the
        conditional to ``1.0`` matches the scalar division)."""
        m = np.asarray(modes, dtype=_I8)
        self.sigma1[:] = np.where(m > MODE_SECOND_EXIT, 1.0, self.base_sigma1)
        self.exit2cond[:] = np.where(
            m <= MODE_FULL, self.base_exit2cond, 1.0
        )

    def occupancy(self, w0: float) -> np.ndarray:
        """Waiting + in-service jobs per server at boundary time ``w0``.

        A job finishing exactly at ``w0`` is still in service because the
        boundary event pops before same-time completions in the scalar
        heap (boundaries are scheduled first)."""
        occ = np.bincount(
            self.carried["sid"], minlength=self.num_servers
        ).astype(_I8)
        occ += self.free_at >= w0
        return occ

    def launches(self, tasks: "SlotTasks", w0: float) -> np.ndarray:
        """Store a slot's new tasks and return the admitted ones as
        launch intents.  Shed tasks keep their rows (terminal at
        creation) but never launch."""
        keep = ~tasks.shed
        ids = self.store.append_batch(tasks)[keep]
        times = tasks.created[keep]
        return _rows(
            _INTENT,
            ids.shape[0],
            time=times,
            task=ids,
            kind=np.where(tasks.offloaded[keep], K_UP0, K_DEV1),
            attempt=0,
            base=times,
            # Arrival events are pushed while the boundary is processed,
            # so same-time ties against older events sort after them.
            push=w0,
            src=-1,
        )

    def compact(self, ledger) -> None:
        """Streaming-mode compaction between windows: fold every task
        that reached a terminal state into ``ledger`` and drop its row,
        remapping the surviving ids through every cross-window batch.
        Run state afterwards covers live tasks only, so store memory
        tracks the concurrent in-flight population instead of the
        run-total task count."""
        remap = self.store.fold_terminal(ledger)
        if remap is None:
            return
        for batch in (self.carried, self.cal_int, self.cal_rec):
            if batch.shape[0]:
                batch["task"] = remap[batch["task"]]

    # -- intent resolution (the retry / fault-gate cascade) -----------------

    def _sid_demand_corrupt(self, time, task, kind):
        """Server, demand, and corrupt flag for gate-passing intents."""
        dev = self.store.device[task]
        sid = np.empty(task.shape[0], dtype=_I8)
        demand = np.empty(task.shape[0], dtype=_F8)
        corrupt = np.zeros(task.shape[0], dtype=np.bool_)
        # The slot index only feeds fault lookups; skip it fault-free.
        slot = (time / self.tau).astype(_I8) if self.faults is not None else None
        m = kind == K_DEV1
        if m.any():
            sid[m] = dev[m]
            local = self.mu1[dev[m]]
            if self.faults is not None:
                local = local * self.faults.straggler_rows(slot[m], dev[m])
            demand[m] = local
        for kd, dem in ((K_UP0, self.d0), (K_UP1, self.d1)):
            m = kind == kd
            if m.any():
                sid[m] = self.uplink_sid[dev[m]]
                demand[m] = dem[dev[m]]
                if self.faults is not None:
                    corrupt[m] = self.faults.corrupt_rows(slot[m], dev[m])
        for kd, dem in ((K_EDGE1, self.mu1), (K_EDGE2, self.mu2)):
            m = kind == kd
            if m.any():
                sid[m] = 2 * self.n + dev[m]
                demand[m] = dem[dev[m]]
        m = kind == K_CLINK
        if m.any():
            sid[m] = 3 * self.n
            demand[m] = self.d2[dev[m]]
        m = kind == K_CCPU
        if m.any():
            sid[m] = 3 * self.n + 1
            demand[m] = self.mu3[dev[m]]
        return sid, demand, corrupt

    def resolve(self, intents, fails, w1: float, inclusive: bool):
        """Run every intent through its fault gates and every failure
        through the retry budget, cascading until the window's work is a
        plain submission list.  Pure: commits nothing.

        Returns ``(subs, future_intents, drops, accruals)``; retry
        intents that land beyond the window go to ``future_intents``
        (their spent attempt is still recorded by the caller, as the
        pipeline's ``_retry`` spends the retry at scheduling time), and
        each fallback to the device charges the abandoned hop's span."""
        subs: list[np.ndarray] = []
        futs: list[np.ndarray] = []
        drops: list[np.ndarray] = []
        accs: list[np.ndarray] = []
        pend_i = intents
        pend_f = fails
        for _ in range(100_000):
            if not pend_i.shape[0] and not pend_f.shape[0]:
                break
            new_i: list[np.ndarray] = []
            new_f: list[np.ndarray] = []
            if pend_f.shape[0]:
                t = pend_f["time"]
                task = pend_f["task"]
                kd = pend_f["kind"]
                a = pend_f["attempt"]
                exhausted = a >= self.max_retries
                fb = (
                    exhausted
                    & self.fallback_local
                    & ((kd == K_UP0) | (kd == K_EDGE1))
                )
                if fb.any():
                    # The scalar give_up runs inside the failing event's
                    # callback, so the fallback submission keeps that
                    # event's heap position: ``push`` is inherited.
                    sel = pend_f[fb]
                    # The abandoned hop's span ends here: an uplink's is
                    # transfer, an edge slice's is queueing.
                    span = sel["time"] - sel["base"]
                    up = sel["kind"] == K_UP0
                    accs.append(
                        _rows(
                            _ACC,
                            sel.shape[0],
                            time=sel["time"],
                            task=sel["task"],
                            dc=0.0,
                            dt=np.where(up, span, 0.0),
                            dq=np.where(up, 0.0, span),
                            src=sel["src"],
                        )
                    )
                    sel["kind"] = K_DEV1
                    sel["base"] = sel["time"]  # a fresh hop starts here
                    new_i.append(sel)
                give_up = exhausted & ~fb
                retry = ~exhausted
                if retry.any():
                    idx = np.minimum(a, max(self.max_retries - 1, 0))
                    delay = (
                        self.backoff_tab[idx]
                        if self.backoff_tab.shape[0]
                        else np.zeros(a.shape[0])
                    )
                    when = t + delay
                    breach = np.zeros(a.shape[0], dtype=np.bool_)
                    if self.deadline is not None:
                        breach = retry & (
                            when - self.store.created[task] > self.deadline
                        )
                    sched = retry & ~breach
                    if sched.any():
                        nxt = _rows(
                            _INTENT,
                            int(sched.sum()),
                            time=when[sched],
                            task=task[sched],
                            kind=kd[sched],
                            attempt=a[sched] + 1,
                            base=pend_f["base"][sched],
                            # The pipeline's retry wait is pushed here.
                            push=t[sched],
                            src=pend_f["src"][sched],
                        )
                        inwin = (
                            nxt["time"] <= w1 if inclusive else nxt["time"] < w1
                        )
                        if inwin.all():
                            new_i.append(nxt)
                        else:
                            new_i.append(nxt[inwin])
                            futs.append(nxt[~inwin])
                    give_up = give_up | breach
                if give_up.any():
                    sel = pend_f[give_up]
                    drops.append(
                        _rows(
                            _DROP,
                            sel.shape[0],
                            time=sel["time"],
                            task=sel["task"],
                            attempt=sel["attempt"],
                            src=sel["src"],
                        )
                    )
            if pend_i.shape[0]:
                ok = pend_i
                if self.faults is not None:
                    t = pend_i["time"]
                    task = pend_i["task"]
                    kd = pend_i["kind"]
                    fail = np.zeros(t.shape[0], dtype=np.bool_)
                    slot = (t / self.tau).astype(_I8)
                    dev = self.store.device[task]
                    up = (kd == K_UP0) | (kd == K_UP1)
                    if up.any():
                        fail[up] = self.faults.drop_rows(slot[up], dev[up])
                    ed = (kd == K_EDGE1) | (kd == K_EDGE2)
                    if ed.any():
                        fail[ed] = self.faults.edge_down_rows(slot[ed])
                    if fail.any():
                        new_f.append(pend_i[fail])
                        ok = pend_i[~fail]
                if ok.shape[0]:
                    sid, demand, corrupt = self._sid_demand_corrupt(
                        ok["time"], ok["task"], ok["kind"]
                    )
                    sub = np.empty(ok.shape[0], dtype=_SUB)
                    sub["sid"] = sid
                    sub["demand"] = demand
                    sub["corrupt"] = corrupt
                    for name in (
                        "time", "task", "kind", "attempt", "base", "push",
                        "src",
                    ):
                        sub[name] = ok[name]
                    subs.append(sub)
            pend_i = _cat(_INTENT, new_i)
            pend_f = _cat(_INTENT, new_f)
        else:  # pragma: no cover - defensive
            raise RuntimeError("fast engine: retry cascade failed to settle")
        return (
            _cat(_SUB, subs),
            _cat(_INTENT, futs),
            _cat(_DROP, drops),
            _cat(_ACC, accs),
        )

    # -- record expansion ---------------------------------------------------

    def expand(self, recs, w1: float, inclusive: bool):
        """Turn completion/delivery facts into accruals, terminals, next
        intents, corrupt failures, and future (cross-window) records.
        Pure: commits nothing.  Link completions become delivery records
        at ``finish + extra_delay`` using *this* window's latency, exactly
        when the scalar server schedules the delivery callback."""
        accs: list[np.ndarray] = []
        terms: list[np.ndarray] = []
        ints: list[np.ndarray] = []
        fails: list[np.ndarray] = []
        futs: list[np.ndarray] = []
        pend = recs
        while pend.shape[0]:
            nxt: list[np.ndarray] = []
            comp = pend["rtype"] == R_COMPLETE
            if comp.any():
                c = pend[comp]
                kd = c["kind"]
                link = (kd == K_UP0) | (kd == K_UP1) | (kd == K_CLINK)
                if link.any():
                    d = c[link]
                    ldev = self.store.device[d["task"]]
                    sid = np.where(
                        d["kind"] == K_CLINK,
                        3 * self.n,
                        self.uplink_sid[ldev],
                    )
                    # The delivery callback is pushed while the link's
                    # completion is processed, i.e. at the finish time.
                    d["push"] = d["time"]
                    d["time"] = d["time"] + self.extra[sid]
                    d["rtype"] = R_DELIVER
                    inwin = (
                        d["time"] <= w1 if inclusive else d["time"] < w1
                    )
                    if inwin.all():
                        nxt.append(d)
                    else:
                        nxt.append(d[inwin])
                        futs.append(d[~inwin])
                cpu = ~link
                if cpu.any():
                    c = c[cpu]
                    kd = c["kind"]
                    task = c["task"]
                    dev = self.store.device[task]
                    # Queue wait is measured from hop arrival, so outage
                    # retries' backoff shows up as queueing (the scalar
                    # ``computed`` closure binds the first submission time).
                    accs.append(
                        _rows(
                            _ACC,
                            c.shape[0],
                            time=c["time"],
                            task=task,
                            dc=c["service"],
                            dt=0.0,
                            dq=(c["time"] - c["base"]) - c["service"],
                            src=c["src"],
                        )
                    )
                    first = (kd == K_DEV1) | (kd == K_EDGE1)
                    if first.any():
                        exit1 = first & (
                            self.store.u1[task] < self.sigma1[dev]
                        )
                        if exit1.any():
                            e = c[exit1]
                            terms.append(
                                _rows(
                                    _TERM,
                                    e.shape[0],
                                    time=e["time"],
                                    task=e["task"],
                                    tier=1,
                                    src=e["src"],
                                )
                            )
                        deeper = first & ~exit1
                        if deeper.any():
                            # A CPU completion event is pushed when its
                            # service starts, so the next hop inherits the
                            # record's push (the service start time).
                            e = c[deeper]
                            ints.append(
                                _rows(
                                    _INTENT,
                                    e.shape[0],
                                    time=e["time"],
                                    task=e["task"],
                                    kind=np.where(
                                        e["kind"] == K_DEV1, K_UP1, K_EDGE2
                                    ),
                                    attempt=e["attempt"],
                                    base=e["time"],
                                    push=e["push"],
                                    src=e["src"],
                                )
                            )
                    second = kd == K_EDGE2
                    if second.any():
                        exit2 = second & (
                            self.store.u2[task] < self.exit2cond[dev]
                        )
                        if exit2.any():
                            e = c[exit2]
                            terms.append(
                                _rows(
                                    _TERM,
                                    e.shape[0],
                                    time=e["time"],
                                    task=e["task"],
                                    tier=2,
                                    src=e["src"],
                                )
                            )
                        deeper = second & ~exit2
                        if deeper.any():
                            e = c[deeper]
                            ints.append(
                                _rows(
                                    _INTENT,
                                    e.shape[0],
                                    time=e["time"],
                                    task=e["task"],
                                    kind=K_CLINK,
                                    attempt=e["attempt"],
                                    base=e["time"],
                                    push=e["push"],
                                    src=e["src"],
                                )
                            )
                    third = kd == K_CCPU
                    if third.any():
                        e = c[third]
                        terms.append(
                            _rows(
                                _TERM,
                                e.shape[0],
                                time=e["time"],
                                task=e["task"],
                                tier=3,
                                src=e["src"],
                            )
                        )
            deli = pend["rtype"] == R_DELIVER
            if deli.any():
                d = pend[deli]
                # A clean delivery closes the hop and is measured from hop
                # arrival (backoff waits and corrupted attempts included),
                # exactly as the pipeline's ``sent`` closures account it; a
                # corrupted attempt charges nothing of its own.
                accs.append(
                    _rows(
                        _ACC,
                        d.shape[0],
                        time=d["time"],
                        task=d["task"],
                        dc=0.0,
                        dt=np.where(d["corrupt"], 0.0, d["time"] - d["base"]),
                        dq=0.0,
                        src=d["src"],
                    )
                )
                bad = d["corrupt"]
                if bad.any():
                    b = d[bad]
                    fails.append(
                        _rows(
                            _INTENT,
                            b.shape[0],
                            time=b["time"],
                            task=b["task"],
                            kind=b["kind"],
                            attempt=b["attempt"],
                            base=b["base"],
                            push=b["push"],
                            src=b["src"],
                        )
                    )
                # Every clean delivery has a next hop: d0 → edge block 1,
                # d1 → edge block 2, d2 → cloud CPU.
                good = ~bad
                if good.any():
                    g = d[good]
                    kmap = np.empty(g.shape[0], dtype=np.int8)
                    kmap[g["kind"] == K_UP0] = K_EDGE1
                    kmap[g["kind"] == K_UP1] = K_EDGE2
                    kmap[g["kind"] == K_CLINK] = K_CCPU
                    ints.append(
                        _rows(
                            _INTENT,
                            g.shape[0],
                            time=g["time"],
                            task=g["task"],
                            kind=kmap,
                            attempt=g["attempt"],
                            base=g["time"],
                            push=g["push"],
                            src=g["src"],
                        )
                    )
            pend = _cat(_REC, nxt)
        return (
            _cat(_ACC, accs),
            _cat(_TERM, terms),
            _cat(_INTENT, ints),
            _cat(_INTENT, fails),
            _cat(_REC, futs),
        )

    # -- window fixpoint ----------------------------------------------------

    def schedule(self, subs, w1: float, inclusive: bool):
        """Sort submissions into FIFO order and run the per-server Lindley
        recursion; returns the sorted batch plus start/finish/served.

        Same-time submissions to one server are ordered by the push time
        of their causing event (the scalar heap's insertion order), then
        by task id (creation order, for same-boundary launches)."""
        order = np.lexsort(
            (subs["task"], subs["push"], subs["time"], subs["sid"])
        )
        subs = subs[order]
        sid = np.ascontiguousarray(subs["sid"])
        service = service_times_batch(
            subs["demand"], self.rate[sid], self.overhead[sid]
        )
        # The warm-pool hold floors each server's initial frontier: the
        # first job of the window starts no earlier than the hold, and
        # the Lindley chain carries the floor to every later job —
        # exactly the scalar server's deferred ``_start_next``.
        start, finish, served = fifo_schedule_batch(
            sid,
            np.ascontiguousarray(subs["time"]),
            service,
            np.maximum(self.free_at, self.hold_until)[sid],
            cutoff=w1,
            inclusive=inclusive,
        )
        return subs, service, start, finish, served

    def window(
        self,
        w0: float,
        w1: float,
        launches,
        inclusive: bool = False,
        hard_limit: float | None = None,
    ) -> None:
        """Process one window [w0, w1): incremental fixpoint, then commit.

        Round 1 schedules every server with pending submissions; after
        that, only servers whose submission multiset actually changed
        (tracked through the ``src`` provenance column on every cached
        row) are rescheduled, re-expanded, and re-resolved — shallowest
        pipeline level first.  Late rounds of the retry/outage feedback
        loop therefore touch a handful of rows instead of recomputing
        the whole window, while converging to the same fixpoint as a
        full recompute would."""
        due_i = self.cal_int["time"] <= w1 if inclusive else (
            self.cal_int["time"] < w1
        )
        due_r = self.cal_rec["time"] <= w1 if inclusive else (
            self.cal_rec["time"] < w1
        )
        if (
            not launches.shape[0]
            and not self.carried.shape[0]
            and not due_i.any()
            and not due_r.any()
        ):
            # Nothing launches, nothing was carried in, nothing on the
            # calendar matures: the window is a no-op, so skip the pool
            # and fixpoint setup entirely (small idle fleets hit this on
            # most drain windows).
            return
        cal_i = self.cal_int[due_i]
        cal_r = self.cal_rec[due_r]
        self.cal_int = self.cal_int[~due_i]
        self.cal_rec = self.cal_rec[~due_r]

        # Calendar records are facts: expand and resolve once, outside
        # the fixpoint.  Their provenance is exogenous (-1) — carried-in
        # rows are never invalidated, whatever happens this window.
        fact_acc, fact_term, fact_int, fact_fail, fact_fut = self.expand(
            cal_r, w1, inclusive
        )
        exo_int = _cat(_INTENT, [launches, cal_i, fact_int])
        exo_int["src"] = -1
        exo_fail = fact_fail
        exo_fail["src"] = -1
        exo_subs, exo_futs, exo_drops, exo_acc = self.resolve(
            exo_int, exo_fail, w1, inclusive
        )

        num1 = self.num_servers + 1  # trailing slot: src == -1 wraps here
        subs_pool = _Pool()  # submissions (carried + exogenous + derived)
        subs_pool.append(self.carried)
        subs_pool.append(exo_subs)
        sched_pool = _SchedPool()  # accepted schedules
        eacc = _Pool()  # accruals from expanded records and fallbacks
        eterm = _Pool()  # terminal exits
        efut = _Pool()  # delivery records landing beyond the window
        frec = _Pool()  # served records finishing beyond the window
        dfut = _Pool()  # retry intents landing beyond the window
        ddrop = _Pool()  # exhausted/deadline drops

        cand = np.zeros(num1, dtype=np.bool_)
        for b in subs_pool.batches:
            cand[b["sid"]] = True
        cand[self.num_servers] = False
        for _ in range(10_000):
            if not cand.any():
                break
            # Candidate servers: gather current submissions and the
            # last accepted schedule, then keep only the truly dirty
            # ones — servers whose submission multiset changed.
            new_rows = _cat(_SUB, subs_pool.select(cand, "sid"))
            old_parts = sched_pool.select_subs(cand)
            sid_new = np.ascontiguousarray(new_rows["sid"])
            new_cnt = np.bincount(sid_new, minlength=num1)
            if old_parts:
                old_rows = _cat(_SUB, old_parts)
                sid_old = np.ascontiguousarray(old_rows["sid"])
                old_cnt = np.bincount(sid_old, minlength=num1)
            else:
                old_rows = None
                old_cnt = np.zeros(num1, dtype=_I8)
            diff_cnt = new_cnt != old_cnt
            dirty = cand & diff_cnt
            check = cand & ~diff_cnt & (new_cnt > 0)
            if check.any() and old_rows is not None:
                a = new_rows[check[sid_new]]
                b = old_rows[check[sid_old]]
                # Canonical multiset order over every semantic column;
                # equal counts per sid keep the two sides row-aligned.
                pa = np.lexsort(
                    tuple(a[k] for k in reversed(_SUB_KEYS)) + (a["sid"],)
                )
                pb = np.lexsort(
                    tuple(b[k] for k in reversed(_SUB_KEYS)) + (b["sid"],)
                )
                mism = np.zeros(pa.shape[0], dtype=np.bool_)
                for k in _SUB_KEYS:
                    mism |= a[k][pa] != b[k][pb]
                if mism.any():
                    dirty[a["sid"][pa][mism]] = True
            dirty[self.num_servers] = False
            if not dirty.any():
                break
            # Only reschedule the shallowest dirty pipeline level this
            # round; deeper dirty servers stay candidates, so they are
            # scheduled once — after their feeders settle — instead of
            # once per upstream wave.
            deferred = np.zeros(num1, dtype=np.bool_)
            lv = self.level[:num1]
            min_lv = lv[dirty].min()
            deep = dirty & (lv > min_lv)
            if deep.any():
                deferred = deep
                dirty = dirty & ~deep
            # Reschedule the dirty servers from their current rows.
            d_subs = new_rows[dirty[sid_new]]
            d_subs, service, start, finish, served = self.schedule(
                d_subs, w1, inclusive
            )
            # Drop every cached artefact derived from the old schedules.
            sched_pool.invalidate(dirty)
            for p in (eacc, eterm, efut, frec, dfut, ddrop):
                p.invalidate(dirty, "src")
            removed = subs_pool.invalidate(dirty, "src", collect=True)
            sched_pool.append(d_subs, service, start, finish, served)
            d_served = d_subs[served]
            recs = _rows(
                _REC,
                d_served.shape[0],
                time=finish[served],
                task=d_served["task"],
                kind=d_served["kind"],
                rtype=R_COMPLETE,
                attempt=d_served["attempt"],
                base=d_served["base"],
                # The scalar server pushes its completion callback when
                # service starts; downstream hops sort ties by this.
                push=start[served],
                src=d_served["sid"],
                service=service[served],
                corrupt=d_served["corrupt"],
            )
            inwin = recs["time"] <= w1 if inclusive else recs["time"] < w1
            if inwin.all():
                recs_in = recs
            else:
                frec.append(recs[~inwin])
                recs_in = recs[inwin]
            acc, term, ints, fails, futs = self.expand(recs_in, w1, inclusive)
            eacc.append(acc)
            eterm.append(term)
            efut.append(futs)
            nsubs, nfuts, ndrops, nacc = self.resolve(
                ints, fails, w1, inclusive
            )
            subs_pool.append(nsubs)
            dfut.append(nfuts)
            ddrop.append(ndrops)
            eacc.append(nacc)
            # Next round's candidates: servers that gained or lost rows,
            # plus the deeper dirty servers deferred this round.
            cand = deferred
            for r in removed:
                cand[r["sid"]] = True
            if nsubs.shape[0]:
                cand[nsubs["sid"]] = True
            cand[self.num_servers] = False
        else:  # pragma: no cover - defensive
            raise RuntimeError("fast engine: window fixpoint did not converge")

        # -- commit (converged state only) ----------------------------------
        packed = sched_pool.compress()
        if packed is None:
            subs_all = _empty(_SUB)
            finish = np.empty(0, dtype=_F8)
            served = np.empty(0, dtype=np.bool_)
        else:
            subs_all, _, _, finish, served = packed
        drops = _cat(_DROP, [exo_drops] + ddrop.compress())
        fut_int = _cat(_INTENT, [exo_futs] + dfut.compress())
        store = self.store
        for batch in (subs_all, fut_int, drops):
            if batch.shape[0]:
                np.maximum.at(
                    store.retries,
                    batch["task"],
                    batch["attempt"].astype(np.int32),
                )
        if drops.shape[0]:
            store.dropped[drops["task"]] = True
        term = _cat(_TERM, eterm.compress())
        for batch in (fact_term, term):
            if batch.shape[0]:
                store.completed[batch["task"]] = batch["time"]
                store.tier[batch["task"]] = batch["tier"]
        acc_all = _cat(_ACC, [fact_acc, exo_acc] + eacc.compress())
        if acc_all.shape[0]:
            order = np.lexsort((acc_all["task"], acc_all["time"]))
            acc_all = acc_all[order]
            np.add.at(store.comp, acc_all["task"], acc_all["dc"])
            np.add.at(store.trans, acc_all["task"], acc_all["dt"])
            np.add.at(store.queue, acc_all["task"], acc_all["dq"])
        self.cal_int = _cat(_INTENT, [self.cal_int, fut_int])
        self.cal_rec = _cat(
            _REC,
            [self.cal_rec, fact_fut] + frec.compress() + efut.compress(),
        )
        carried = subs_all[~served]
        carried["src"] = -1
        self.carried = carried
        if served.any():
            # FIFO finishes are non-decreasing per server, so the max is
            # the last served job's finish — the server's new frontier.
            fin = finish[served]
            np.maximum.at(self.free_at, subs_all["sid"][served], fin)
            self.tmax = max(self.tmax, float(fin.max()))
        for batch in (subs_all, drops, acc_all, fut_int):
            if batch.shape[0]:
                self.tmax = max(self.tmax, float(batch["time"].max()))
        if hard_limit is not None and self.tmax > hard_limit:
            raise RuntimeError(
                f"event simulation exceeded hard time limit {hard_limit}s — "
                "the system is unstable and will not drain"
            )


def run_fast(
    sim: "EventSimulator",
    policy: OffloadingPolicy,
    num_slots: int,
    drain: bool = True,
    drain_limit_factor: float = 50.0,
    metrics: str = "records",
    checkpoint_every: int | None = None,
    checkpoint_sink=None,
    resume_from=None,
) -> "EventSimResult":
    """Array-backed twin of the scalar ``EventSimulator.run`` loop.

    Checkpoints are ``"state"``-kind: the engine is plain arrays (task
    store, server clocks, carried work, calibration state) and the slot
    step is plain picklable state, so the whole mutable run state
    pickles bit-exactly and a resumed run continues byte-identical to an
    uninterrupted one.

    ``metrics="streaming"`` compacts the task store after every window
    (:meth:`_FastEngine.compact`): terminal rows fold into the run's
    :class:`~repro.sim.streaming.TaskLedger` and the live rows slide
    left, so store memory tracks the in-flight population, not the run
    total — and the final materialisation of per-task records is
    skipped entirely.

    ``drain_limit_factor`` bounds the drain phase as in
    ``EventSimulator.run``: at least 1, ``inf`` for no bound.
    """
    from ..chaos.checkpoint import checkpoint_hook

    check_drain_limit(drain_limit_factor)
    slots = sim._task_slots(policy, metrics)
    emit = checkpoint_hook(
        sim, "event-fast", "state", checkpoint_every, checkpoint_sink,
        resume_from, slots=num_slots, metrics=metrics,
    )
    if resume_from is None:
        eng = _FastEngine(sim, slots.recovery)
        start_slot = 0
    else:
        payload = resume_from.payload()
        eng, slots = payload["eng"], payload["slots"]
        start_slot = resume_from.slot
    system = eng.system
    tau = system.slot_length
    n = system.num_devices
    ledger = slots.ledger
    streaming = ledger.stats is not None

    for slot in range(start_slot, num_slots):
        emit(slot, dict(eng=eng, slots=slots))
        w0 = slot * tau
        occ = eng.occupancy(w0)
        live, rungs, holds, _ = slots.control(
            slot, w0, occ[:n].tolist(), occ[2 * n : 3 * n].tolist(), system
        )
        eng.reconfigure(live)
        eng.set_device_modes(rungs)
        if holds is not None:
            # The scalar boundary's ``hold_until`` calls, as one
            # frontier assignment.
            eng.hold_until[2 * n : 3 * n] = holds
        launches = eng.launches(slots.draw(slot, w0), w0)
        eng.window(w0, (slot + 1) * tau, launches)
        if streaming:
            eng.compact(ledger)

    horizon = num_slots * tau
    if drain:
        eng.window(
            horizon,
            np.inf,
            _empty(_INTENT),
            inclusive=True,
            hard_limit=horizon * drain_limit_factor,
        )
        result_horizon = max(horizon, eng.tmax)
    else:
        # Closure: the scalar run_until(horizon) still pops events landing
        # exactly at the horizon, with the last window's rates.
        eng.window(horizon, horizon, _empty(_INTENT), inclusive=True)
        result_horizon = horizon
    store = eng.store
    if streaming:
        # Fold the drain window's terminals, then count the survivors —
        # tasks still in the system at the horizon — explicitly.
        eng.compact(ledger)
        live = store.count
        ledger.in_flight_batch(store.retries[:live], store.device[:live])
    else:
        ledger.tasks = store.materialize([ledger.tag(i) for i in range(n)])
    return slots.result(result_horizon)
