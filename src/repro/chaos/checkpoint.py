"""Versioned checkpoint/restore for every execution path.

A :class:`Checkpoint` freezes a run at a slot boundary so the run can be
killed and resumed with **no observable difference** from an
uninterrupted run.  Two kinds cover the five execution paths:

* ``"state"`` — a pickled snapshot of the full mutable run state: the
  RNG generators (``numpy`` Generators pickle their exact bit state),
  the Lyapunov/fleet queues, governor and admission-gate state, policy
  and environment objects (both may carry per-run cursors), the records
  or task arrays accumulated so far.  Resume rebinds the loop locals
  from the payload and continues at ``slot`` — byte-identical because
  the restored objects *are* (bit-for-bit) the objects the uninterrupted
  run would have had.  Used by the fluid scalar/vectorized paths, the
  fast event engine, and both federated wrappers (the event wrapper
  checkpoints at shard granularity: ``slot`` is the next edge index).
* ``"replay"`` — a fingerprint-only marker.  The scalar event engine's
  heap holds Python closures over live queues (not snapshotable without
  aliasing), and the live runtime runs real worker threads; both are
  deterministic from their seed, so resume validates the fingerprint and
  re-executes from slot 0.  The result is byte-identical to the
  uninterrupted run for the same reason two seeded runs are.

Every path opens a run with :func:`checkpoint_hook`, which fingerprints
the run from its whole configuration object (:func:`config_digest`), so
resuming against a different world — another deployment, other
arrivals, another environment — is refused, not spliced.

The payload is pickled *at snapshot time* into :attr:`Checkpoint.blob`,
so a sink's copy can never alias state the run keeps mutating — a
checkpoint taken at slot k stays a slot-k snapshot.

On-disk format: one JSON header line (magic, schema version, kind, path,
slot, fingerprint) followed by the raw pickle blob.  Loading a file
whose magic or schema version does not match raises a loud
:class:`CheckpointError` — never a silent misparse.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: v2: the fast event engine's payload holds the shared slot step
#: (:class:`~repro.sim.pipeline.TaskSlots`) instead of its loose parts.
#: v3: the admission gate, slot controllers and QoS state hold arrays
#: (token buckets, shedding flags, rungs) where they held lists; the run
#: fingerprint digests only the configuration, so the version refuses a
#: v2 checkpoint that would otherwise resume and fail mid-run.
CHECKPOINT_SCHEMA_VERSION = 3
CHECKPOINT_MAGIC = "repro-checkpoint"
CHECKPOINT_KINDS = ("state", "replay")


class CheckpointError(ValueError):
    """A checkpoint could not be created, parsed, or resumed from."""


@dataclass(frozen=True)
class Checkpoint:
    """One frozen snapshot of a run at a slot boundary.

    Attributes:
        path: Execution-path name (``"fluid-scalar"``, ``"event-fast"``,
            ``"runtime"``, ...) — resume refuses a checkpoint taken on a
            different path.
        kind: ``"state"`` (full snapshot) or ``"replay"`` (fingerprint
            only; resume re-executes deterministically).
        slot: The next slot (or, for the federated event wrapper, the
            next edge) to execute on resume.  Everything before it is in
            the payload.
        fingerprint: Digest of the run configuration
            (:func:`run_fingerprint`); resume refuses a checkpoint whose
            fingerprint does not match the resuming simulator.
        blob: The pickled payload (``{}`` for replay checkpoints).
        schema_version: Format version of this container.
    """

    path: str
    kind: str
    slot: int
    fingerprint: str
    blob: bytes = field(repr=False)
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    def payload(self) -> dict[str, Any]:
        """Unpickle a *fresh* copy of the payload (safe to mutate)."""
        return pickle.loads(self.blob)


def snapshot(
    path: str,
    kind: str,
    slot: int,
    fingerprint: str,
    payload: dict[str, Any],
) -> Checkpoint:
    """Freeze ``payload`` into a :class:`Checkpoint` *now* (no aliasing)."""
    if kind not in CHECKPOINT_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pragma: no cover - defensive
        raise CheckpointError(f"payload for {path!r} is not picklable: {exc}")
    return Checkpoint(
        path=path, kind=kind, slot=slot, fingerprint=fingerprint, blob=blob
    )


def _canonical(value: Any) -> Any:
    """JSON stand-in for a non-primitive fingerprint value: a NumPy
    array by dtype, shape and a digest of its contents (its repr elides
    large arrays), anything else by ``str``."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return [
            str(data.dtype),
            list(data.shape),
            hashlib.sha256(data.tobytes()).hexdigest(),
        ]
    return str(value)


def run_fingerprint(**fields: Any) -> str:
    """A short stable digest of JSON-representable fields.

    Keys/values must be JSON-representable primitives or NumPy arrays
    (other values are stringified); the digest is over the canonical
    sorted encoding, so equal fields always agree.
    """
    canon = json.dumps(
        fields, sort_keys=True, separators=(",", ":"), default=_canonical
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# How :func:`config_digest` walks a value of each type: a dataclass by
# a getter of its fields, anything else by one of these kinds.
_ITEMS, _MAPPING, _ARRAY, _ATTRIBUTES = range(4)
_WALKS: dict[type, tuple[str, Any]] = {}


def _walk_of(kind: type) -> tuple[str, Any]:
    """The type's name and how to walk it (cached per type)."""
    walk = _WALKS.get(kind)
    if walk is None:
        if dataclasses.is_dataclass(kind):
            names = [f.name for f in dataclasses.fields(kind)]
            how = (
                attrgetter(*names)
                if len(names) > 1
                else lambda value: tuple(getattr(value, n) for n in names)
            )
        elif issubclass(kind, (tuple, list)):
            how = _ITEMS
        elif issubclass(kind, dict):
            how = _MAPPING
        elif issubclass(kind, np.ndarray):
            how = _ARRAY
        else:
            how = _ATTRIBUTES
        walk = _WALKS[kind] = (f"{kind.__module__}.{kind.__qualname__}", how)
    return walk


def config_digest(config: Any) -> str:
    """A by-value digest of a run's configuration object.

    Dataclasses go by their fields in declaration order, NumPy arrays by
    dtype, shape and content, floats exactly, tuples, lists and dicts
    element by element, anything else by its public attributes
    (``_``-prefixed state — a cache, a walk's position — is not
    configuration).  So configurations built from equal inputs agree:
    ``[p] * n`` and ``n`` equal processes, a fresh simulator and one
    that has already run.  Floats are hashed as one array; an object met
    again replays the tokens and floats of its first visit.
    """
    tokens: list[str] = []
    floats: list[float] = []
    spans: dict[int, tuple[int, int, int, int]] = {}

    def walk_all(values) -> None:
        for value in values:
            kind = type(value)
            if kind is float:
                tokens.append("f")
                floats.append(value)
            elif kind is int or kind is str or kind is bool or value is None:
                tokens.append(repr(value))
            else:
                walk(value)

    def walk(value: Any) -> None:
        span = spans.get(id(value))
        if span is not None:
            tokens.extend(tokens[span[0] : span[1]])
            floats.extend(floats[span[2] : span[3]])
            return
        t0, f0 = len(tokens), len(floats)
        name, how = _walk_of(type(value))
        tokens.append(name)
        if callable(how):
            walk_all(how(value))
        elif how == _ITEMS:
            tokens.append(str(len(value)))
            walk_all(value)
        elif how == _MAPPING:
            tokens.append(str(len(value)))
            for item in value.items():
                walk_all(item)
        elif how == _ARRAY:
            tokens.append(str(_canonical(value)))
        else:
            state = getattr(value, "__dict__", None)
            if state is None:  # e.g. a NumPy scalar: its repr is exact
                tokens.append(repr(value))
            else:
                for key in sorted(k for k in state if not k.startswith("_")):
                    tokens.append(key)
                    walk_all((state[key],))
        spans[id(value)] = (t0, len(tokens), f0, len(floats))

    walk_all((config,))
    digest = hashlib.sha256("\x1f".join(tokens).encode("utf-8"))
    digest.update(np.asarray(floats, dtype=np.float64).tobytes())
    return digest.hexdigest()


def validate_hooks(checkpoint_every: int | None, checkpoint_sink: Any) -> None:
    """Reject half-configured checkpoint hooks loudly."""
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be a positive slot count")
    if (checkpoint_every is None) != (checkpoint_sink is None):
        raise ValueError(
            "checkpoint_every and checkpoint_sink must be given together"
        )


def validate_resume(
    checkpoint: Checkpoint, path: str, kind: str, fingerprint: str
) -> None:
    """Refuse to resume from a checkpoint that does not match this run."""
    if checkpoint.schema_version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema v{checkpoint.schema_version} != "
            f"supported v{CHECKPOINT_SCHEMA_VERSION}"
        )
    if checkpoint.path != path:
        raise CheckpointError(
            f"checkpoint was taken on path {checkpoint.path!r}, "
            f"cannot resume on {path!r}"
        )
    if checkpoint.kind != kind:
        raise CheckpointError(
            f"checkpoint kind {checkpoint.kind!r} != expected {kind!r}"
        )
    if checkpoint.fingerprint != fingerprint:
        raise CheckpointError(
            f"checkpoint fingerprint {checkpoint.fingerprint} does not match "
            f"this run's configuration ({fingerprint}); resume would diverge"
        )


def checkpoint_hook(
    config: Any,
    path: str,
    kind: str,
    checkpoint_every: int | None,
    checkpoint_sink: Callable[[Checkpoint], None] | None,
    resume_from: Checkpoint | None = None,
    **run: Any,
) -> Callable[[int, Any], None]:
    """The checkpoint seam of one run, for every execution path.

    Checks the hook pair, and ``resume_from`` against the run's
    fingerprint: the :func:`config_digest` of ``config`` (the simulator,
    or what the live runtime was handed), the ``path`` and the ``run``
    arguments — taken only when the run checkpoints or resumes.
    Returns ``emit(step, payload)``, handing the sink a ``kind``
    checkpoint of ``payload`` at every positive multiple of
    ``checkpoint_every`` (step 0 is the initial condition).
    """
    validate_hooks(checkpoint_every, checkpoint_sink)
    if checkpoint_every is None and resume_from is None:
        return lambda step, payload: None
    fingerprint = run_fingerprint(
        path=path, config=config_digest(config), **run
    )
    if resume_from is not None:
        validate_resume(resume_from, path, kind, fingerprint)

    def emit(step: int, payload: Any) -> None:
        if checkpoint_every and step > 0 and step % checkpoint_every == 0:
            checkpoint_sink(snapshot(path, kind, step, fingerprint, payload))

    return emit


# -- serialization ----------------------------------------------------------


def checkpoint_to_bytes(checkpoint: Checkpoint) -> bytes:
    header = {
        "format": CHECKPOINT_MAGIC,
        "schema_version": checkpoint.schema_version,
        "path": checkpoint.path,
        "kind": checkpoint.kind,
        "slot": checkpoint.slot,
        "fingerprint": checkpoint.fingerprint,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + checkpoint.blob


def checkpoint_from_bytes(raw: bytes) -> Checkpoint:
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("not a checkpoint: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"not a checkpoint: unparsable header ({exc})")
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"not a checkpoint: format {header.get('format')!r} "
            f"!= {CHECKPOINT_MAGIC!r}"
            if isinstance(header, dict)
            else "not a checkpoint: header is not an object"
        )
    declared = header.get("schema_version")
    if declared != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema v{declared} != supported "
            f"v{CHECKPOINT_SCHEMA_VERSION}; refusing to guess the layout"
        )
    kind = header.get("kind")
    if kind not in CHECKPOINT_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    return Checkpoint(
        path=str(header["path"]),
        kind=str(kind),
        slot=int(header["slot"]),
        fingerprint=str(header["fingerprint"]),
        blob=raw[newline + 1 :],
        schema_version=int(declared),
    )


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> Path:
    """Write the header-line + pickle-blob container to ``path``."""
    target = Path(path)
    target.write_bytes(checkpoint_to_bytes(checkpoint))
    return target


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file, raising :class:`CheckpointError` loudly on
    any magic/schema mismatch."""
    return checkpoint_from_bytes(Path(path).read_bytes())


# -- sinks ------------------------------------------------------------------


class Killed(RuntimeError):
    """Raised by :class:`KillSwitch` to simulate a crash at a slot
    boundary; carries the last checkpoint for the resume half of a
    kill/restore test."""

    def __init__(self, checkpoint: Checkpoint) -> None:
        super().__init__(
            f"killed at {checkpoint.path} slot {checkpoint.slot}"
        )
        self.checkpoint = checkpoint


@dataclass
class KillSwitch:
    """A checkpoint sink that crashes the run at ``kill_slot``.

    Checkpoints before the kill slot are retained (like a sink that
    survived the crash on durable storage); the first checkpoint at or
    past ``kill_slot`` raises :class:`Killed` carrying itself.
    """

    kill_slot: int
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def __call__(self, checkpoint: Checkpoint) -> None:
        self.checkpoints.append(checkpoint)
        if checkpoint.slot >= self.kill_slot:
            raise Killed(checkpoint)


@dataclass
class CheckpointLog:
    """A sink that simply collects every checkpoint."""

    checkpoints: list[Checkpoint] = field(default_factory=list)

    def __call__(self, checkpoint: Checkpoint) -> None:
        self.checkpoints.append(checkpoint)

    @property
    def latest(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None
