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

The payload is pickled *at snapshot time* into :attr:`Checkpoint.blob`,
so a sink's copy can never alias state the run keeps mutating — a
checkpoint taken at slot k stays a slot-k snapshot.

On-disk format: one JSON header line (magic, schema version, kind, path,
slot, fingerprint) followed by the raw pickle blob.  Loading a file
whose magic or schema version does not match raises a loud
:class:`CheckpointError` — never a silent misparse.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: v2: the fast event engine's payload holds the shared slot step
#: (:class:`~repro.sim.pipeline.TaskSlots`) instead of its loose parts.
CHECKPOINT_SCHEMA_VERSION = 2
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
    """A short stable digest of a run configuration.

    Keys/values must be JSON-representable primitives or NumPy arrays
    (other values are stringified); the digest is over the canonical
    sorted encoding, so two simulators built from the same configuration
    agree.
    """
    canon = json.dumps(
        fields, sort_keys=True, separators=(",", ":"), default=_canonical
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def validate_hooks(checkpoint_every: int | None, checkpoint_sink: Any) -> None:
    """Reject half-configured checkpoint hooks loudly."""
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be a positive slot count")
    if (checkpoint_every is None) != (checkpoint_sink is None):
        raise ValueError(
            "checkpoint_every and checkpoint_sink must be given together"
        )


def should_emit(checkpoint_every: int | None, slot: int) -> bool:
    """Emit at every positive multiple of the cadence (slot 0 is the
    initial condition — nothing to save yet)."""
    return bool(checkpoint_every) and slot > 0 and slot % checkpoint_every == 0


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
