"""Per-edge SLO accounting for federated runs.

Extends :mod:`repro.resilience.slo` from one edge to E: every shard gets
its own SLO block, the global block aggregates across shards, and the
summary records whether the accounting identity

    generated = completed + dropped + shed + in-flight

holds per edge *and* in the global sum (the property suite pins both).

Empty shards follow the PR-3 empty-fleet convention: rates over zero
tasks are ``NaN``, never ``0.0`` — an edge that served nothing must not
read as "0% completions" (or "100%") in a dashboard.  Counters stay
honest zeros.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..resilience.slo import slo_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import FederatedEventResult
    from .fluid import FederatedFluidResult


def federated_slo_summary(
    result: "FederatedEventResult", deadline: float | None = None
) -> dict:
    """The federation-wide SLO block for JSON payloads.

    ``edges[e]`` is the standard per-shard
    :func:`~repro.resilience.slo.slo_summary` (NaN rates on empty
    shards); ``global`` summarises the merged, re-keyed task set; and
    ``identity_holds`` asserts the per-edge identities and their sum.
    """
    edges = [
        slo_summary(edge_result, deadline=deadline)
        for edge_result in result.edge_results
    ]
    merged = result.merged()
    return {
        "num_edges": result.num_edges,
        "edges": edges,
        "global": slo_summary(merged, deadline=deadline),
        "identity_holds": result.identity_holds(),
    }


def federated_fluid_summary(result: "FederatedFluidResult") -> dict:
    """Per-edge fluid accounting for a federated slot-simulation run.

    The fluid model has no discrete tasks, so the block carries the
    fluid analogues: arrivals served, shed demand, arrival-weighted mean
    TCT, and final backlog, per edge and globally.  A shard that served
    zero arrivals reports ``mean_tct = NaN`` (the empty-shard
    convention of :attr:`~repro.sim.metrics.SimulationResult.mean_tct`).
    """
    def _block(res) -> dict:
        return {
            "arrivals": res.total_arrivals,
            "shed": res.total_shed,
            "mean_tct": res.mean_tct,
            "final_backlog": res.final_backlog,
            "max_mode": (
                res.stream.max_mode
                if res.stream is not None
                else max(r.mode for r in res.records)
            ),
        }

    edges = [_block(edge_result) for edge_result in result.edge_results]
    global_result = result.global_result
    return {
        "num_edges": result.num_edges,
        "edges": edges,
        "global": _block(global_result),
        # The fluid identity: per-edge served+shed demand sums to the
        # global generated demand (floats — compare with a tolerance).
        "identity_gap": abs(
            sum(e["arrivals"] + e["shed"] for e in edges)
            - global_result.total_generated
        ),
    }
