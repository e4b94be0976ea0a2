"""Failure injection: degenerate and hostile configurations.

A production system meets broken networks, starved edges and pathological
workloads; the library must degrade predictably — stable maths, defensible
decisions, loud errors — rather than crash or silently mis-report.
"""

from __future__ import annotations

import math

import pytest

from repro.core.exit_setting import (
    AverageEnvironment,
    branch_and_bound_exit_setting,
    brute_force_exit_setting,
)
from repro.core.offloading import (
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    EdgeSystem,
    FixedRatioPolicy,
    LyapunovState,
    feasible_ratio_interval,
    slot_cost,
)
from repro.hardware import (
    CLOUD_V100,
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    NetworkProfile,
    RASPBERRY_PI_3B,
)
from repro.models.exit_rates import EmpiricalExitCurve
from repro.models.multi_exit import MultiExitDNN
from repro.models.zoo import build_model
from repro.sim.arrivals import ConstantArrivals
from repro.sim.simulator import SlotSimulator
from repro.units import kbps, mbps


def _me_dnn(curve=None):
    return MultiExitDNN(build_model("squeezenet-1.0"), curve)


def _system(link, partition=None, arrivals=1.0):
    me_dnn = _me_dnn()
    partition = partition or me_dnn.partition_at(3, 6)
    device = DeviceConfig(
        name="d",
        flops=RASPBERRY_PI_3B.flops,
        link=link,
        mean_arrivals=arrivals,
        overhead=RASPBERRY_PI_3B.per_task_overhead,
    )
    return EdgeSystem(
        devices=(device,),
        edge_flops=EDGE_I7_3770.flops,
        cloud_flops=CLOUD_V100.flops,
        edge_cloud=INTERNET_EDGE_CLOUD,
        partition=partition,
        shares=(1.0,),
    )


def test_dialup_link_forces_raw_input_offloading():
    """On a 56 kbps link the *intermediate* uploads (d₁ = 43× the raw
    input here) are what cannot fit: Eq. 8's feasible interval collapses
    toward full offloading of the tiny raw inputs, and the policy follows."""
    system = _system(NetworkProfile(kbps(56), 0.1), arrivals=2.0)
    partition = system.partition
    assert partition.d1 > 10 * partition.d0  # the premise
    lo, hi = feasible_ratio_interval(system.devices[0], partition, 1.0, 2.0)
    assert lo >= 0.95
    ratios = DriftPlusPenaltyPolicy(v=50).decide(
        system, LyapunovState.zeros(1), [2.0]
    )
    assert ratios[0] >= 0.95


def test_latency_longer_than_slot_means_no_transmission():
    system = _system(NetworkProfile(mbps(10), 2.0))  # 2 s latency, 1 s slot
    interval = feasible_ratio_interval(system.devices[0], system.partition, 1.0, 1.0)
    assert interval == (0.0, 0.0)


def test_slot_cost_survives_extreme_queues():
    system = _system(NetworkProfile(mbps(10), 0.02))
    cost = slot_cost(
        system.devices[0], system, 0.5, 5.0, 1e6, 1e6, 1.0
    )
    assert cost.y > 0
    assert cost.y < float("inf")


def test_all_tasks_exit_at_first_exit():
    """σ₁ = 1: nothing ever needs the edge or cloud; costs collapse to the
    device side and the tail vanishes."""
    profile = build_model("squeezenet-1.0")
    rates = [1.0] * profile.num_layers
    me_dnn = MultiExitDNN(profile, EmpiricalExitCurve.from_measurements(rates))
    partition = me_dnn.partition_at(3, 6)
    system = _system(NetworkProfile(mbps(10), 0.02), partition=partition)
    cost = slot_cost(system.devices[0], system, 0.0, 2.0, 0.0, 0.0, 1.0)
    assert cost.trans_local == 0.0
    assert cost.tail == 0.0


def test_starved_edge_pushes_search_to_corners():
    """An edge 1000× weaker than the device still yields a valid, optimal
    exit setting (everything meaningful happens on device/cloud)."""
    me_dnn = _me_dnn()
    env = AverageEnvironment(
        device_flops=RASPBERRY_PI_3B.flops,
        edge_flops=RASPBERRY_PI_3B.flops / 1000.0,
        cloud_flops=CLOUD_V100.flops,
        device_edge=NetworkProfile(mbps(10), 0.02),
        edge_cloud=INTERNET_EDGE_CLOUD,
    )
    fast = branch_and_bound_exit_setting(me_dnn, env)
    brute = brute_force_exit_setting(me_dnn, env)
    assert fast.selection == brute.selection
    assert fast.cost > 0


def test_simulator_with_zero_arrivals_everywhere():
    system = _system(NetworkProfile(mbps(10), 0.02), arrivals=0.0)
    result = SlotSimulator(
        system=system, arrivals=[ConstantArrivals(0.0)], seed=0
    ).run(FixedRatioPolicy(0.5), 20)
    # Nothing arrived: the empty statistics are NaN, never a fake 0.
    assert math.isnan(result.mean_tct)
    assert math.isnan(result.tct_percentile(95))
    assert result.final_backlog == 0.0
    assert result.is_stable()


def test_minimal_three_layer_chain_end_to_end():
    """The smallest legal chain (m=3) exercises every code path with the
    single possible selection (1, 2, 3)."""
    from repro.models.profile import DNNProfile, LayerProfile

    profile = DNNProfile(
        name="tiny",
        input_bytes=3072,
        layers=(
            LayerProfile("a", 1e8, (8, 8, 8)),
            LayerProfile("b", 1e8, (8, 4, 4)),
            LayerProfile("c", 1e8, (8, 2, 2)),
        ),
    )
    me_dnn = MultiExitDNN(profile)
    env = AverageEnvironment(
        device_flops=RASPBERRY_PI_3B.flops,
        edge_flops=EDGE_I7_3770.flops,
        cloud_flops=CLOUD_V100.flops,
        device_edge=NetworkProfile(mbps(10), 0.02),
        edge_cloud=INTERNET_EDGE_CLOUD,
    )
    result = branch_and_bound_exit_setting(me_dnn, env)
    assert result.selection.as_tuple() == (1, 2, 3)
    system = _system(NetworkProfile(mbps(10), 0.02), partition=result.partition)
    sim_result = SlotSimulator(
        system=system, arrivals=[ConstantArrivals(0.5)], seed=0
    ).run(DriftPlusPenaltyPolicy(v=50), 30)
    assert sim_result.mean_tct > 0
