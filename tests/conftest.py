"""Shared builders for test systems."""

from __future__ import annotations

import numpy as np
import pytest

from gridsched import (DemandProfile, Generator, InitialStatus, PowerSystem,
                       ResUnit, ScenarioSet, TransmissionLine,
                       build_scenario_set, build_system)
from gridsched.milp import MilpProblem


def named_cols(prob: MilpProblem, names, lb, ub, integer=False) -> list[int]:
    """Append one column per name, each its own one-column block with no
    key, so it is named by the bare name; returns them."""
    lb, ub, integer = (np.broadcast_to(a, len(names)) for a in (lb, ub, integer))
    return [int(prob.add_col_block(name, [()], lb[i], ub[i], integer[i])[0])
            for i, name in enumerate(names)]


def col_value(prob: MilpProblem, res, symbol: str, *index) -> float:
    """The value a solve result gives the column of ``symbol[index]``."""
    return float(res.x[prob.registry.col(symbol, *index)])


def make_gen(gid, bus, p_min=0.0, p_max=100.0, c=20.0, c_nl=10.0, c_su=100.0,
             ramp_hourly=None, ramp_startup=None, ramp_shutdown=None,
             ramp_10min=None, min_up=1, min_down=1, emission_rate=0.0,
             initial_on=False, initial_dispatch=None) -> Generator:
    """Generator with never-binding hourly ramps unless overridden."""
    return Generator(
        id=gid, bus_id=bus, p_min=p_min, p_max=p_max, cost_linear=c,
        cost_no_load=c_nl, cost_startup=c_su,
        ramp_hourly=p_max if ramp_hourly is None else ramp_hourly,
        ramp_startup=p_max if ramp_startup is None else ramp_startup,
        ramp_shutdown=p_max if ramp_shutdown is None else ramp_shutdown,
        ramp_10min=p_max if ramp_10min is None else ramp_10min,
        min_up=min_up, min_down=min_down, emission_rate=emission_rate,
        initial_status=InitialStatus(on=initial_on, dispatch=initial_dispatch),
    )


def make_line(kid, frm, to, b=10.0, limit=100.0, emergency=None,
              switchable=True) -> TransmissionLine:
    return TransmissionLine(
        id=kid, from_bus=frm, to_bus=to, susceptance=b,
        limit_long_term=limit,
        limit_emergency=limit * 1.2 if emergency is None else emergency,
        switchable=switchable,
    )


def triangle_system(T=2, demand_b3=(60.0, 80.0), wind=True,
                    limit=100.0) -> PowerSystem:
    """3-bus loop: two generators, optional wind at the load bus."""
    demand = DemandProfile(
        rows={"b1": tuple([10.0] * T), "b2": tuple([20.0] * T),
              "b3": tuple(demand_b3[:T])},
        horizon_length=T)
    gens = [
        make_gen("g1", "b1", p_min=10, p_max=120, c=20, c_nl=10, c_su=100,
                 ramp_10min=60, emission_rate=1500),
        make_gen("g2", "b2", p_min=5, p_max=120, c=28, c_nl=8, c_su=80,
                 ramp_10min=60, emission_rate=1000),
    ]
    lines = [
        make_line("L1", "b1", "b2", limit=limit),
        make_line("L2", "b1", "b3", limit=limit),
        make_line("L3", "b2", "b3", limit=limit),
    ]
    res = [ResUnit(id="w1", bus_id="b3", curtail_penalty=100.0)] if wind else []
    return build_system(["b1", "b2", "b3"], gens, lines, res, demand)


def triangle_scenarios(T=2, profiles=None, probs=(0.6, 0.4)) -> ScenarioSet:
    if profiles is None:
        profiles = [{"w1": [30.0] * T}, {"w1": [10.0] * T}]
    return build_scenario_set(profiles, list(probs), block_len=1)


def path_system(loads=(0.0, 0.0, 50.0)) -> PowerSystem:
    """3-bus path a-b-c; both lines are bridges."""
    demand = DemandProfile(
        rows={"a": (loads[0],), "b": (loads[1],), "c": (loads[2],)},
        horizon_length=1)
    gens = [make_gen("g1", "a", p_max=200)]
    lines = [make_line("La", "a", "b"), make_line("Lb", "b", "c")]
    return build_system(["a", "b", "c"], gens, lines, [], demand)


def ring4_system() -> PowerSystem:
    """4-bus ring plus a 1-3 chord; wind at 3, load at 2.

    Outaging the chord forces three quarters of the wind through the weak
    2-3 line, so the fixed-topology model must curtail post-contingency;
    opening the weak line reroutes everything the long way and recovers
    full delivery.  Hand numbers: base-case flow on the weak line is
    0.625 * 60 = 37.5 MW; with the chord out it is 0.5 w_c + 15 <= 40, so
    w_c <= 50 of the 60 MW available; with line R2 also opened, w_c = 60.
    """
    demand = DemandProfile(rows={1: (0.0,), 2: (60.0,), 3: (0.0,), 4: (0.0,)},
                           horizon_length=1)
    gens = [make_gen("gA", 1, p_min=0, p_max=150, c=10, c_nl=10, c_su=100,
                     ramp_10min=150)]
    lines = [
        make_line("R1", 1, 2, b=10, limit=100, emergency=120),
        make_line("R2", 2, 3, b=10, limit=38, emergency=40),
        make_line("R3", 3, 4, b=10, limit=100, emergency=120),
        make_line("R4", 4, 1, b=10, limit=100, emergency=120),
        make_line("CH", 1, 3, b=10, limit=100, emergency=120),
    ]
    res = [ResUnit(id="w3", bus_id=3, curtail_penalty=100.0)]
    return build_system([1, 2, 3, 4], gens, lines, res, demand)


def ring4_scenarios() -> ScenarioSet:
    return build_scenario_set([{"w3": [60.0]}], [1.0])


def sixbus_system() -> PowerSystem:
    """6-bus ring with two chords, ample limits, wind plus a local unit.

    Every outage admits a zero-curtailment corrective dispatch, and the
    committed unit at the wind bus leaves headroom for alternative
    post-contingency points that trade wind for thermal output.
    """
    T = 2
    demand = DemandProfile(
        rows={1: (0.0,) * T, 2: (0.0,) * T, 3: (40.0, 40.0),
              4: (30.0, 30.0), 5: (0.0,) * T, 6: (0.0,) * T},
        horizon_length=T)
    gens = [
        make_gen("gA", 1, p_min=0, p_max=200, c=10, c_nl=10, c_su=50,
                 ramp_10min=200),
        make_gen("gW", 6, p_min=0, p_max=100, c=30, c_nl=5, c_su=20,
                 ramp_10min=100),
    ]
    lines = [
        make_line("L12", 1, 2), make_line("L23", 2, 3),
        make_line("L34", 3, 4), make_line("L45", 4, 5),
        make_line("L56", 5, 6), make_line("L61", 6, 1),
        make_line("L13", 1, 3), make_line("L46", 4, 6),
    ]
    res = [ResUnit(id="w6", bus_id=6, curtail_penalty=100.0)]
    return build_system([1, 2, 3, 4, 5, 6], gens, lines, res, demand)


def sixbus_scenarios() -> ScenarioSet:
    return build_scenario_set([{"w6": [50.0, 40.0]}], [1.0])


def parallel_pair_system(r10_a=25.0) -> PowerSystem:
    """Two buses joined by parallel circuits; cheap unit and wind at A.

    The corrective ramp of the cheap unit is deliberately small: after
    losing one circuit, export is capped at 55 MW and delivering the wind
    requires the cheap unit's base dispatch to back down, swapping energy
    to the remote unit at 40 $/MWh.  Its 10-minute ramp of 25 MW also caps
    the reserve it can offer, so the remote unit's base output stays at or
    below 25 MW.
    """
    demand = DemandProfile(rows={"A": (0.0,), "B": (100.0,)}, horizon_length=1)
    gens = [
        make_gen("gA", "A", p_min=0, p_max=80, c=10, c_nl=10, c_su=20,
                 ramp_10min=r10_a),
        make_gen("gB", "B", p_min=0, p_max=160, c=50, c_nl=12, c_su=25,
                 ramp_10min=160),
    ]
    lines = [
        make_line("P1", "A", "B", b=10, limit=50, emergency=55),
        make_line("P2", "A", "B", b=10, limit=50, emergency=55),
    ]
    res = [ResUnit(id="w", bus_id="A", curtail_penalty=100.0)]
    return build_system(["A", "B"], gens, lines, res, demand)


def parallel_pair_scenarios() -> ScenarioSet:
    return build_scenario_set([{"w": [40.0]}], [1.0])


@pytest.fixture
def triangle():
    return triangle_system()


@pytest.fixture
def triangle_scen():
    return triangle_scenarios()
