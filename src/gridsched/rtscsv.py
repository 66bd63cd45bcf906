"""Converter from RTS-96-style tabular CSVs to the case JSON document.

Expected tables:

* bus table: ``id, load_mw`` (peak MW; extra columns ignored)
* branch table: ``id, from_bus, to_bus, x_pu`` or ``susceptance_pu``,
  ``rate_mw, rate_emergency_mw[, switchable]``
* generator table: the Generator fields, with ``initial_on`` optional
* optional RES table: ``id, bus_id[, curtail_penalty]``
* optional hourly profile: ``hour, factor`` rows scaling the bus loads

The susceptance of a branch given by reactance is ``1/x`` per unit.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from .system import (DemandProfile, Generator, InitialStatus, ResUnit,
                     TransmissionLine, build_system, system_to_dict)


def _read_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return [
            {k.strip(): (v or "").strip() for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def _id(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        return text


def convert_rts_csv(
    bus_csv: str | Path,
    branch_csv: str | Path,
    gen_csv: str | Path,
    res_csv: str | Path | None = None,
    load_profile_csv: str | Path | None = None,
    peak_mw: float | None = None,
    mva_base: float = 100.0,
) -> dict:
    """Build the case JSON document from the tabular files.

    ``peak_mw`` rescales the bus loads so the system peak matches; the
    hourly profile (factors of peak) spreads them over the horizon, or a
    flat single-period profile is used when absent.
    """
    bus_rows = _read_csv(bus_csv)
    branch_rows = _read_csv(branch_csv)
    gen_rows = _read_csv(gen_csv)

    bus_ids = [_id(row["id"]) for row in bus_rows]
    loads = {_id(row["id"]): float(row.get("load_mw") or 0.0) for row in bus_rows}
    total = sum(loads.values())
    if peak_mw is not None and total > 0:
        scale = peak_mw / total
        loads = {b: mw * scale for b, mw in loads.items()}

    if load_profile_csv is not None:
        profile_rows = _read_csv(load_profile_csv)
        factors = [float(row["factor"]) for row in
                   sorted(profile_rows, key=lambda r: int(r["hour"]))]
    else:
        factors = [1.0]
    demand = DemandProfile(
        rows={b: tuple(loads[b] * f for f in factors) for b in bus_ids},
        horizon_length=len(factors),
    )

    lines = []
    for row in branch_rows:
        if row.get("susceptance_pu"):
            b = float(row["susceptance_pu"])
        else:
            x = float(row["x_pu"])
            if x == 0:
                raise ValueError(f"branch {row['id']}: zero reactance")
            b = 1.0 / x
        lines.append(TransmissionLine(
            id=_id(row["id"]),
            from_bus=_id(row["from_bus"]),
            to_bus=_id(row["to_bus"]),
            susceptance=b,
            limit_long_term=float(row["rate_mw"]),
            limit_emergency=float(row["rate_emergency_mw"]),
            switchable=bool(int(row.get("switchable") or 1)),
        ))

    generators = []
    for row in gen_rows:
        generators.append(Generator(
            id=_id(row["id"]),
            bus_id=_id(row["bus_id"]),
            p_min=float(row["p_min"]),
            p_max=float(row["p_max"]),
            cost_linear=float(row["cost_linear"]),
            cost_no_load=float(row["cost_no_load"]),
            cost_startup=float(row["cost_startup"]),
            ramp_hourly=float(row["ramp_hourly"]),
            ramp_startup=float(row["ramp_startup"]),
            ramp_shutdown=float(row["ramp_shutdown"]),
            ramp_10min=float(row["ramp_10min"]),
            min_up=int(row.get("min_up") or 1),
            min_down=int(row.get("min_down") or 1),
            emission_rate=float(row.get("emission_rate") or 0.0),
            initial_status=InitialStatus(on=bool(int(row.get("initial_on") or 0))),
        ))

    res_units = []
    if res_csv is not None:
        for row in _read_csv(res_csv):
            res_units.append(ResUnit(
                id=_id(row["id"]),
                bus_id=_id(row["bus_id"]),
                curtail_penalty=float(row.get("curtail_penalty") or 100.0),
            ))

    system = build_system(bus_ids, generators, lines, res_units, demand,
                          mva_base=mva_base)
    return system_to_dict(system)
