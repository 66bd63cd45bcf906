"""Static grid model: buses, generators, lines, renewable units, demand.

All quantities at this layer are in physical units (MW, $, hours).
Susceptances are per-unit on ``mva_base``; the formulation layer converts
them to MW/rad when it builds flow equations.

Objects are plain frozen dataclasses and are never mutated after
construction.  Where an element sits is stated once, on the element:
``Generator.bus_id``, ``ResUnit.bus_id`` and a line's ``from_bus`` and
``to_bus``; a ``Bus`` is only its id.  Constructors do not validate;
:func:`validate_system` reports every broken invariant instead of raising,
so that a loader can show all problems at once.  A case document may also
list each bus's generators, RES units and lines; the loader checks those
lists against the element fields and drops them.  The loader reads each
element by its dataclass's own fields (``document.element``): a field
without a default is required, an id is a string or an integer, and a key
that names no field is an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from .document import (CaseFormatError, Id, element, ident, known, load,
                       number, obj, require)
from .scenarios import ScenarioSet


@dataclass(frozen=True)
class InitialStatus:
    """Generator state just before period 1.

    ``hours`` is how long the unit has been in that state.  The minimum
    up/down rows carry nothing over from before period 1, so
    ``validate_system`` requires at least ``min_up`` hours for an on unit
    and ``min_down`` for an off one.  The default is an off unit that has
    been down long enough to restart freely.
    ``dispatch`` is the pre-horizon output used by the ramp equations at
    t=1; when None it defaults to p_min for an on unit and 0 otherwise.
    ``validate_system`` requires a given one in [p_min, p_max] for an on
    unit and 0 for an off one.
    """

    on: bool = False
    hours: int = 10_000
    dispatch: float | None = None


@dataclass(frozen=True)
class Bus:
    id: Id


@dataclass(frozen=True)
class Generator:
    id: Id
    bus_id: Id
    p_min: float
    p_max: float
    cost_linear: float      # $/MWh
    cost_no_load: float     # $/h while committed
    cost_startup: float     # $ per start
    ramp_hourly: float      # MW/h between committed periods
    ramp_startup: float     # MW allowed in the first committed period
    ramp_shutdown: float    # MW allowed into the shutdown period
    ramp_10min: float       # MW of 10-minute corrective range
    min_up: int = 1
    min_down: int = 1
    emission_rate: float = 0.0  # lbs CO2 per MWh
    initial_status: InitialStatus = field(default_factory=InitialStatus)

    def initial_dispatch(self) -> float:
        """Pre-horizon output used by the t=1 ramp equations."""
        if self.initial_status.dispatch is not None:
            return self.initial_status.dispatch
        return self.p_min if self.initial_status.on else 0.0


@dataclass(frozen=True)
class TransmissionLine:
    id: Id
    from_bus: Id            # sending end
    to_bus: Id              # receiving end
    susceptance: float      # per-unit on mva_base
    limit_long_term: float  # MW, base case
    limit_emergency: float  # MW, post-contingency
    switchable: bool = True


@dataclass(frozen=True)
class DemandProfile:
    """Per-bus MW demand over the horizon; every bus has a full row."""

    rows: dict[Id, tuple[float, ...]]
    horizon_length: int

    def at(self, bus_id: Id, t: int) -> float:
        """Demand at 1-based period ``t``; a bus without a row raises
        KeyError."""
        return self.rows[bus_id][t - 1]

    def system_load(self, t: int) -> float:
        return sum(row[t - 1] for row in self.rows.values())


@dataclass(frozen=True)
class ResUnit:
    id: Id
    bus_id: Id
    curtail_penalty: float = 100.0  # $/MWh of post-contingency curtailment


@dataclass(frozen=True)
class PowerSystem:
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    lines: tuple[TransmissionLine, ...]
    res_units: tuple[ResUnit, ...]
    demand: DemandProfile
    mva_base: float = 100.0

    def line(self, line_id: Id) -> TransmissionLine:
        return {k.id: k for k in self.lines}[line_id]

    @property
    def horizon(self) -> int:
        return self.demand.horizon_length


def build_system(
    bus_ids: Iterable[Id],
    generators: Iterable[Generator],
    lines: Iterable[TransmissionLine],
    res_units: Iterable[ResUnit],
    demand: DemandProfile,
    mva_base: float = 100.0,
) -> PowerSystem:
    return PowerSystem(
        buses=tuple(Bus(id=b) for b in bus_ids),
        generators=tuple(generators),
        lines=tuple(lines),
        res_units=tuple(res_units),
        demand=demand,
        mva_base=mva_base,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    path: str      # e.g. "lines[L4].limit_emergency"
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_system(sys: PowerSystem) -> ValidationReport:
    """Check every model invariant and report all violations found."""
    out: list[Violation] = []

    def bad(path: str, message: str) -> None:
        out.append(Violation(path, message))

    def finite(path: str, item) -> None:  # flag each NaN or infinite field
        for name, value in vars(item).items():
            if isinstance(value, float) and not math.isfinite(value):
                bad(f"{path}.{name}", f"must be finite, got {value}")

    if not (math.isfinite(sys.mva_base) and sys.mva_base > 0):
        bad("mva_base", f"must be finite and > 0, got {sys.mva_base}")
    bus_ids = [b.id for b in sys.buses]
    if len(set(bus_ids)) != len(bus_ids):
        bad("buses", "duplicate bus ids")
    known_buses = set(bus_ids)

    for coll, name in ((sys.generators, "generators"), (sys.lines, "lines"),
                       (sys.res_units, "res_units")):
        ids = [item.id for item in coll]
        if len(set(ids)) != len(ids):
            bad(name, f"duplicate ids in {name}")

    for g in sys.generators:
        p = f"generators[{g.id}]"
        finite(p, g)
        finite(f"{p}.initial_status", g.initial_status)
        if g.bus_id not in known_buses:
            bad(f"{p}.bus_id", f"references unknown bus {g.bus_id!r}")
        if not 0 <= g.p_min <= g.p_max:
            bad(f"{p}.p_min", f"requires 0 <= p_min <= p_max, got [{g.p_min}, {g.p_max}]")
        for attr in ("ramp_hourly", "ramp_startup", "ramp_shutdown", "ramp_10min"):
            if getattr(g, attr) < 0:
                bad(f"{p}.{attr}", "ramp limit must be >= 0")
        if g.min_up < 1:
            bad(f"{p}.min_up", "must be >= 1")
        if g.min_down < 1:
            bad(f"{p}.min_down", "must be >= 1")
        init = g.initial_status
        need, term = (g.min_up, "min_up") if init.on else (g.min_down, "min_down")
        if init.hours < need:
            bad(f"{p}.initial_status.hours",
                f"unit {'on' if init.on else 'off'} for {init.hours} h, "
                f"fewer than its {term} of {need} h")
        if init.dispatch is not None and math.isfinite(init.dispatch):
            low, high = (g.p_min, g.p_max) if init.on else (0.0, 0.0)
            if not low <= init.dispatch <= high:
                bad(f"{p}.initial_status.dispatch",
                    f"unit {'on' if init.on else 'off'} needs a dispatch in "
                    f"[{low}, {high}], got {init.dispatch}")
        if g.emission_rate < 0:
            bad(f"{p}.emission_rate", "must be >= 0")

    for k in sys.lines:
        p = f"lines[{k.id}]"
        finite(p, k)
        if k.from_bus not in known_buses:
            bad(f"{p}.from_bus", f"references unknown bus {k.from_bus!r}")
        if k.to_bus not in known_buses:
            bad(f"{p}.to_bus", f"references unknown bus {k.to_bus!r}")
        if k.from_bus == k.to_bus:
            bad(f"{p}.to_bus", "line endpoints must differ")
        if k.susceptance == 0:
            bad(f"{p}.susceptance", "must be nonzero")
        if not 0 < k.limit_long_term:
            bad(f"{p}.limit_long_term", "must be > 0")
        if k.limit_emergency < k.limit_long_term:
            bad(f"{p}.limit_emergency",
                f"emergency limit {k.limit_emergency} below long-term {k.limit_long_term}")

    for w in sys.res_units:
        p = f"res_units[{w.id}]"
        finite(p, w)
        if w.bus_id not in known_buses:
            bad(f"{p}.bus_id", f"references unknown bus {w.bus_id!r}")
        if w.curtail_penalty < 0:
            bad(f"{p}.curtail_penalty", "must be >= 0")

    # demand rows
    T = sys.demand.horizon_length
    if T < 1:
        bad("demand.horizon_length", "must be >= 1")
    for b, row in sys.demand.rows.items():
        p = f"demand[{b}]"
        if b not in known_buses:
            bad(p, f"references unknown bus {b!r}")
        if len(row) != T:
            bad(p, f"row length {len(row)} != horizon {T}")
        if not all(0 <= d < math.inf for d in row):
            bad(p, "demand must be finite and >= 0")
    for b in known_buses:
        if b not in sys.demand.rows:
            bad(f"demand[{b}]", "missing demand row for bus")

    # connectivity of the in-service network
    if sys.buses:
        comp = _components(bus_ids, [(k.from_bus, k.to_bus) for k in sys.lines
                                     if k.from_bus in known_buses and k.to_bus in known_buses])
        if len(comp) > 1:
            bad("lines", f"network is disconnected ({len(comp)} components)")

    return ValidationReport(tuple(out))


def _components(nodes: list[Id], edges: list[tuple[Id, Id]]) -> list[set[Id]]:
    """Connected components, each started from its first node in ``nodes``."""
    adj: dict[Id, list[Id]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[Id] = set()
    comps = []
    for n in nodes:
        if n in seen:
            continue
        stack, comp = [n], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(y for y in adj[x] if y not in comp)
        seen |= comp
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# Penetration helpers
# ---------------------------------------------------------------------------

def scale_penetration(scen: ScenarioSet, factor: float) -> ScenarioSet:
    """Scale every availability profile by ``factor``; probabilities unchanged."""
    if not (math.isfinite(factor) and factor >= 0):
        raise ValueError(f"scale factor must be finite and >= 0, got {factor}")
    return ScenarioSet(
        scenarios=tuple(
            replace(s, availability={w: tuple(factor * v for v in prof)
                                     for w, prof in s.availability.items()})
            for s in scen.scenarios
        )
    )


def align_scenarios(sys: PowerSystem, scen: ScenarioSet) -> ScenarioSet:
    """Re-key scenario availability maps onto the system's RES unit ids.

    JSON object keys are strings; a case file with integer RES ids needs
    its scenario keys coerced back.  Raises ValueError when a key names no
    RES unit, or when a unit's profile is missing or not ``sys.horizon``
    periods long, so that a misspelt key cannot leave a unit at 0 MW.
    """
    by_str = {str(w.id): w.id for w in sys.res_units}
    scenarios = []
    for s in scen.scenarios:
        unknown = sorted(str(w) for w in s.availability if str(w) not in by_str)
        if unknown:
            raise ValueError(f"scenario {s.id}: no RES unit named {', '.join(unknown)}")
        availability = {by_str[str(w)]: prof for w, prof in s.availability.items()}
        for w in sys.res_units:
            if w.id not in availability:
                raise ValueError(f"scenario {s.id}: no profile for RES unit {w.id!r}")
            if len(availability[w.id]) != sys.horizon:
                raise ValueError(
                    f"scenario {s.id}, unit {w.id!r}: profile has "
                    f"{len(availability[w.id])} periods, horizon is {sys.horizon}")
        scenarios.append(replace(s, availability=availability))
    return ScenarioSet(scenarios=tuple(scenarios))


def peak_penetration(sys: PowerSystem, scen: ScenarioSet) -> float:
    """Expected RES availability at the peak-load period over the peak load."""
    T = sys.demand.horizon_length
    if T < 1:
        raise ValueError("demand horizon is empty")
    peak_t = max(range(1, T + 1), key=sys.demand.system_load)
    peak_load = sys.demand.system_load(peak_t)
    if peak_load <= 0:
        raise ValueError("peak system load is zero")
    expected = sum(
        s.probability * sum(prof[peak_t - 1] for prof in s.availability.values())
        for s in scen.scenarios
    )
    return expected / peak_load


# ---------------------------------------------------------------------------
# JSON document input
# ---------------------------------------------------------------------------

# per-bus id lists a case document may carry: the element collection and
# field each one repeats
_BUS_LISTS = {
    "generator_ids": ("generators", "bus_id"),
    "res_ids": ("res_units", "bus_id"),
    "inbound_line_ids": ("lines", "to_bus"),
    "outbound_line_ids": ("lines", "from_bus"),
}
_BUS_KEYS = frozenset(_BUS_LISTS)
_CASE_ARRAYS = ("buses", "generators", "lines", "res_units", "demand")
_CASE_KEYS = frozenset(_CASE_ARRAYS + ("mva_base",))
_DEMAND_KEYS = frozenset(("bus_id", "mw"))
_ELEMENTS = {"generators": Generator, "lines": TransmissionLine,
             "res_units": ResUnit}


def system_from_dict(doc: dict[str, Any]) -> PowerSystem:
    if not isinstance(doc, dict):
        raise CaseFormatError("case document must be a JSON object")
    known(doc, _CASE_KEYS, "case")
    for key in _CASE_ARRAYS:
        if not isinstance(require(doc, key, "case"), list):
            raise CaseFormatError(f"case.{key} must be an array")
    buses = tuple(element(Bus, b, f"buses[{i}]", _BUS_KEYS)
                  for i, b in enumerate(doc["buses"]))
    elements = {key: tuple(element(cls, item, f"{key}[{i}]")
                           for i, item in enumerate(doc[key]))
                for key, cls in _ELEMENTS.items()}

    rows: dict[Id, tuple[float, ...]] = {}
    for i, row in enumerate(doc["demand"]):
        where = f"demand[{i}]"
        known(obj(row, where), _DEMAND_KEYS, where)
        mw = require(row, "mw", where)
        if not isinstance(mw, list) or not mw:
            raise CaseFormatError(f"{where}.mw must be a nonempty array")
        bus = ident(require(row, "bus_id", where), f"{where}.bus_id")
        if bus in rows:
            raise CaseFormatError(
                f"{where}.bus_id: a second demand row for bus {bus!r}")
        rows[bus] = tuple(number(v, f"{where}.mw[{t}]")
                          for t, v in enumerate(mw))

    system = PowerSystem(
        buses=buses,
        demand=DemandProfile(rows=rows, horizon_length=max(
            map(len, rows.values()), default=0)),
        mva_base=number(doc.get("mva_base", 100.0), "mva_base"),
        **elements,
    )
    for i, b in enumerate(doc["buses"]):
        for key, (coll, attr) in _BUS_LISTS.items():
            if key not in b:
                continue
            where = f"buses[{i}].{key}"
            placed = {item.id for item in getattr(system, coll)
                      if getattr(item, attr) == b["id"]}
            if not isinstance(b[key], list) or {
                    ident(x, f"{where}[{j}]")
                    for j, x in enumerate(b[key])} != placed:
                raise CaseFormatError(
                    f"{where}: does not match the {attr} fields of {coll}")
    return system


def load_system(path: str | Path) -> PowerSystem:
    """Load a case JSON document; raises CaseFormatError with diagnostics."""
    return system_from_dict(load(path))
