"""Renewable availability scenarios.

A scenario is a probability plus one MW availability profile per RES
unit.  Profiles can be block-averaged so the availability is constant
within multi-hour blocks (default three hours), which is how day-ahead
wind inputs are coarsened to keep the reconfiguration problem tractable.
A scenario file is read with the case document's JSON rules
(``gridsched.document``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .document import ident, known, load, number, obj

PROBABILITY_TOL = 1e-9
WIND_STEP_FRAC = 0.35  # a wind walk's step deviation over its amplitude


@dataclass(frozen=True)
class Scenario:
    id: str | int
    probability: float
    availability: dict[str | int, tuple[float, ...]]  # res_id -> MW per period

    def horizon(self) -> int:
        return max((len(p) for p in self.availability.values()), default=0)


@dataclass(frozen=True)
class ScenarioSet:
    scenarios: tuple[Scenario, ...]

    def check(self) -> None:
        """Raise ValueError on any broken scenario-set invariant."""
        if not self.scenarios:
            raise ValueError("scenario set is empty")
        total = sum(s.probability for s in self.scenarios)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        seen = set()
        for s in self.scenarios:
            if s.id in seen:
                raise ValueError(f"scenario {s.id!r}: duplicate id")
            seen.add(s.id)
        horizons = {s.horizon() for s in self.scenarios}
        if len(horizons) > 1:
            raise ValueError(f"scenarios disagree on horizon length: {sorted(horizons)}")
        for s in self.scenarios:  # NaN fails each test: it passes no bound
            if not 0 <= s.probability <= 1:
                raise ValueError(f"scenario {s.id}: probability must be in "
                                 f"[0, 1], got {s.probability}")
            for w, prof in s.availability.items():
                if not all(0 <= v < math.inf for v in prof):
                    raise ValueError(f"scenario {s.id}, unit {w}: availability "
                                     f"must be finite and >= 0")


def block_average(profile: Sequence[float], block_len: int) -> tuple[float, ...]:
    """Replace each block of ``block_len`` periods with its arithmetic mean.

    A final partial block is averaged over its own length, so the output
    horizon always equals the input horizon.
    """
    if block_len <= 0:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    values = [float(v) for v in profile]
    out: list[float] = []
    for start in range(0, len(values), block_len):
        block = values[start:start + block_len]
        mean = sum(block) / len(block)
        out.extend([mean] * len(block))
    return tuple(out)


def build_scenario_set(
    profiles: Sequence[dict[str | int, Sequence[float]]],
    probabilities: Sequence[float],
    block_len: int = 1,
    ids: Sequence[str | int] | None = None,
) -> ScenarioSet:
    """Normalize probabilities, block-average each profile, assemble the set."""
    if len(profiles) != len(probabilities):
        raise ValueError(
            f"{len(profiles)} profiles but {len(probabilities)} probabilities")
    total = float(sum(probabilities))
    if total <= 0:
        raise ValueError("probability weights sum to zero")
    if ids is None:
        ids = [f"s{i}" for i in range(len(profiles))]
    scenarios = tuple(
        Scenario(
            id=ids[i],
            probability=probabilities[i] / total,
            availability={w: block_average(prof, block_len)
                          for w, prof in profiles[i].items()},
        )
        for i in range(len(profiles))
    )
    out = ScenarioSet(scenarios=scenarios)
    out.check()
    return out


def synth_wind_profiles(
    seed: int,
    n_scenarios: int,
    horizon: int,
    res_ids: Sequence[str | int],
    mean_mw: float | dict[str | int, float] = 100.0,
    amplitude_mw: float = 50.0,
) -> list[dict[str | int, tuple[float, ...]]]:
    """Synthesize per-site wind profiles as bounded random walks.

    Each site starts at its mean and takes Gaussian steps of standard
    deviation ``WIND_STEP_FRAC * amplitude_mw``, clipped to stay inside
    ``[max(0, mean - amplitude), mean + amplitude]``.  Fully deterministic
    for a given seed; amplitude 0 yields flat profiles at the mean.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    rng = np.random.default_rng(seed)
    means = (mean_mw if isinstance(mean_mw, dict)
             else {w: float(mean_mw) for w in res_ids})
    # every step at once, in the order one draw per step would take them
    steps = rng.normal(0.0, WIND_STEP_FRAC * amplitude_mw,
                       size=(n_scenarios, len(res_ids), horizon)).tolist()
    profiles: list[dict[str | int, tuple[float, ...]]] = []
    for scenario_steps in steps:
        site_profiles: dict[str | int, tuple[float, ...]] = {}
        for w, site_steps in zip(res_ids, scenario_steps):
            mean = float(means[w])
            lo = max(0.0, mean - amplitude_mw)
            hi = mean + amplitude_mw
            level = mean
            walk = []
            for step in site_steps:
                level = min(max(level + step, lo), hi)
                walk.append(level)
            site_profiles[w] = tuple(walk)
        profiles.append(site_profiles)
    return profiles


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = frozenset({"id", "probability", "availability"})


def scenario_set_from_list(doc: list[dict[str, Any]],
                           block_len: int = 1) -> ScenarioSet:
    """Parse a scenario array; optionally block-average on load.

    JSON object keys are always strings; ``align_scenarios`` re-keys them
    onto a case's RES unit ids.
    """
    if not isinstance(doc, list) or not doc:
        raise ValueError("scenario file must be a nonempty JSON array")
    profiles = []
    probabilities = []
    ids = []
    for i, s in enumerate(doc):
        where = f"scenario[{i}]"
        known(obj(s, where), _SCENARIO_KEYS, where)
        if "probability" not in s or "availability" not in s:
            raise ValueError(f"{where}: needs 'probability' and 'availability'")
        ids.append(ident(s.get("id", f"s{i}"), f"{where}.id"))
        probabilities.append(number(s["probability"], f"{where}.probability"))
        avail = s["availability"]
        if not isinstance(avail, dict) or not all(
                isinstance(prof, list) for prof in avail.values()):
            raise ValueError(f"{where}.availability must map res_id -> values")
        profiles.append({w: [number(v, f"{where}.availability[{w}]")
                             for v in prof] for w, prof in avail.items()})
    return build_scenario_set(profiles, probabilities, block_len=block_len, ids=ids)


def load_scenario_set(path: str | Path, block_len: int = 1) -> ScenarioSet:
    return scenario_set_from_list(load(path), block_len=block_len)
