"""Spans around gridsched's public calls, kept in memory.

A span has a name, a start, an end, a parent span and a tag.  The tag is
set by the benchmark around each case: ``(case, model, path)`` where
``case`` and ``model`` identify the case and ``path`` is ``"schedule"``
for the assemble-to-report sequence or ``"oracle"`` for the exhaustive
enumeration.  Spans are recorded only while a
``Tracer`` is installed, so untraced runs execute gridsched unwrapped.

Calls the benchmark makes are wrapped in its own ``api`` namespace.
Calls gridsched makes internally are wrapped at the name the caller
looks them up by (``gridsched.solver.milp``, ``gridsched.oracle.solve``,
``MilpProblem.max_violation`` ...), and restored by ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

# span fields, stored as lists to keep tracing cheap inside the oracle
NAME, LAYER, START, END, PARENT, TAG, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.tag: tuple[str, str, str] | None = None
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        sp = [name, layer, time.perf_counter(), math.nan,
              self._stack[-1] if self._stack else -1, self.tag, None]
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    sp[ATTRS] = on_result(result)
                return result
        return traced

    def install(self, api: SimpleNamespace) -> SimpleNamespace:
        """Wrap gridsched's internal call sites; return a traced ``api``."""
        from gridsched import metrics, oracle, solver
        from gridsched.milp import MilpProblem

        def patch(owner, attr: str, name: str, layer: str, on_result=None):
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, layer, original, on_result))

        patch(solver, "milp", "gridsched.solver.milp", "engine", _engine_stats)
        patch(oracle, "solve", "gridsched.oracle.solve", "solver")
        patch(oracle, "assemble", "gridsched.oracle.assemble", "formulation")
        patch(metrics, "cost_breakdown", "gridsched.metrics.cost_breakdown",
              "metrics")
        for method in ("max_violation", "check", "clone_with_bounds"):
            patch(MilpProblem, method, f"MilpProblem.{method}", "milp")

        traced = {}
        for attr, fn in vars(api).items():
            layer = fn.__module__.rsplit(".", 1)[-1]
            on_result = (_oracle_stats if attr == "enumerate_commitments"
                         else None)
            traced[attr] = self.wrap(f"gridsched.{attr}", layer, fn, on_result)
        return SimpleNamespace(**traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _engine_stats(res) -> dict:
    """Engine statistics that gridsched's SolveResult does not keep."""
    def number(attr, kind):
        value = getattr(res, attr, None)
        return None if value is None else kind(value)

    return {"nodes": number("mip_node_count", int),
            "gap": number("mip_gap", float),
            "dual_bound": number("mip_dual_bound", float),
            "has_x": res.x is not None}


def _oracle_stats(res) -> dict:
    return {"lp_solves": res.lp_solves}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [sp[END] - sp[START] for sp in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            out[sp[PARENT]] -= sp[END] - sp[START]
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w") as fh:
        for i, sp in enumerate(spans):
            case, model, where = sp[TAG] or (None, None, None)
            fh.write(json.dumps({
                "id": i, "name": sp[NAME], "layer": sp[LAYER],
                "start": sp[START] - origin, "end": sp[END] - origin,
                "parent": sp[PARENT], "case": case, "model": model,
                "path": where, "attrs": sp[ATTRS]}) + "\n")
