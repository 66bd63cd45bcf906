#!/usr/bin/env python3
"""Benchmark of gridsched's day-ahead scheduling pipeline.

    python3 perfbench/run.py --workload rts24-slice --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: gridsched is imported from
``src/`` next to this directory, never from an installed copy.  The
workload's inputs are drawn from ``--seed``.  Set-up is repeated and its
median reported; passes over the workload repeat until ``--seconds``
have elapsed (at least one pass), and timings are medians over passes.
Every case is checked; ``failed`` counts the cases that missed a gate.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics.  With ``--trace 1`` the same untraced passes run,
then one traced set-up and one traced pass, and the last line carries the
per-layer metrics; the traced spans are written to
``perfbench/traces/<workload>-seed<seed>.jsonl``.  Per-pass and per-case
records go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"
SETUPS_PER_PASS = 10
MODELS = ("sscuc", "cnr")
LAYERS = ("system", "scenarios", "topology", "formulation", "milp", "solver",
          "engine", "metrics", "oracle", "bench")
SSCUC_EQUATIONS = tuple(f"eq{n}" for n in (*range(2, 11), *range(13, 25)))
EQUATIONS = {"sscuc": SSCUC_EQUATIONS,
             "cnr": SSCUC_EQUATIONS + ("eq25", "eq26", "eq27L", "eq27U",
                                       "eq28")}
PUBLIC_CALLS = (
    "load_system", "build_system", "validate_system", "synth_wind_profiles",
    "build_scenario_set", "align_scenarios", "build_contingency_set",
    "assemble", "solve", "extract_schedule", "verify_solution",
    "build_report", "enumerate_commitments")
SETUP_SPANS = {
    "system.load_s": ("gridsched.load_system", "gridsched.build_system"),
    "system.validate_s": ("gridsched.validate_system",),
    "scenarios.build_s": ("gridsched.synth_wind_profiles",
                          "gridsched.build_scenario_set",
                          "gridsched.align_scenarios"),
    "topology.contingency_set_s": ("gridsched.build_contingency_set",),
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("schedule_s.sscuc", "s"),
              ("schedule_s.cnr", "s"), ("peak_rss_mb", "MB"))


def per_layer_spec() -> list[tuple[str, str]]:
    spec = [(f"{layer}.self_s", "s") for layer in LAYERS]
    spec += [("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
             ("trace.overhead_s", "s"), ("trace.spans", "count")]
    spec += [(name, "s") for name in SETUP_SPANS]
    spec += [("topology.contingencies", "count"), ("engine.calls", "count"),
             ("milp.clone_s", "s"), ("milp.check_s", "s"),
             ("oracle.enumerate_s", "s"), ("oracle.lp_solves", "count"),
             ("oracle.lp_per_s", "1/s"), ("oracle.engine_share", "ratio"),
             ("metrics.violations", "count")]
    for m in MODELS:
        spec += [(f"engine.highs_s.{m}", "s"), (f"engine.nodes.{m}", "count"),
                 (f"engine.gap.{m}", "ratio"),
                 (f"formulation.assemble_s.{m}", "s"),
                 (f"formulation.cols.{m}", "count"),
                 (f"formulation.rows.{m}", "count"),
                 (f"formulation.nnz.{m}", "count"),
                 (f"formulation.binaries.{m}", "count"),
                 (f"solver.solve_s.{m}", "s"), (f"solver.overhead_s.{m}", "s"),
                 (f"milp.max_violation_s.{m}", "s"),
                 (f"metrics.extract_s.{m}", "s"), (f"metrics.verify_s.{m}", "s"),
                 (f"metrics.report_s.{m}", "s")]
        spec += [(f"formulation.rows.{eq}.{m}", "count") for eq in EQUATIONS[m]]
    return spec


def import_gridsched():
    """Import gridsched from this checkout's sources, or exit non-zero."""
    if not (SRC / "gridsched" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gridsched sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridsched
    if Path(gridsched.__file__).resolve().parent != SRC / "gridsched":
        raise SystemExit(f"benchmark: imported {gridsched.__file__}, "
                         f"not the sources under {SRC}")
    return gridsched


def public_api(gridsched) -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(gridsched, name)
                              for name in PUBLIC_CALLS})


def measure(workload, api, seconds: float) -> tuple[list[float], list[tuple]]:
    """Set-up times, and (wall seconds, cases) per pass.

    Passes repeat until ``seconds`` have elapsed, at least one.  Each pass
    is preceded by a batch of set-ups, so that set-up and pass times
    sample the same stretch of the machine's speed, which drifts by tens
    of percent over seconds on a shared host.
    """
    setup_times, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_PASS):
            started = time.perf_counter()
            inputs = workload.setup(api)
            setup_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        cases = workload.run_pass(api, inputs)
        passes.append((time.perf_counter() - started, cases))
        print(json.dumps({"pass": len(passes), "wall_s": passes[-1][0]}),
              file=sys.stderr)
    return setup_times, passes


def end_to_end(setup_times: list[float], passes: list[tuple]) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(wall for wall, _ in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for m in MODELS:
        values[f"schedule_s.{m}"] = statistics.median(
            c.schedule_s for _, cases in passes for c in cases if c.model == m)
    return values


def traced_run(workload, api, untraced_run_s: float):
    """One traced set-up and one traced pass; per-layer metrics."""
    from tracing import (ATTRS, END, LAYER, NAME, START, TAG, Tracer,
                         self_times, write_spans)

    tracer = Tracer()
    traced_api = tracer.install(api)
    try:
        with tracer.span("bench.setup", "bench"):
            inputs = workload.setup(traced_api)
        first = len(tracer.spans)
        gc.collect()
        with tracer.span("bench.pass", "bench"):
            cases = workload.run_pass(traced_api, inputs, tracer)
    finally:
        tracer.uninstall()
    TRACES.mkdir(exist_ok=True)
    write_spans(tracer.spans, TRACES / f"{workload.name}-seed{workload.seed}.jsonl")

    spans = tracer.spans
    own = self_times(spans)
    setup, run = range(first), range(first, len(spans))
    values = {name: 0.0 for name, _ in per_layer_spec()}

    def on(i: int, model: str | None, path: str) -> bool:
        tag = spans[i][TAG]
        return tag is not None and tag[2] == path and model in (None, tag[1])

    def total(names, indices=run, model=None, self_only=False) -> float:
        return sum(own[i] if self_only else spans[i][END] - spans[i][START]
                   for i in indices if spans[i][NAME] in names
                   and (model is None or on(i, model, "schedule")))

    for i in run:
        values[f"{spans[i][LAYER]}.self_s"] += own[i]
    run_s = spans[first][END] - spans[first][START]
    values.update({"trace.run_s": run_s, "trace.untraced_run_s": untraced_run_s,
                   "trace.overhead_s": run_s - untraced_run_s,
                   "trace.spans": len(run)})
    for metric, names in SETUP_SPANS.items():
        values[metric] = total(names, setup)

    engine = [i for i in run if spans[i][NAME] == "gridsched.solver.milp"]
    values["engine.calls"] = len(engine)
    values["milp.clone_s"] = total({"MilpProblem.clone_with_bounds"})
    values["milp.check_s"] = total({"MilpProblem.check"})
    enumerate_s = total({"gridsched.enumerate_commitments"})
    lp_solves = sum(spans[i][ATTRS]["lp_solves"] for i in run
                    if spans[i][NAME] == "gridsched.enumerate_commitments")
    oracle_engine = sum(spans[i][END] - spans[i][START] for i in engine
                        if on(i, None, "oracle"))
    values.update({"oracle.enumerate_s": enumerate_s,
                   "oracle.lp_solves": lp_solves})
    if enumerate_s > 0:
        values["oracle.lp_per_s"] = lp_solves / enumerate_s
        values["oracle.engine_share"] = oracle_engine / enumerate_s

    for m in MODELS:
        stats = [spans[i][ATTRS] for i in engine if on(i, m, "schedule")]
        values[f"engine.highs_s.{m}"] = total({"gridsched.solver.milp"}, model=m)
        values[f"engine.nodes.{m}"] = sum(s["nodes"] or 0 for s in stats)
        gaps = [s["gap"] for s in stats if s["has_x"] and s["gap"] is not None
                and math.isfinite(s["gap"])]
        values[f"engine.gap.{m}"] = max(gaps, default=0.0)
        values[f"formulation.assemble_s.{m}"] = total(
            {"gridsched.assemble"}, model=m)
        values[f"solver.solve_s.{m}"] = total({"gridsched.solve"}, model=m)
        values[f"solver.overhead_s.{m}"] = total(
            {"gridsched.solve"}, model=m, self_only=True)
        values[f"milp.max_violation_s.{m}"] = total(
            {"MilpProblem.max_violation"}, model=m)
        values[f"metrics.extract_s.{m}"] = total(
            {"gridsched.extract_schedule"}, model=m)
        values[f"metrics.verify_s.{m}"] = total(
            {"gridsched.verify_solution"}, model=m)
        values[f"metrics.report_s.{m}"] = total(
            {"gridsched.build_report"}, model=m)
        for case in cases:
            size = case.info.get("size")
            if case.model != m or size is None:
                continue
            for key in ("cols", "rows", "nnz", "binaries"):
                values[f"formulation.{key}.{m}"] += size[key]
            for eq in EQUATIONS[m]:
                values[f"formulation.rows.{eq}.{m}"] += size["by_equation"].get(eq, 0)
    for case in cases:
        values["topology.contingencies"] += case.info.get("contingencies", 0)
        values["metrics.violations"] += case.info.get("violations", 0)
        case.info["engine"] = [spans[i][ATTRS] for i in engine
                               if spans[i][TAG] == (case.name, case.model,
                                                    "schedule")]
    return values, cases


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    gridsched = import_gridsched()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    api = public_api(gridsched)

    setup_times, passes = measure(workload, api, args.seconds)
    all_cases = [c for _, cases in passes for c in cases]
    shown = set(map(id, passes[0][1]))

    if args.trace:
        untraced_run_s = statistics.median(wall for wall, _ in passes)
        values, traced_cases = traced_run(workload, api, untraced_run_s)
        all_cases += traced_cases
        shown.update(map(id, traced_cases))
        spec = per_layer_spec()
    else:
        values = end_to_end(setup_times, passes)
        spec = END_TO_END

    for case in all_cases:
        if case.failures or id(case) in shown:
            record = {"workload": args.workload, "seed": args.seed,
                      "case": case.name, "model": case.model,
                      "schedule_s": case.schedule_s,
                      **{k: v for k, v in case.info.items() if k != "size"},
                      "failures": case.failures}
            print(json.dumps(record, default=str), file=sys.stderr)

    metrics = {}
    for name, unit in spec:
        value = float(values[name])
        if not math.isfinite(value):
            raise SystemExit(f"benchmark: metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    failed = sum(1 for c in all_cases if c.failures)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_cases),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
