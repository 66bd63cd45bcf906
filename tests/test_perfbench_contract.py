"""The benchmark under perfbench/ is frozen: it calls gridsched by name.

Installing its tracer patches gridsched's internal call sites and fails
if one of them is gone; one traced oracle-tiny instance and one traced
rts24-day-build pass then exercise every public call the benchmark makes
on each workload.
"""

import importlib.util
import sys
from pathlib import Path

import gridsched

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def traced(run):
    """The cases ``run(workloads, api, tracer)`` returns with the tracer
    installed, and the names of the spans it recorded."""
    bench, tracing, workloads = load("run"), load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    api = tracer.install(bench.public_api(gridsched))
    try:
        cases = run(workloads, api, tracer)
    finally:
        tracer.uninstall()
    return cases, {sp[tracing.NAME] for sp in tracer.spans}


def test_traced_oracle_tiny_instance_passes():
    def run(workloads, api, tracer):
        inputs = [workloads.tiny_instance(api, 0, 0)]
        return workloads.OracleTiny(0).run_pass(api, inputs, tracer)

    cases, names = traced(run)
    assert len(cases) == 2
    assert [c.failures for c in cases] == [[], []]
    assert {"gridsched.solver.milp", "gridsched.oracle.solve",
            "MilpProblem.max_violation"} <= names


def test_traced_rts24_day_build_pass_passes():
    def run(workloads, api, tracer):
        day = workloads.Rts24DayBuild(0)
        return day.run_pass(api, day.setup(api), tracer)

    cases, names = traced(run)
    assert len(cases) == 2
    assert [c.failures for c in cases] == [[], []]
    assert {"gridsched.solver.milp", "MilpProblem.max_violation"} <= names
