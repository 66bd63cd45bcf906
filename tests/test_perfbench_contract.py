"""The benchmark under perfbench/ is frozen: it calls gridsched by name.

Installing its tracer patches gridsched's internal call sites and fails
if one of them is gone; one traced oracle-tiny instance then exercises
every public call the benchmark makes on that workload.
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


def test_traced_oracle_tiny_instance_passes():
    bench, tracing, workloads = load("run"), load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    api = tracer.install(bench.public_api(gridsched))
    try:
        inputs = [workloads.tiny_instance(api, 0, 0)]
        cases = workloads.OracleTiny(0).run_pass(api, inputs, tracer)
    finally:
        tracer.uninstall()
    assert len(cases) == 2
    assert [c.failures for c in cases] == [[], []]
    names = {sp[tracing.NAME] for sp in tracer.spans}
    assert {"gridsched.solver.milp", "gridsched.oracle.solve",
            "MilpProblem.max_violation"} <= names
