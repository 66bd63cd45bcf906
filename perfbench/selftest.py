#!/usr/bin/env python3
"""Self-test of the benchmark, on seed 0 and one pass per workload.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, in both the untraced and the traced run of each workload, that the
traced per-layer self times sum to the traced pass time, and that a
tampered objective trips the gates that feed ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    printed = result["metrics"]
    assert sorted(printed) == sorted(m["name"] for m in declared), label
    for m in declared:
        got = printed[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit"
        assert math.isfinite(got["value"]), f"{label}: {m['name']} value"


def check_workloads(bench: dict) -> None:
    for workload in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            out = subprocess.run(
                [*bench["command"], "--workload", workload["name"],
                 "--seed", "0", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
                check=True)
            result = last_json_line(out.stdout)
            check_result(result, declared, label)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                layers = sum(values[f"{layer}.self_s"] for layer in run.LAYERS)
                assert abs(layers - values["trace.run_s"]) <= 1e-6, label
            else:
                assert all(v > 0 for v in values.values()), label
            print(f"ok  {label}: {len(values)} metrics")


def check_tampered_objective() -> None:
    """Add 1 to every objective the schedule path sees; every feasible
    oracle-tiny case must then fail its gates."""
    gridsched = run.import_gridsched()
    honest = gridsched.solve

    def tampered(prob, opts=None):
        result = honest(prob, opts)
        if result.status.has_solution:
            result.objective += 1.0
        return result

    gridsched.solve = tampered
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "oracle-tiny", "--seed", "0",
                      "--seconds", "0", "--trace", "0"])
    finally:
        gridsched.solve = honest
    result = last_json_line(out.getvalue())
    assert result["correct"] is False, result
    assert result["failed"] >= 1, result
    print(f"ok  tampered objective: {result['failed']} of "
          f"{result['attempted']} cases failed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END), "end_to_end differs from run.END_TO_END"
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        run.per_layer_spec(), "per_layer differs from run.per_layer_spec()"
    check_tampered_objective()
    check_workloads(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
