"""Command-line driver: load -> formulate -> solve -> verify -> report.

Subcommands:

* ``run``    one model end-to-end, writing report.json / report.csv
* ``sweep``  penetration sweep over scale factors x model kinds x penalty
* ``verify`` exact MILP vs exhaustive-enumeration cross-check

Each command's MILP goes through ``_schedule``, which assembles, solves,
extracts, verifies and reports one model.  A point that the verifier
rejects, or whose recomputed cost does not reconcile with the solver
objective, gets no report.

Exit codes: 0 ok, 1 verification mismatch (a verifier violation, a cost
that fails reconciliation, or a solver point that fails the post-solve
integrality or feasibility check), 2 input error, 3 caps or limits
exceeded (``run`` and ``sweep`` still verify and report a time-limit
incumbent), 4 solver reports infeasible or HiGHS fails.  A NaN or
infinite input number, sweep factor or ``--penalty`` is an input error,
and so is an ``--out-dir`` that cannot be created.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sys
from dataclasses import replace
from pathlib import Path

from . import metrics, oracle
from .formulation import FormulationConfig, ModelKind, assemble
from .scenarios import ScenarioSet, load_scenario_set
from .solver import EngineError, SolveOptions, SolveStatus, SolverError, solve
from .system import (CaseFormatError, PowerSystem, align_scenarios,
                     load_system, scale_penetration, validate_system)
from .topology import build_contingency_set, load_contingency_whitelist

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAPS = 3
EXIT_INFEASIBLE = 4


class InputError(Exception):
    pass


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("case", help="case JSON document")
    p.add_argument("scenarios", help="scenario JSON file")
    p.add_argument("--switch-limit", type=int, default=1,
                   help="max switching actions per contingency (default 1)")
    p.add_argument("--block-len", type=int, default=3,
                   help="availability blocking length in periods (default 3)")
    p.add_argument("--contingencies", default=None, metavar="FILE",
                   help="JSON array of line ids restricting the N-1 set")
    p.add_argument("--angle-bound", type=float, default=0.6,
                   help="bus angle box in radians (default 0.6)")
    p.add_argument("--ref-bus", default=None, help="reference bus id")
    p.add_argument("--strict-islanding", action="store_true",
                   help="drop switch candidates that would island the network")
    p.add_argument("--time-limit", type=float, default=None,
                   help="solver time limit in seconds")
    p.add_argument("--out-dir", default=".", help="output directory")


def _add_gap_flag(p: argparse.ArgumentParser) -> None:
    # verify always solves at gap 0
    p.add_argument("--mip-gap", type=float, default=0.01,
                   help="relative MIP gap (default 0.01)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="sscuc", choices=["sscuc", "sscuc-cnr"],
                   help="model kind (default sscuc)")
    p.add_argument("--penalty", default=None, metavar="VALUE|off",
                   help="override curtailment penalty in $/MWh, or 'off'")


def _coerce_id(sys_obj: PowerSystem, raw: str | None):
    if raw is None:
        return None
    for b in sys_obj.buses:
        if str(b.id) == raw:
            return b.id
    raise InputError(f"reference bus {raw!r} not in case")


def _load_inputs(args) -> tuple[PowerSystem, ScenarioSet]:
    try:
        system = load_system(args.case)
    except (OSError, CaseFormatError) as exc:
        raise InputError(f"case: {exc}") from exc
    report = validate_system(system)
    if not report.ok:
        lines = "\n".join(f"  {v}" for v in report.violations)
        raise InputError(f"case fails validation:\n{lines}")
    try:
        scen = align_scenarios(system, load_scenario_set(
            args.scenarios, block_len=args.block_len))
    except (OSError, ValueError) as exc:
        raise InputError(f"scenarios: {exc}") from exc
    return system, scen


def _apply_penalty(system: PowerSystem, penalty: str | None
                   ) -> tuple[PowerSystem, bool]:
    """Returns the (possibly penalty-overridden) system and enabled flag."""
    if penalty is None:
        return system, True
    if penalty.lower() == "off":
        return system, False
    try:
        value = float(penalty)
    except ValueError:
        raise InputError(f"--penalty must be a number or 'off', got {penalty!r}")
    if not (math.isfinite(value) and value >= 0):
        raise InputError(f"--penalty must be finite and >= 0, got {penalty!r}")
    res_units = tuple(replace(w, curtail_penalty=value) for w in system.res_units)
    return replace(system, res_units=res_units), True


def _build_config(args, system: PowerSystem, kind: ModelKind,
                  penalty_enabled: bool) -> FormulationConfig:
    try:
        return FormulationConfig(
            model_kind=kind,
            switch_limit=args.switch_limit,
            angle_bound=args.angle_bound,
            reference_bus=_coerce_id(system, args.ref_bus),
            penalty_enabled=penalty_enabled,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _solve_options(mip_gap: float, time_limit: float | None) -> SolveOptions:
    try:
        return SolveOptions(mip_gap=mip_gap, time_limit=time_limit)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _contingencies(args, system: PowerSystem):
    whitelist = None
    if args.contingencies:
        try:
            raw = load_contingency_whitelist(args.contingencies)
        except (OSError, ValueError) as exc:
            raise InputError(f"contingency whitelist: {exc}") from exc
        by_str = {str(k.id): k.id for k in system.lines}
        whitelist = {by_str.get(str(c), c) for c in raw}
    try:
        return build_contingency_set(system, whitelist=whitelist,
                                     strict_islanding=args.strict_islanding)
    except ValueError as exc:
        raise InputError(f"contingencies: {exc}") from exc


def _out_dir(args) -> Path:
    """Create ``--out-dir`` once the inputs have loaded, before any solve."""
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out-dir: {exc}") from exc
    return out


def _schedule(system, scen, contingencies, cfg, opts):
    """Assemble, solve, extract, verify and report one model.

    Returns ``(result, report, failures)``.  ``failures`` lists the
    verifier's violations, or the cost-reconciliation message when the
    recomputed cost disagrees with the solver objective.  ``report`` is
    None when the solve gave no point or a check failed.
    """
    prob = assemble(system, scen, contingencies, cfg)
    result = solve(prob, opts)
    if result.x is None:
        return result, None, []
    sol = metrics.extract_schedule(prob, result)
    violations = metrics.verify_solution(sol, system, scen, contingencies, cfg)
    if violations:
        return result, None, violations
    try:
        report = metrics.build_report(sol, system, scen, contingencies, cfg)
    except metrics.ReconciliationError as exc:
        return result, None, [f"cost reconciliation: {exc}"]
    return result, report, []


def cmd_run(args) -> int:
    system, scen = _load_inputs(args)
    system, penalty_enabled = _apply_penalty(system, args.penalty)
    cfg = _build_config(args, system, ModelKind(args.model), penalty_enabled)
    contingencies = _contingencies(args, system)
    opts = _solve_options(args.mip_gap, args.time_limit)
    out = _out_dir(args)
    result, report, failures = _schedule(system, scen, contingencies, cfg, opts)
    # a time-limit incumbent is verified and reported, with exit 3
    limited = result.status is SolveStatus.TIME_LIMIT
    rounds = (f"rounds: {result.rounds}  copies kept: {len(result.kept)} of "
              f"{len(contingencies)}")
    if result.x is None:
        print(f"solve: {result.status.value} with no point {result.message}")
        if limited:  # the rounds still give a lower bound
            print(f"best bound: {result.best_bound:.2f}")
            print(rounds)
        return EXIT_CAPS if limited else EXIT_INFEASIBLE
    if failures:
        for failure in failures[:20]:
            print(f"verification: {failure}")
        print(f"verification failed: {len(failures)} failed checks")
        return EXIT_MISMATCH
    metrics.write_report(report, out)
    gap = abs(result.objective - result.best_bound) / max(1.0, abs(result.objective))
    print(f"status: {result.status.value}")
    print(f"objective: {result.objective:.2f}")
    nodes = "n/a" if result.nodes is None else result.nodes
    print(f"best bound: {result.best_bound:.2f}  gap: {gap:.4%}  "
          f"nodes: {nodes}")
    print(rounds)
    print(f"total cost: {report.total_cost:.2f}")
    print(f"bcc: {report.bcc:.4f} MW  pcc: {report.pcc:.4f} MW")
    print(f"emissions: {report.emissions:.1f} lbs")
    print(f"switching actions: {len(report.switching_actions)}")
    print(f"report written to {out / 'report.json'}")
    return EXIT_CAPS if limited else EXIT_OK


def cmd_sweep(args) -> int:
    system, scen = _load_inputs(args)
    try:  # every factor is checked before anything is solved
        scaled = [scale_penetration(scen, factor) for factor in args.factors]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    contingencies = _contingencies(args, system)
    opts = _solve_options(args.mip_gap, args.time_limit)
    out = _out_dir(args)
    rows, engine_failures = [], 0
    for factor, factor_scen in zip(args.factors, scaled):
        for kind in ModelKind:
            for penalty_on in (True, False):
                cfg = _build_config(args, system, kind, penalty_on)
                row = {"factor": factor, "model": kind.value,
                       "penalty": "on" if penalty_on else "off"}
                rows.append(row)
                try:
                    # a time-limit incumbent is verified and reported too
                    result, rep, failures = _schedule(
                        system, factor_scen, contingencies, cfg, opts)
                except SolverError as exc:
                    row["status"] = f"error: {exc}"
                    engine_failures += isinstance(exc, EngineError)
                    continue
                row["status"] = ("verification-failed" if failures
                                 else result.status.value)
                if rep is not None:
                    row.update({
                        "total_cost": f"{rep.total_cost:.6f}",
                        "bcc": f"{rep.bcc:.6f}",
                        "pcc": f"{rep.pcc:.6f}",
                        "emissions": f"{rep.emissions:.6f}",
                    })
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["factor", "model", "penalty", "status",
                            "total_cost", "bcc", "pcc", "emissions"],
            lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"{len(rows)} sweep rows written to {sweep_path}")
    failed = sum(row["status"] == "verification-failed"
                 or row["status"].startswith("error:") for row in rows)
    if failed > engine_failures:
        print(f"{failed - engine_failures} sweep rows failed verification or "
              f"the solver's checks")
        return EXIT_MISMATCH
    if engine_failures:
        print(f"HiGHS failed on {engine_failures} sweep rows")
        return EXIT_INFEASIBLE
    limited = sum(row["status"] == SolveStatus.TIME_LIMIT.value for row in rows)
    if limited:
        print(f"time limit reached on {limited} sweep rows")
        return EXIT_CAPS
    return EXIT_OK


def cmd_verify(args) -> int:
    system, scen = _load_inputs(args)
    system, penalty_enabled = _apply_penalty(system, args.penalty)
    cfg = _build_config(args, system, ModelKind(args.model), penalty_enabled)
    contingencies = _contingencies(args, system)
    opts = _solve_options(0.0, args.time_limit)
    out = _out_dir(args)

    try:
        oracle_result = oracle.enumerate_commitments(
            system, scen, contingencies, cfg)
    except oracle.CapExceeded as exc:
        print(f"oracle caps exceeded: {exc}")
        return EXIT_CAPS

    result, _report, failures = _schedule(system, scen, contingencies, cfg, opts)
    certificate = {
        "milp_status": result.status.value,
        "milp_objective": (result.objective
                           if result.status.has_solution else None),
        "oracle_objective": oracle_result.best_objective,
        "oracle_lp_solves": oracle_result.lp_solves,
        "oracle_best_assignment": oracle_result.best_assignment,
        "assignments": [
            {"assignment": rec.assignment, "status": rec.status,
             "objective": rec.objective}
            for rec in oracle_result.records
        ],
    }
    (out / "certificate.json").write_text(
        json.dumps(certificate, indent=2, sort_keys=True) + "\n")

    if result.status is SolveStatus.INFEASIBLE and not oracle_result.feasible:
        print("verify: both paths report infeasible")
        return EXIT_OK
    if result.status is SolveStatus.TIME_LIMIT and result.x is None:
        print("verify: time limit reached with no MILP incumbent")
        return EXIT_CAPS
    if result.x is None or not oracle_result.feasible:
        print(f"verify MISMATCH: milp={result.status.value} "
              f"oracle_feasible={oracle_result.feasible}")
        return EXIT_MISMATCH

    milp_obj = result.objective
    oracle_obj = oracle_result.best_objective
    drift = abs(milp_obj - oracle_obj) / max(1.0, abs(oracle_obj))
    print(f"milp objective:   {milp_obj:.6f}")
    print(f"oracle objective: {oracle_obj:.6f} ({oracle_result.lp_solves} LPs)")
    for failure in failures[:20]:
        print(f"verification: {failure}")
    if result.status is SolveStatus.TIME_LIMIT and not failures:
        # an incumbent, not an optimum: its bound and its objective must
        # enclose the oracle's optimum
        tol = 1e-6 * max(1.0, abs(oracle_obj))
        if result.best_bound - tol <= oracle_obj <= milp_obj + tol:
            print(f"verify: time limit reached; best bound "
                  f"{result.best_bound:.6f} <= oracle <= objective")
            return EXIT_CAPS
        print(f"verify MISMATCH: oracle objective outside [best bound "
              f"{result.best_bound:.6f}, objective]")
        return EXIT_MISMATCH
    if drift > 1e-6 or failures:
        print(f"verify MISMATCH: relative drift {drift:.3g}, "
              f"{len(failures)} failed checks")
        return EXIT_MISMATCH
    print("verify: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsched",
        description="Day-ahead stochastic N-1 unit commitment with "
                    "corrective network reconfiguration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one model and write reports")
    _add_common_flags(p_run)
    _add_gap_flag(p_run)
    _add_model_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="penetration sweep")
    _add_common_flags(p_sweep)
    _add_gap_flag(p_sweep)
    p_sweep.add_argument("--factors", type=float, nargs="+", required=True,
                         help="availability scale factors")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="MILP vs exhaustive oracle")
    _add_common_flags(p_verify)
    _add_model_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except oracle.CapExceeded as exc:
        print(f"caps exceeded: {exc}", file=_sys.stderr)
        return EXIT_CAPS
    except EngineError as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
