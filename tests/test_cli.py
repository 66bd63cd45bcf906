"""End-to-end command-line driver tests on the bundled cases."""

import csv
import dataclasses
import json

import pytest

import gridsched.cli as cli_mod
import gridsched.metrics as metrics_mod
import gridsched.solver as solver_mod
from gridsched.cli import main
from gridsched.data import bundled
from gridsched.metrics import ConstraintViolation
from gridsched.solver import SolveStatus

from test_solver import ENGINE_FAILURES, engine_reports, report_model_status

TOY = str(bundled("toy3.json"))
TOY_SCEN = str(bundled("toy3_scenarios.json"))


def run_cli(*args):
    return main(list(args))


def shift_objective_constant(monkeypatch):
    """Corrupt the MILP path only: the solver objective no longer equals
    the cost recomputed from the schedule."""
    real_assemble = cli_mod.assemble

    def broken(sys_obj, scen, cont, cfg):
        prob = real_assemble(sys_obj, scen, cont, cfg)
        prob.objective_constant += 50.0
        return prob

    monkeypatch.setattr(cli_mod, "assemble", broken)


class TestRun:
    def test_smoke_sscuc(self, tmp_path, capsys):
        code = run_cli("run", TOY, TOY_SCEN, "--out-dir", str(tmp_path),
                       "--mip-gap", "0")
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["total_cost"] > 0
        out = capsys.readouterr().out
        assert "objective" in out

    def test_cnr_not_worse_than_sscuc(self, tmp_path):
        outs = {}
        for model in ("sscuc", "sscuc-cnr"):
            d = tmp_path / model
            assert run_cli("run", TOY, TOY_SCEN, "--model", model,
                           "--mip-gap", "0", "--out-dir", str(d)) == 0
            outs[model] = json.loads((d / "report.json").read_text())
        assert (outs["sscuc-cnr"]["total_cost"]
                <= outs["sscuc"]["total_cost"] * (1 + 1e-6) + 1e-6)

    def test_corrupt_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"buses": [,]}')
        code = run_cli("run", str(bad), TOY_SCEN, "--out-dir", str(tmp_path))
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("run", str(tmp_path / "nope.json"), TOY_SCEN,
                       "--out-dir", str(tmp_path)) == 2

    def test_infeasible_exit_code(self, tmp_path):
        # demand far beyond capacity
        doc = json.loads(bundled("toy3.json").read_text())
        for row in doc["demand"]:
            row["mw"] = [v * 50 for v in row["mw"]]
        case = tmp_path / "case.json"
        case.write_text(json.dumps(doc))
        assert run_cli("run", str(case), TOY_SCEN,
                       "--out-dir", str(tmp_path)) == 4

    def test_penalty_off_flag(self, tmp_path):
        d = tmp_path / "off"
        assert run_cli("run", TOY, TOY_SCEN, "--penalty", "off",
                       "--mip-gap", "0", "--out-dir", str(d)) == 0
        doc = json.loads((d / "report.json").read_text())
        assert doc["cost_components"]["penalty"] == 0.0

    def test_deterministic_report_bytes(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            d = tmp_path / name
            assert run_cli("run", TOY, TOY_SCEN, "--model", "sscuc-cnr",
                           "--out-dir", str(d)) == 0
            blobs.append((d / "report.json").read_bytes()
                         + (d / "report.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unreconciled_cost_is_mismatch(self, tmp_path, capsys,
                                           monkeypatch):
        shift_objective_constant(monkeypatch)
        assert run_cli("run", TOY, TOY_SCEN, "--mip-gap", "0",
                       "--out-dir", str(tmp_path)) == 1
        assert "cost reconciliation: recomputed cost" in capsys.readouterr().out
        assert not (tmp_path / "report.json").exists()

    def test_contingency_whitelist(self, tmp_path):
        white = tmp_path / "white.json"
        white.write_text(json.dumps(["L1"]))
        assert run_cli("run", TOY, TOY_SCEN, "--contingencies", str(white),
                       "--out-dir", str(tmp_path)) == 0
        white.write_text(json.dumps(["L1", "L9"]))
        assert run_cli("run", TOY, TOY_SCEN, "--contingencies", str(white),
                       "--out-dir", str(tmp_path)) == 2

    def _stop_at_time_limit(self, monkeypatch, **changes):
        real_solve = cli_mod.solve

        def limited(prob, opts):
            return dataclasses.replace(real_solve(prob, opts),
                                       status=SolveStatus.TIME_LIMIT, **changes)

        monkeypatch.setattr(cli_mod, "solve", limited)

    def test_time_limit_incumbent_is_reported(self, tmp_path, capsys,
                                              monkeypatch):
        self._stop_at_time_limit(monkeypatch)
        assert run_cli("run", TOY, TOY_SCEN, "--mip-gap", "0",
                       "--out-dir", str(tmp_path)) == 3
        assert (tmp_path / "report.json").exists()
        out = capsys.readouterr().out
        assert "status: time-limit" in out
        assert "objective:" in out and "best bound:" in out and "gap:" in out

    def test_time_limit_without_incumbent(self, tmp_path, monkeypatch):
        self._stop_at_time_limit(monkeypatch, x=None)
        assert run_cli("run", TOY, TOY_SCEN, "--mip-gap", "0",
                       "--out-dir", str(tmp_path)) == 3
        assert not (tmp_path / "report.json").exists()

    def test_prints_node_count(self, tmp_path, capsys):
        assert run_cli("run", TOY, TOY_SCEN, "--mip-gap", "0",
                       "--out-dir", str(tmp_path)) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("best bound:"))
        assert "gap:" in line and "nodes:" in line
        assert int(line.rsplit("nodes:", 1)[1]) >= 1

    @pytest.mark.parametrize("fields", ENGINE_FAILURES)
    def test_engine_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                      fields):
        engine_reports(monkeypatch, fields)
        assert run_cli("run", TOY, TOY_SCEN, "--out-dir", str(tmp_path)) == 4
        assert "engine failure" in capsys.readouterr().err

    def test_failed_integrality_check_is_mismatch(self, tmp_path, monkeypatch):
        real_milp = solver_mod.milp

        def fractional(**kwargs):
            res = real_milp(**kwargs)
            res.x[kwargs["integrality"] == 1] = 0.5
            return res

        monkeypatch.setattr(solver_mod, "milp", fractional)
        assert run_cli("run", TOY, TOY_SCEN, "--out-dir", str(tmp_path)) == 1

    def test_scenario_horizon_mismatch_is_input_error(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(
            [{"id": "s0", "probability": 1.0, "availability": {"w1": [1, 2]}}]))
        assert run_cli("run", TOY, str(scen), "--block-len", "1",
                       "--out-dir", str(tmp_path)) == 2

    def test_misspelt_res_key_is_input_error(self, tmp_path, capsys):
        doc = json.loads(bundled("toy3_scenarios.json").read_text())
        for s in doc:
            s["availability"]["w1_typo"] = s["availability"].pop("w1")
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        assert run_cli("run", TOY, str(scen), "--out-dir", str(tmp_path)) == 2
        assert "w1_typo" in capsys.readouterr().err

    def test_short_initial_state_is_input_error(self, tmp_path, capsys):
        # eq8 carries nothing over: g1 must have been on for min_up hours
        doc = json.loads(bundled("toy3.json").read_text())
        doc["generators"][0].update(
            min_up=3, initial_status={"on": True, "hours": 2})
        case = tmp_path / "case.json"
        case.write_text(json.dumps(doc))
        assert run_cli("run", str(case), TOY_SCEN,
                       "--out-dir", str(tmp_path)) == 2
        assert "generators[g1].initial_status.hours" in capsys.readouterr().err

    def test_second_demand_row_for_a_bus_is_input_error(self, tmp_path,
                                                         capsys):
        # a later row for b1 must not silently replace its first
        doc = json.loads(bundled("toy3.json").read_text())
        doc["demand"].append({"bus_id": "b1", "mw": [0, 0, 0, 0]})
        case = tmp_path / "case.json"
        case.write_text(json.dumps(doc))
        assert run_cli("run", str(case), TOY_SCEN,
                       "--out-dir", str(tmp_path)) == 2
        assert "demand[3].bus_id" in capsys.readouterr().err

    @pytest.mark.parametrize("on, dispatch", [(True, -500), (True, 1000),
                                              (False, 40)])
    def test_initial_dispatch_out_of_range_is_input_error(
            self, tmp_path, capsys, on, dispatch):
        # g1 has p_min 10 and p_max 120; an off unit dispatches 0
        doc = json.loads(bundled("toy3.json").read_text())
        doc["generators"][0]["initial_status"] = {"on": on,
                                                  "dispatch": dispatch}
        case = tmp_path / "case.json"
        case.write_text(json.dumps(doc))
        assert run_cli("run", str(case), TOY_SCEN,
                       "--out-dir", str(tmp_path)) == 2
        assert "generators[g1].initial_status.dispatch" in \
            capsys.readouterr().err


NAN, INF = float("nan"), float("inf")

# every id field of a case document; a list, object, boolean, null or
# fraction there is no id
CASE_ID_FIELDS = [("buses", "id"), ("generators", "id"),
                  ("generators", "bus_id"), ("lines", "id"),
                  ("lines", "from_bus"), ("lines", "to_bus"),
                  ("res_units", "id"), ("res_units", "bus_id"),
                  ("demand", "bus_id")]
ILL_TYPED_IDS = [["b1"], {"a": 1}, True, None, 1.5]


class TestNonFiniteInput:
    """A NaN or infinite number, or a value of the wrong JSON type, in the
    inputs exits 2 before a solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "solve", lambda prob, opts: pytest.fail(
            "solved a non-finite input"))

    @staticmethod
    def write(tmp_path, name, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))  # NaN and Infinity as JSON reads them
        return str(path)

    def expect_input_error(self, capsys, *argv, says):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and says in err

    @pytest.mark.parametrize("collection, index, field, value, says", [
        ("lines", 0, "susceptance", NAN, "lines[L1].susceptance"),
        ("lines", 1, "limit_emergency", NAN, "lines[L2].limit_emergency"),
        ("generators", 0, "cost_linear", NAN, "generators[g1].cost_linear"),
        ("generators", 1, "cost_startup", INF, "generators[g2].cost_startup"),
        ("generators", 0, "min_up", NAN, "generators[0].min_up"),
        ("res_units", 0, "curtail_penalty", NAN,
         "res_units[w1].curtail_penalty"),
        (None, None, "mva_base", INF, "mva_base")])
    def test_case_field(self, tmp_path, capsys, collection, index, field,
                        value, says):
        doc = json.loads(bundled("toy3.json").read_text())
        (doc if collection is None else doc[collection][index])[field] = value
        case = self.write(tmp_path, "case.json", doc)
        self.expect_input_error(capsys, "run", case, TOY_SCEN, "--out-dir",
                                str(tmp_path), says=says)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_demand_row(self, tmp_path, capsys, value):
        doc = json.loads(bundled("toy3.json").read_text())
        doc["demand"][2]["mw"][1] = value
        bus = doc["demand"][2]["bus_id"]
        case = self.write(tmp_path, "case.json", doc)
        self.expect_input_error(capsys, "run", case, TOY_SCEN, "--out-dir",
                                str(tmp_path), says=f"demand[{bus}]")

    @pytest.mark.parametrize("field, value, says", [
        ("probability", NAN, "probability must be in [0, 1], got nan"),
        ("probability", INF, "probability must be in [0, 1], got nan"),
        ("availability", NAN, "availability must be finite"),
        ("availability", INF, "availability must be finite")])
    def test_scenario_file(self, tmp_path, capsys, field, value, says):
        doc = json.loads(bundled("toy3_scenarios.json").read_text())
        if field == "probability":
            doc[0]["probability"] = value
        else:
            doc[1]["availability"]["w1"][0] = value
        scen = self.write(tmp_path, "scen.json", doc)
        self.expect_input_error(capsys, "run", TOY, scen, "--out-dir",
                                str(tmp_path), says=says)

    @pytest.mark.parametrize("document, path, value, says", [
        ("case", ("generators", 0, "p_min"), "ten", "generators[0].p_min"),
        ("case", ("generators", 0, "p_min"), None, "generators[0].p_min"),
        ("case", ("demand", 2, "mw", 1), "5", "demand[2].mw[1]"),
        ("case", ("lines", 0, "switchable"), "false", "lines[0].switchable"),
        ("case", ("generators", 0, "min_up"), 2.7, "generators[0].min_up"),
        ("case", ("generators", 0, "min_up"), True, "generators[0].min_up"),
        ("case", ("generators", 0, "initial_status"), {"hours": 1.5},
         "generators[0].initial_status.hours"),
        ("case", ("generators", 0, "initial_status"), [1],
         "generators[0].initial_status: expected an object"),
        ("case", ("generators",), [1], "generators[0]: expected an object"),
        ("case", ("buses",), [5], "buses[0]: expected an object"),
        ("case", ("lines",), ["x"], "lines[0]: expected an object"),
        ("scenarios", (0, "probability"), None, "scenario[0].probability"),
        ("scenarios", (1, "availability", "w1", 0), None,
         "scenario[1].availability[w1]"),
        ("scenarios", (0,), 5, "scenario[0]: expected an object"),
        ("scenarios", (0,), "x", "scenario[0]: expected an object"),
        ("scenarios", (0, "id"), [1],
         "scenario[0].id: expected a string or an integer"),
        ("scenarios", (1, "id"), "s0", "scenario 's0': duplicate id"),
        ("scenarios", (0, "weight"), 5, "scenario[0].weight: unknown field"),
        ("case", ("buses", 0, "generator_ids"), [["g1"]],
         "buses[0].generator_ids[0]: expected a string or an integer"),
        # a misspelt field is an error, not a field read as its default
        ("case", ("mva_bse",), 50, "case: case.mva_bse: unknown field"),
        ("case", ("generators", 0, "emissions_rate"), 500,
         "case: generators[0].emissions_rate: unknown field"),
        ("case", ("generators", 0, "initial_status"), {"hour": 5},
         "generators[0].initial_status.hour: unknown field"),
        ("case", ("lines", 1, "switchabel"), False,
         "lines[1].switchabel: unknown field"),
        ("case", ("res_units", 0, "curtail_penalti"), 5,
         "res_units[0].curtail_penalti: unknown field"),
        ("case", ("demand", 2, "mv"), [1, 2, 3, 4],
         "demand[2].mv: unknown field"),
    ] + [("case", (collection, 0, field), value,
          f"{collection}[0].{field}: expected a string or an integer")
         for collection, field in CASE_ID_FIELDS
         for value in ILL_TYPED_IDS])
    def test_ill_typed_value(self, tmp_path, capsys, document, path, value,
                             says):
        files = {"case": "toy3.json", "scenarios": "toy3_scenarios.json"}
        docs = {name: json.loads(bundled(file).read_text())
                for name, file in files.items()}
        parent = docs[document]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        case, scen = (self.write(tmp_path, files[name], docs[name])
                      for name in ("case", "scenarios"))
        self.expect_input_error(capsys, "run", case, scen, "--out-dir",
                                str(tmp_path), says=says)

    def test_malformed_whitelist_entry(self, tmp_path, capsys):
        white = self.write(tmp_path, "white.json", [[1]])
        self.expect_input_error(
            capsys, "run", TOY, TOY_SCEN, "--contingencies", white,
            "--out-dir", str(tmp_path),
            says="contingency whitelist: entry [0]: expected a line id")

    def test_whitelist_syntax_error_names_its_place(self, tmp_path, capsys):
        white = tmp_path / "white.json"
        white.write_text('["L1",\n')
        self.expect_input_error(
            capsys, "run", TOY, TOY_SCEN, "--contingencies", str(white),
            "--out-dir", str(tmp_path),
            says=f"contingency whitelist: {white}: line 2 col 1: "
                 f"Expecting value")

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_sweep_factor(self, tmp_path, capsys, factor):
        self.expect_input_error(capsys, "sweep", TOY, TOY_SCEN, "--factors",
                                "1", factor, "--out-dir", str(tmp_path),
                                says="scale factor must be finite")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("penalty", ["nan", "inf"])
    def test_penalty_flag(self, tmp_path, capsys, penalty):
        self.expect_input_error(capsys, "run", TOY, TOY_SCEN, "--penalty",
                                penalty, "--out-dir", str(tmp_path),
                                says="--penalty must be finite")


BAD_OPTION_VALUES = [("--mip-gap", "-1"), ("--mip-gap", "nan"),
                     ("--time-limit", "-1"), ("--switch-limit", "-1"),
                     ("--angle-bound", "-1"), ("--angle-bound", "nan")]


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--factors", "1", "--penalty", "50"),
        ("sweep", "--factors", "1", "--penalty-table"),
        ("verify", "--penalty-table"),
        ("sweep", "--factors", "1", "--model", "sscuc-cnr"),
        ("run", "--seed", "0"),
        ("sweep", "--factors", "1", "--seed", "0"),
        ("verify", "--seed", "0"),
        ("run", "--penalty-table"),
        ("verify", "--mip-gap", "0.5"),
    ])
    def test_flags_a_command_ignores_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv[0], TOY, TOY_SCEN, *argv[1:], "--out-dir",
                    str(tmp_path))
        assert exc.value.code == 2

    # verify takes no --mip-gap: it always solves at gap 0
    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command in ("run", "sweep", "verify")
        for flag, value in BAD_OPTION_VALUES
        if not (command == "verify" and flag == "--mip-gap")])
    def test_bad_option_value_is_input_error(self, tmp_path, capsys,
                                             monkeypatch, command, flag,
                                             value):
        monkeypatch.setattr(cli_mod, "solve", lambda prob, opts: pytest.fail(
            "solved with a bad option value"))
        extra = ("--factors", "1") if command == "sweep" else ()
        assert run_cli(command, TOY, TOY_SCEN, *extra, flag, value,
                       "--out-dir", str(tmp_path)) == 2
        assert "input error" in capsys.readouterr().err

    def test_reference_bus(self, tmp_path, capsys):
        assert run_cli("run", TOY, TOY_SCEN, "--ref-bus", "nope",
                       "--out-dir", str(tmp_path / "nope")) == 2
        assert "reference bus 'nope' not in case" in capsys.readouterr().err
        assert run_cli("run", TOY, TOY_SCEN, "--ref-bus", "b2", "--mip-gap",
                       "0", "--out-dir", str(tmp_path / "b2")) == 0

    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, monkeypatch,
                                         command):
        for owner, attr in ((cli_mod, "solve"),
                            (cli_mod.oracle, "enumerate_commitments")):
            monkeypatch.setattr(owner, attr, lambda *args: pytest.fail(
                "solved with no place for the output"))
        taken = tmp_path / "taken"
        taken.write_text("")
        extra = ("--factors", "1") if command == "sweep" else ()
        assert run_cli(command, TOY, TOY_SCEN, *extra,
                       "--out-dir", str(taken)) == 2
        assert "input error: --out-dir" in capsys.readouterr().err


class TestSweep:
    def test_sweep_rows_and_dominance(self, tmp_path):
        code = run_cli("sweep", TOY, TOY_SCEN, "--factors", "0", "1",
                       "--mip-gap", "0", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        # factors x models x penalty settings
        assert len(rows) == 2 * 2 * 2
        by_key = {(r["factor"], r["model"], r["penalty"]): r for r in rows}
        for factor in ("0.0", "1.0"):
            for penalty in ("on", "off"):
                base = by_key[(factor, "sscuc", penalty)]
                cnr = by_key[(factor, "sscuc-cnr", penalty)]
                assert base["status"] == "optimal"
                assert (float(cnr["total_cost"])
                        <= float(base["total_cost"]) * (1 + 1e-6) + 1e-6)

    def test_zero_factor_kills_res_dependence(self, tmp_path):
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "0",
                       "--mip-gap", "0", "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        costs = {(r["model"], r["penalty"]): float(r["total_cost"])
                 for r in rows}
        # no wind, no congestion: models coincide, penalty irrelevant
        assert costs[("sscuc", "on")] == pytest.approx(
            costs[("sscuc-cnr", "on")], rel=1e-9)
        assert costs[("sscuc", "on")] == pytest.approx(
            costs[("sscuc", "off")], rel=1e-9)

    def test_repeated_factor_rows_identical(self, tmp_path):
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1", "1",
                       "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        first, second = rows[:4], rows[4:]
        assert first == second

    def test_time_limit_rows_exit_3(self, tmp_path):
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1",
                       "--time-limit", "0.001", "--out-dir", str(tmp_path)) == 3
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert any(r["status"] == "time-limit" for r in rows)

    def test_time_limit_incumbent_is_verified_and_reported(self, tmp_path,
                                                           monkeypatch):
        real_solve = cli_mod.solve
        verified = []
        real_verify = metrics_mod.verify_solution

        def limited(prob, opts):
            return dataclasses.replace(real_solve(prob, opts),
                                       status=SolveStatus.TIME_LIMIT)

        def verify(*args, **kwargs):
            verified.append(args)
            return real_verify(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "solve", limited)
        monkeypatch.setattr(metrics_mod, "verify_solution", verify)
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1",
                       "--mip-gap", "0", "--out-dir", str(tmp_path)) == 3
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and len(verified) == 4
        for row in rows:
            assert row["status"] == "time-limit"
            assert float(row["total_cost"]) > 0

    def test_verification_failure_outranks_time_limit(self, tmp_path,
                                                      monkeypatch):
        real_solve = cli_mod.solve
        monkeypatch.setattr(cli_mod, "solve", lambda prob, opts: dataclasses.replace(
            real_solve(prob, opts), status=SolveStatus.TIME_LIMIT))
        monkeypatch.setattr(
            metrics_mod, "verify_solution",
            lambda *args, **kwargs: [ConstraintViolation("eq2", ("g1", 1, "s0"),
                                                         1.0)])
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1",
                       "--out-dir", str(tmp_path)) == 1

    def test_engine_failure_rows_exit_4(self, tmp_path, monkeypatch):
        report_model_status(monkeypatch, "kModelError")
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1",
                       "--out-dir", str(tmp_path)) == 4
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["status"].startswith("error: engine failure") for r in rows)

    def test_unreconciled_cost_marks_rows(self, tmp_path, monkeypatch):
        shift_objective_constant(monkeypatch)
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1",
                       "--mip-gap", "0", "--out-dir", str(tmp_path)) == 1
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["status"] == "verification-failed" for r in rows)

    def test_negative_factor_rejected_before_solving(self, tmp_path,
                                                     monkeypatch):
        solves = []
        monkeypatch.setattr(cli_mod, "solve",
                            lambda prob, opts: solves.append(prob))
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1", "-1",
                       "--out-dir", str(tmp_path)) == 2
        assert solves == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_verification_failure_marks_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            metrics_mod, "verify_solution",
            lambda *args, **kwargs: [ConstraintViolation("eq2", ("g1", 1, "s0"),
                                                         1.0)])
        assert run_cli("sweep", TOY, TOY_SCEN, "--factors", "1",
                       "--mip-gap", "0", "--out-dir", str(tmp_path)) == 1
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["status"] == "verification-failed" for r in rows)


class TestVerify:
    def test_toy_sscuc_verifies(self, tmp_path, capsys):
        code = run_cli("verify", TOY, TOY_SCEN, "--out-dir", str(tmp_path))
        assert code == 0
        assert "verify: ok" in capsys.readouterr().out
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["milp_objective"] == pytest.approx(
            cert["oracle_objective"], rel=1e-6)
        assert cert["assignments"]

    def test_broken_builder_detected(self, tmp_path, monkeypatch):
        shift_objective_constant(monkeypatch)
        code = run_cli("verify", TOY, TOY_SCEN, "--out-dir", str(tmp_path))
        assert code == 1

    def test_time_limit_without_milp_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "solve", lambda prob, opts: dataclasses.replace(
            solver_mod.solve(prob, opts), status=SolveStatus.TIME_LIMIT, x=None))
        assert run_cli("verify", TOY, TOY_SCEN, "--out-dir", str(tmp_path)) == 3

    def test_model_error_is_not_both_infeasible(self, tmp_path, capsys,
                                                monkeypatch):
        report_model_status(monkeypatch, "kModelError")
        assert run_cli("verify", TOY, TOY_SCEN, "--out-dir", str(tmp_path)) == 4
        captured = capsys.readouterr()
        assert "engine failure: Model error" in captured.err
        assert "both paths report infeasible" not in captured.out

    def test_oversized_case_is_capped(self, tmp_path):
        # CNR on the toy case needs 48 switch bits, beyond the cap
        code = run_cli("verify", TOY, TOY_SCEN, "--model", "sscuc-cnr",
                       "--out-dir", str(tmp_path))
        assert code == 3
