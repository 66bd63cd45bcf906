"""MILP container behavior."""

import numpy as np
import pytest

from gridsched.milp import INF, MilpProblem


def small_mip() -> MilpProblem:
    prob = MilpProblem(name="small")
    x = prob.add_var("x", 0, 10)
    y = prob.add_var("y", -INF, INF)
    b = prob.add_var("b[1,2]", 0, 1, integer=True)
    prob.add_row([(x, 1.0), (y, 2.0)], 4.0, INF, "c1")
    prob.add_row([(y, 1.0), (b, -5.0)], -INF, 0.0, "c2")
    prob.add_row([(x, 1.0), (y, 1.0)], -3.0, 8.0, "ranged")
    prob.add_objective_term(x, 1.0)
    prob.add_objective_term(y, 3.0)
    prob.add_objective_term(b, 7.0)
    prob.objective_constant = 2.5
    return prob


class TestContainer:
    def test_registry_round_trip(self):
        prob = MilpProblem()
        col = prob.add_registered("Pg", ("g1", 2, "s0"), 0, 50)
        assert prob.registry.col("Pg", "g1", 2, "s0") == col
        assert prob.var_names[col] == "Pg[g1,2,s0]"

    def test_duplicate_registration_rejected(self):
        prob = MilpProblem()
        prob.add_registered("u", ("g", 1))
        with pytest.raises(ValueError):
            prob.registry.add("u", ("g", 1), 0)

    def test_unknown_column_in_row_rejected(self):
        prob = MilpProblem()
        prob.add_var("x")
        with pytest.raises(ValueError):
            prob.add_row([(3, 1.0)], 0, 0, "bad")

    def test_row_violation_scaled(self):
        prob = MilpProblem()
        x = prob.add_var("x", -INF, INF)
        prob.add_row([(x, 1000.0)], -INF, 1000.0, "r")
        viol = prob.row_violation(prob.rows[0], np.array([1.001]))
        assert viol == pytest.approx(1.0 / 1001.0, rel=1e-6)
        assert prob.row_violation(prob.rows[0], np.array([1.001]),
                                  scaled=False) == pytest.approx(1.0)

    def test_objective_value_includes_constant(self):
        prob = small_mip()
        x = np.array([1.0, 2.0, 1.0])
        assert prob.objective_value(x) == pytest.approx(1 + 6 + 7 + 2.5)

    def test_clone_with_bounds_pins_and_shares(self):
        prob = small_mip()
        clone = prob.clone_with_bounds({2: 1.0})
        assert clone.lb[2] == clone.ub[2] == 1.0
        assert prob.lb[2] == 0.0
        assert clone.rows is prob.rows

    def test_rows_by_equation(self):
        prob = MilpProblem()
        x = prob.add_var("x")
        prob.add_row([(x, 1.0)], 0, 1, "eq2[a,1]")
        prob.add_row([(x, 1.0)], 0, 1, "eq2[a,2]")
        prob.add_row([(x, 1.0)], 0, 1, "eq15[k,1]")
        assert prob.rows_by_equation() == {"eq2": 2, "eq15": 1}
