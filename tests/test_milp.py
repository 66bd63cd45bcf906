"""MILP container behavior."""

import numpy as np
import pytest

from gridsched.milp import INF, Block, MilpProblem

from conftest import named_cols


def small_mip() -> MilpProblem:
    prob = MilpProblem()
    x, y, b = named_cols(prob, ["x", "y", "b"], [0, -INF, 0], [10, INF, 1],
                         [False, False, True])
    prob.add_row_block("c1", [()], [(x, 1.0), (y, 2.0)], 4.0, INF)
    prob.add_row_block("c2", [()], [(y, 1.0), (b, -5.0)], -INF, 0.0)
    prob.add_row_block("ranged", [()], [(x, 1.0), (y, 1.0)], -3.0, 8.0)
    prob.add_objective([x, y, b], [1.0, 3.0, 7.0])
    prob.objective_constant = 2.5
    return prob


class TestContainer:
    def test_registry_round_trip(self):
        prob = MilpProblem()
        start = prob.add_cols(np.zeros(4), np.full(4, 50.0), np.zeros(4, bool))
        prob.registry.add_block(Block("Pg", [("g1",), ("g2",)],
                                      [start, start + 2], ((1, 2),)))
        assert prob.registry.col("Pg", "g2", 1) == start + 2
        assert prob.var_names == ["Pg[g1,1]", "Pg[g1,2]", "Pg[g2,1]",
                                  "Pg[g2,2]"]
        assert prob.var_name(start + 3) == "Pg[g2,2]"

    def test_one_block_per_symbol(self):
        prob = MilpProblem()
        prob.add_cols(np.zeros(4), np.ones(4), np.zeros(4, bool))
        prob.registry.add_block(Block("u", [("g",)], [0], ((1,),)))
        with pytest.raises(ValueError, match="already registered"):
            prob.registry.add_block(Block("u", [("h",)], [1], ((1,),)))
        with pytest.raises(ValueError, match="duplicate"):
            prob.registry.add_block(Block("v", [("g",), ("g",)], [1, 2]))
        with pytest.raises(ValueError, match="duplicate"):
            prob.registry.add_block(Block("w", [("g",)], [2], ((1, 1),)))
        assert prob.registry.count("u") == 1
        assert prob.registry.count("v") == prob.registry.count("w") == 0

    def test_unknown_column_in_row_block_fails_check(self):
        prob = MilpProblem()
        named_cols(prob, ["x"], 0.0, INF)
        prob.add_row_block("bad", [()], [(3, 1.0)], 0.0, 0.0)
        with pytest.raises(ValueError, match="unknown column"):
            prob.check()

    def test_row_violation_scaled(self):
        prob = MilpProblem()
        [x] = named_cols(prob, ["x"], -INF, INF)
        prob.add_row_block("r", [()], [(x, 1000.0)], -INF, 1000.0)
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
        [x] = named_cols(prob, ["x"], 0.0, INF)
        prob.add_row_block("eq2", [("a", 1), ("a", 2)], [(x, 1.0)], 0, 1)
        prob.add_row_block("eq15", [("k", 1)], [(x, 1.0)], 0, 1)
        assert prob.rows_by_equation() == {"eq2": 2, "eq15": 1}
        assert [row.label for row in prob.rows] == ["eq2[a,1]", "eq2[a,2]",
                                                    "eq15[k,1]"]
