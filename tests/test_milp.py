"""MILP container behavior."""

import numpy as np
import pytest

from gridsched.milp import INF, MilpProblem

from conftest import named_cols, symbol_cols
from test_engine_input import row_violation


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
        pg = prob.add_col_block("Pg", [("g1",), ("g2",)], 0.0, 50.0,
                                inner=((1, 2),))
        assert pg.tolist() == [[0, 1], [2, 3]]
        assert prob.registry.col("Pg", "g2", 1) == 2
        assert prob.var_names == ["Pg[g1,1]", "Pg[g1,2]", "Pg[g2,1]",
                                  "Pg[g2,2]"]
        assert prob.var_name(3) == "Pg[g2,2]"
        assert prob.lb.tolist() == [0.0] * 4 and prob.ub.tolist() == [50.0] * 4
        assert not prob.integer.any()

    def test_one_block_per_symbol(self):
        prob = MilpProblem()
        prob.add_col_block("u", [("g",)], 0.0, 1.0, True, ((1,),))
        with pytest.raises(ValueError, match="duplicate"):
            prob.add_col_block("u", [("g",)], 0.0, 1.0, True, ((1,),))
        with pytest.raises(ValueError, match="duplicate"):
            prob.add_col_block("v", [("g",), ("g",)], 0.0, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            prob.add_col_block("w", [("g",)], 0.0, 1.0, inner=((1, 1),))
        assert prob.registry.indices("u") == [("g", 1)]
        assert prob.registry.indices("v") == prob.registry.indices("w") == []

    def test_a_later_call_appends_keys_in_order(self):
        prob = MilpProblem()
        inner = (("a", "b"),)
        first = prob.add_col_block("Pgc", [("g1", "c1"), ("g2", "c1")],
                                   0.0, [[1.0], [2.0]], inner=inner)
        [z] = prob.add_col_block("z", [("c1",)], 0.0, 1.0, True)
        later = prob.add_col_block("Pgc", [("g1", "c2")], 0.0, 3.0, inner=inner)
        assert first.tolist() == [[0, 1], [2, 3]] and z == 4
        assert later.tolist() == [[5, 6]]
        assert prob.registry.indices("Pgc") == [
            ("g1", "c1", "a"), ("g1", "c1", "b"), ("g2", "c1", "a"),
            ("g2", "c1", "b"), ("g1", "c2", "a"), ("g1", "c2", "b")]
        assert symbol_cols(prob, "Pgc").tolist() == [0, 1, 2, 3, 5, 6]
        assert [prob.registry.col("Pgc", *index) for index in
                prob.registry.indices("Pgc")] == [0, 1, 2, 3, 5, 6]
        assert prob.registry.col("Pgc", "g1", "c2", "b") == 6
        assert prob.var_names == [
            "Pgc[g1,c1,a]", "Pgc[g1,c1,b]", "Pgc[g2,c1,a]", "Pgc[g2,c1,b]",
            "z[c1]", "Pgc[g1,c2,a]", "Pgc[g1,c2,b]"]
        assert prob.var_name(5) == "Pgc[g1,c2,a]"
        for col in (-1, 7):
            with pytest.raises(KeyError):
                prob.var_name(col)
        assert prob.ub.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0, 3.0, 3.0]
        assert prob.integer.tolist() == [False] * 4 + [True] + [False] * 2

    def test_a_rejected_call_appends_nothing(self):
        prob = MilpProblem()
        prob.add_col_block("Pgc", [("g1", "c1")], 0.0, 1.0, inner=((1, 2),))
        with pytest.raises(ValueError, match="inner axes differ"):
            prob.add_col_block("Pgc", [("g1", "c2")], 0.0, 1.0, inner=((1,),))
        with pytest.raises(ValueError, match="duplicate"):
            prob.add_col_block("Pgc", [("g2", "c2"), ("g1", "c1")], 0.0, 1.0,
                               inner=((1, 2),))
        assert prob.num_vars == prob.lb.size == prob.integer.size == 2
        assert prob.registry.indices("Pgc") == [("g1", "c1", 1), ("g1", "c1", 2)]
        assert prob.var_names == ["Pgc[g1,c1,1]", "Pgc[g1,c1,2]"]
        # the keys a rejected call named stay free
        prob.add_col_block("Pgc", [("g2", "c2")], 0.0, 1.0, inner=((1, 2),))
        assert prob.registry.col("Pgc", "g2", "c2", 2) == 3

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
        viol = row_violation(prob.rows[0], np.array([1.001]))
        assert viol == pytest.approx(1.0 / 1001.0, rel=1e-6)
        assert row_violation(prob.rows[0], np.array([1.001]),
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
        assert clone.matrix() is prob.matrix()
        assert clone.rows == prob.rows

    def test_rows_by_equation(self):
        prob = MilpProblem()
        [x] = named_cols(prob, ["x"], 0.0, INF)
        prob.add_row_block("eq2", [("a", 1), ("a", 2)], [(x, 1.0)], 0, 1)
        prob.add_row_block("eq15", [("k", 1)], [(x, 1.0)], 0, 1)
        assert prob.rows_by_equation() == {"eq2": 2, "eq15": 1}
        assert [row.label for row in prob.rows] == ["eq2[a,1]", "eq2[a,2]",
                                                    "eq15[k,1]"]


class TestFamilyTuple:
    """A tuple of families over one grid is appended in one call, and one
    rule leaves terms out of every family's rows."""

    @staticmethod
    def build(one_call: bool, gaps: bool) -> MilpProblem:
        """Three families over one grid; with ``gaps``, f1's second term
        and f3's third have column -1 in the first period."""
        prob = MilpProblem()
        inner = ((1, 2, 3),)
        keys = [("a",), ("b",)]
        x = prob.add_col_block("x", keys, 0.0, 10.0, inner=inner)  # (2, 3)
        y = prob.add_col_block("y", keys, -1.0, [[5.0], [6.0]], inner=inner)
        prev = np.concatenate([np.full((2, 1), -1), x[:, :-1]], axis=1)
        families = ("f1", "f2", "f3")
        terms = [[(x, 1.0), (prev if gaps else y, -2.0)],
                 [(y, np.array([[0.5], [1.5]]))],
                 [(x, 1.0), (y, 1.0), (prev if gaps else x[::-1], 3.0)]]
        lb = [0.0, np.array([[-1.0], [-2.0]]), -INF]
        ub = [np.arange(6.0).reshape(2, 3), INF, 4.0]
        if one_call:
            prob.add_row_block(families, keys, terms, lb, ub, inner)
        else:
            for family, *rest in zip(families, terms, lb, ub):
                prob.add_row_block(family, keys, *rest, inner)
        return prob

    @pytest.mark.parametrize("gaps", [False, True])
    def test_one_call_equals_one_call_per_family(self, gaps):
        one, each = self.build(True, gaps), self.build(False, gaps)
        for a, b in zip(one.matrix(), each.matrix()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [row.label for row in one.rows] == \
            [row.label for row in each.rows]
        assert one.rows_by_equation() == each.rows_by_equation() == \
            {"f1": 6, "f2": 6, "f3": 6}
        indptr = one.matrix()[0]
        if gaps:  # the first period's rows lose their -1 terms
            assert np.diff(indptr).tolist() == \
                [1, 2, 2] * 2 + [1] * 6 + [2, 3, 3] * 2
        else:
            assert np.diff(indptr).tolist() == [2] * 6 + [1] * 6 + [3] * 6

    @pytest.mark.parametrize("one_call", [False, True])
    def test_zero_coefficients_are_left_out(self, one_call):
        # f1's second term is zero for key "b" only, f2's is zero in full;
        # f3 keeps every term, so only f1 and f2 lose terms
        prob = MilpProblem()
        keys, inner = [("a",), ("b",)], ((1, 2),)
        x = prob.add_col_block("x", keys, 0.0, 1.0, inner=inner)
        families = ("f1", "f2", "f3")
        terms = [[(x, 1.0), (x[::-1], np.array([[2.0], [0.0]]))],
                 [(x, 0.0)], [(x, 1.0), (x[::-1], 1.0)]]
        if one_call:
            prob.add_row_block(families, keys, terms, [-INF] * 3, [1.0] * 3,
                               inner)
        else:
            for family, family_terms in zip(families, terms):
                prob.add_row_block(family, keys, family_terms, -INF, 1.0,
                                   inner)
        indptr, indices, data, _, _ = prob.matrix()
        assert np.diff(indptr).tolist() == [2, 2, 1, 1] + [0] * 4 + [2] * 4
        assert (data != 0).all()
        assert [dict(row.coeffs) for row in prob.rows[:4]] == [
            {0: 1.0, 2: 2.0}, {1: 1.0, 3: 2.0}, {2: 1.0}, {3: 1.0}]

    def test_unknown_column_raises_when_the_rows_are_joined(self):
        # only -1 means "no term": -2 and num_vars (12) and above are
        # unknown columns
        for col in (-2, 12, 99):
            prob = self.build(True, True)
            assert prob.num_vars == 12
            prob.add_row_block(("g1", "g2"), [()],
                               [[(0, 1.0)], [(col, 1.0)]], [0.0, 0.0],
                               [1.0, INF])
            with pytest.raises(ValueError, match="unknown column"):
                prob.matrix()

    def test_bounds_that_do_not_broadcast_name_their_family(self):
        prob = self.build(True, False)
        prob.add_row_block("bad", [("a",), ("b",)], [(0, 1.0)], [1.0, 2.0, 3.0],
                           INF)
        with pytest.raises(ValueError, match="bad"):
            prob.matrix()
