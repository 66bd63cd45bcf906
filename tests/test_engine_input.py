"""The model handed to HiGHS, and ``max_violation`` against a scalar
reference evaluated on the materialised rows."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gridsched import (DemandProfile, FormulationConfig, ModelKind,
                       align_scenarios, assemble, build_contingency_set,
                       load_scenario_set, load_system)
from gridsched import solver as solver_mod
from gridsched.data import bundled
from gridsched.milp import INF, Block, MilpProblem
from gridsched.scenarios import build_scenario_set, synth_wind_profiles

from conftest import named_cols

KINDS = (ModelKind.SSCUC, ModelKind.SSCUC_CNR)

# recorded with the rows laid out family by family in builder order (see
# the formulation docstring); a change to the rows, their order, the
# columns or the names alters what the engine sees and must update these
# knowingly; the objective constant is hashed as the engine's objective
# offset
TOY3_DIGESTS = {
    ModelKind.SSCUC:
        "fa747ecf18095f2603c34b9ace61df51e062c43d53656101bcdf66788597ecfa",
    ModelKind.SSCUC_CNR:
        "4c6c98eba99d2ac29faf79cb3782e7f610f3c185d5ed330545e454de7392e181",
}
# the same for ``rts24_slice()``, which pins the bundled RTS-24 case document
# and everything loaded from it
RTS24_SLICE_DIGESTS = {
    ModelKind.SSCUC:
        "c0dbc72a679d8b03160356e16564541079d3fc49f43dc20201b87e9b70ebb446",
    ModelKind.SSCUC_CNR:
        "1dddf657ec3afe96db618f91053e59c0be91439c08c093de81c9bde156f1168c",
}


# the row families in the order the builders append them (the formulation
# docstring); eq23/eq24 hold fixed lines, eq25-eq28 switchable ones
ROW_FAMILIES = ("eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "eq8", "eq9",
                "eq10", "eq13", "eq14", "eq15", "eq16", "eq17", "eq18",
                "eq19", "eq20", "eq21", "eq22", "eq23", "eq24", "eq25",
                "eq26", "eq27L", "eq27U", "eq28")


class _Captured(Exception):
    pass


def engine_input(prob: MilpProblem) -> dict:
    """The keyword arguments ``solve`` passes to the engine."""
    seen = {}

    def capture(**kwargs):
        seen.update(kwargs)
        raise _Captured

    real = solver_mod.milp
    solver_mod.milp = capture
    try:
        solver_mod.solve(prob)
    except _Captured:
        pass
    finally:
        solver_mod.milp = real
    return seen


def digest(prob: MilpProblem) -> str:
    """SHA-256 of the engine's input in canonical form (objective and its
    offset, integrality, column bounds, CSC matrix, row bounds), the row
    labels and the column names."""
    seen = engine_input(prob)
    h = hashlib.sha256()

    def add(name, values, dtype):
        h.update(name.encode())
        h.update(np.ascontiguousarray(np.asarray(values), dtype=dtype).tobytes())

    add("c", seen["c"], np.float64)
    add("offset", [seen["offset"]], np.float64)
    add("integrality", seen["integrality"], np.uint8)
    add("col_lb", seen["col_lower"], np.float64)
    add("col_ub", seen["col_upper"], np.float64)
    A = sparse.csc_array(seen["A"])
    assert A.has_sorted_indices
    add("indptr", A.indptr, np.int64)
    add("indices", A.indices, np.int64)
    add("data", A.data, np.float64)
    add("row_lo", seen["row_lower"], np.float64)
    add("row_hi", seen["row_upper"], np.float64)
    h.update("\n".join(row.label for row in prob.rows).encode())
    h.update("\n".join(prob.var_names).encode())
    return h.hexdigest()


def toy3_inputs():
    system = load_system(bundled("toy3.json"))
    scen = align_scenarios(
        system, load_scenario_set(bundled("toy3_scenarios.json"), block_len=3))
    return system, scen, build_contingency_set(system)


def rts24_slice(hours: int = 2, whitelist=frozenset({10, 23})):
    """RTS-24 over the first hours, two wind scenarios, two outages."""
    full = load_system(bundled("rts24.json"))
    system = replace(full, demand=DemandProfile(
        rows={b: row[:hours] for b, row in full.demand.rows.items()},
        horizon_length=hours))
    profiles = synth_wind_profiles(seed=11, n_scenarios=2, horizon=hours,
                                   res_ids=["w12", "w16", "w22"],
                                   mean_mw=295.0, amplitude_mw=170.0)
    scen = align_scenarios(system, build_scenario_set(profiles, [0.5, 0.5],
                                                      block_len=1))
    return system, scen, build_contingency_set(system, whitelist=set(whitelist))


def tiny_instances():
    """Two oracle-scale instances: a 3-bus loop and a 2-bus parallel pair."""
    from conftest import (parallel_pair_scenarios, parallel_pair_system,
                          triangle_scenarios, triangle_system)
    tri = triangle_system(T=2)
    pair = parallel_pair_system()
    return [(tri, triangle_scenarios(T=2), build_contingency_set(tri)),
            (pair, parallel_pair_scenarios(),
             build_contingency_set(pair))]


def scalar_max_violation(prob: MilpProblem, x: np.ndarray,
                         scaled: bool = True) -> tuple[float, str]:
    """The row-by-row loop, then the bound-by-bound loop."""
    worst, where = 0.0, ""
    for row in prob.rows:
        v = prob.row_violation(row, x, scaled=scaled)
        if v > worst:
            worst, where = v, row.label
    for j in range(prob.num_vars):
        v = max(0.0, prob.lb[j] - x[j], x[j] - prob.ub[j])
        if scaled:
            v /= max(1.0, abs(x[j]))
        if v > worst:
            worst, where = v, f"bound[{prob.var_names[j]}]"
    return worst, where


def random_points(prob: MilpProblem, rng, count: int):
    """Points inside and around the column boxes, some exactly on them."""
    lb = np.where(np.isfinite(prob.lb), prob.lb, -50.0)
    ub = np.where(np.isfinite(prob.ub), prob.ub, 50.0)
    for _ in range(count):
        x = rng.uniform(lb - 1.0, ub + 1.0)
        snap = rng.random(prob.num_vars) < 0.3
        x[snap] = np.where(rng.random(snap.sum()) < 0.5, lb[snap], ub[snap])
        yield x


def assert_matches_reference(prob, x):
    for scaled in (True, False):
        assert prob.max_violation(x, scaled=scaled) == \
            scalar_max_violation(prob, x, scaled=scaled)


class TestEngineInput:
    @pytest.mark.parametrize("kind", KINDS)
    def test_toy3_digest(self, kind):
        prob = assemble(*toy3_inputs(), FormulationConfig(model_kind=kind))
        assert digest(prob) == TOY3_DIGESTS[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_rts24_slice_digest(self, kind):
        prob = assemble(*rts24_slice(), FormulationConfig(model_kind=kind))
        assert digest(prob) == RTS24_SLICE_DIGESTS[kind]

    def test_clones_share_the_matrix(self):
        prob = assemble(*toy3_inputs(), FormulationConfig())
        clone = prob.clone_with_bounds({0: 1.0})
        assert clone.matrix()[0] is prob.matrix()[0]
        assert clone.lb[0] == 1.0 and prob.lb[0] == 0.0

    def test_rows_added_after_a_solve_reach_the_engine(self):
        prob = assemble(*toy3_inputs(), FormulationConfig())
        before = engine_input(prob)["A"].shape[0]
        prob.add_row_block("extra", [()], [(0, 1.0)], 0.0, 1.0)
        after = engine_input(prob)
        assert after["A"].shape[0] == before + 1
        assert prob.rows[-1].label == "extra"
        assert after["row_lower"][-1] == 0.0 and after["row_upper"][-1] == 1.0


class TestRowOrder:
    @pytest.mark.parametrize("kind, absent", [
        (ModelKind.SSCUC, {"eq25", "eq26", "eq27L", "eq27U", "eq28"}),
        # every surviving toy3 line is a switch candidate
        (ModelKind.SSCUC_CNR, {"eq23", "eq24"})])
    def test_families_are_contiguous_in_builder_order(self, kind, absent):
        prob = assemble(*toy3_inputs(), FormulationConfig(model_kind=kind))
        families = list(prob.rows_by_equation())
        assert families == [f for f in ROW_FAMILIES if f not in absent]
        runs = [family for family, _ in itertools.groupby(
            row.label.split("[", 1)[0] for row in prob.rows)]
        assert runs == families


class TestMaxViolationReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_points_on_toy3(self, kind):
        prob = assemble(*toy3_inputs(), FormulationConfig(model_kind=kind))
        for x in random_points(prob, np.random.default_rng(3), 20):
            assert_matches_reference(prob, x)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_points_on_tiny_instances(self, index, kind):
        system, scen, cont = tiny_instances()[index]
        prob = assemble(system, scen, cont, FormulationConfig(model_kind=kind))
        for x in random_points(prob, np.random.default_rng(index), 20):
            assert_matches_reference(prob, x)

    def test_rts24_slice(self):
        prob = assemble(*rts24_slice(),
                        FormulationConfig(model_kind=ModelKind.SSCUC_CNR))
        for x in random_points(prob, np.random.default_rng(7), 2):
            assert_matches_reference(prob, x)
        # the benchmark's fixed point: every column at its bound nearest 0;
        # a loaded bus's balance row then misses its whole demand
        point = np.clip(np.zeros(prob.num_vars), prob.lb, prob.ub)
        worst, where = prob.max_violation(point)
        assert worst == 1.0
        assert (worst, where) == scalar_max_violation(prob, point)

    def test_ties_go_to_the_first_row_then_rows_before_bounds(self):
        prob = MilpProblem()
        x, y = named_cols(prob, ["x", "y"], [0.0, -INF], [1.0, INF])
        prob.add_row_block("first", [()], [(y, 1.0)], 2.0, 2.0)
        prob.add_row_block("second", [()], [(y, 1.0)], 2.0, 2.0)
        point = np.array([3.0, 0.0])  # bound violation 2/3, rows 2/2
        assert prob.max_violation(point) == (1.0, "first")
        assert prob.max_violation(point, scaled=False) == (2.0, "first")
        assert_matches_reference(prob, point)
        point = np.array([1.0 + 2.0, 2.0 - 2.0])  # unscaled tie: row wins
        assert prob.max_violation(point, scaled=False) == (2.0, "first")
        assert_matches_reference(prob, point)

    def test_bound_only_violation(self):
        prob = MilpProblem()
        x, y = named_cols(prob, ["x", "y"], 0.0, 1.0)
        u = prob.add_cols([0.0], [1.0], [True])
        prob.registry.add_block(Block("u", [("g1",)], [u], ((1,),)))
        prob.add_row_block("cap", [()], [(x, 1.0), (y, 1.0), (u, 1.0)],
                           -INF, 10.0)
        # x and y both miss a bound by 1; scaled, y's 1/1 beats x's 1/2,
        # unscaled they tie and the first column wins
        point = np.array([2.0, -1.0, 1.0])
        assert prob.max_violation(point) == (1.0, "bound[y]")
        assert prob.max_violation(point, scaled=False) == (1.0, "bound[x]")
        assert_matches_reference(prob, point)
        point = np.array([0.5, 0.5, 3.0])
        assert prob.max_violation(point) == (2.0 / 3.0, "bound[u[g1,1]]")
        assert_matches_reference(prob, point)

    def test_nan_is_an_infinite_violation(self):
        prob = MilpProblem()
        x, y = named_cols(prob, ["x", "y"], 0.0, 1.0)
        prob.add_row_block("r", [()], [(x, 1.0)], 0.0, 1.0)
        for scaled in (True, False):
            assert prob.max_violation(np.array([np.nan, 0.5]),
                                      scaled=scaled) == (INF, "r")
            assert prob.max_violation(np.array([0.5, np.nan]),
                                      scaled=scaled) == (INF, "bound[y]")

    def test_feasible_point_reports_nothing(self):
        prob = MilpProblem()
        [x] = named_cols(prob, ["x"], 0.0, 1.0)
        prob.add_row_block("r", [()], [(x, 1.0)], 0.0, 1.0)
        assert prob.max_violation(np.array([0.5])) == (0.0, "")
