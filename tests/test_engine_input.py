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
from gridsched.milp import INF, MilpProblem
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
# toy3 CNR with L2 as the only switch candidate (``toy3_mixed_inputs``):
# L2's own contingency has no candidate, L1's and L3's have L2, so every
# family from eq2 to eq28 is present and eq28 covers 2 of 3 contingencies
TOY3_MIXED_CNR_DIGEST = \
    "03a6fb8d8974f37ab002e278d29926b22e389fb60994d5840e4570994633b9c1"
# desk-size shapes the digests above miss, from ``random_tiny_instance``
# seeds (tests/test_acceptance.py): two buses joined by two parallel
# lines (1000, 1001) or a 3-bus loop (1013, 1017); minimum up and down
# times of 2 beside ones of 1, so eq8 and eq9 rows are padded to the
# longer window; one outage with a single switch candidate, so CNR's eq28
# rows hold one term
TINY_DIGESTS = {
    (1000, ModelKind.SSCUC):
        "d45c9404866a08cc984f445797ea5f71eecb37a882b7262b3c76fbb9583f2f1f",
    (1000, ModelKind.SSCUC_CNR):
        "062bfc24d50bea62497dbc24549e6214f39a66b323178bc6106a61aaa7b1075d",
    (1001, ModelKind.SSCUC):
        "7e49275ac7a5c685513a4bf545a41898b9911c0c5edbbf9c21cefbdee337488d",
    (1001, ModelKind.SSCUC_CNR):
        "6bf7469fe312648e292dfd416ddb7a649ceeba8290fcddc0e9cc3a488f324e01",
    (1013, ModelKind.SSCUC):
        "7b13c786c4660a05db60d9575c37a0d7b9dcd40bc5019249e251c490f58707c0",
    (1013, ModelKind.SSCUC_CNR):
        "d515d74b008b2fe66069f8789a62d9cd53ea320d4578b9ed47728624fdc8830c",
    (1017, ModelKind.SSCUC):
        "6531eb062527366432497d5a8b385e77583cb54e7a9e1817d00af85a59756523",
    (1017, ModelKind.SSCUC_CNR):
        "54e13177e0624d836920467519c1ab19461374362f70f073788c8e368b0077dc",
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
    offset, integrality, column bounds, the CSR rows converted to a CSC
    matrix, row bounds), the row labels and the column names."""
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
    indptr, indices, data = seen["A"]
    A = sparse.csr_array((data, indices, indptr),
                         shape=(len(seen["row_lower"]), len(seen["c"]))).tocsc()
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


def toy3_mixed_inputs():
    system, scen, _ = toy3_inputs()
    return system, scen, build_contingency_set(system, switch_pool={"L2"})


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

    def test_toy3_mixed_candidates_digest(self):
        system, scen, cont = toy3_mixed_inputs()
        assert [c.candidate_switch_ids for c in cont] == [("L2",), (), ("L2",)]
        prob = assemble(system, scen, cont,
                        FormulationConfig(model_kind=ModelKind.SSCUC_CNR))
        assert list(prob.rows_by_equation()) == list(ROW_FAMILIES)
        assert {row.label.split("[")[1].split(",")[0]
                for row in prob.rows if row.label.startswith("eq28")} == \
            {"L1", "L3"}
        assert digest(prob) == TOY3_MIXED_CNR_DIGEST

    @pytest.mark.parametrize("seed, kind", list(TINY_DIGESTS),
                             ids=[f"{seed}-{kind.value}"
                                  for seed, kind in TINY_DIGESTS])
    def test_desk_size_digest(self, seed, kind):
        from test_acceptance import random_tiny_instance
        system, scen, cont = random_tiny_instance(seed)
        parallel = seed in (1000, 1001)
        assert len({(k.from_bus, k.to_bus) for k in system.lines}) == \
            (1 if parallel else 3)
        assert {g.min_up for g in system.generators} | \
            {g.min_down for g in system.generators} == {1, 2}
        assert [len(c.candidate_switch_ids) for c in cont] == [1]
        prob = assemble(system, scen, cont, FormulationConfig(model_kind=kind))
        rows = {}
        for row in prob.rows:
            rows.setdefault(row.label.split("[", 1)[0], []).append(row)
        # a window of n periods gives rows of n + 1 terms
        T = system.horizon
        assert {len(row.coeffs) for row in rows["eq8"]} == \
            {g.min_up + 1 for g in system.generators if g.min_up <= T}
        assert {len(row.coeffs) for row in rows["eq9"]} == \
            {g.min_down + 1 for g in system.generators if g.min_down < T}
        if kind is ModelKind.SSCUC_CNR:
            assert {len(row.coeffs) for row in rows["eq28"]} == {1}
        assert digest(prob) == TINY_DIGESTS[(seed, kind)]

    def test_clones_share_the_matrix(self):
        prob = assemble(*toy3_inputs(), FormulationConfig())
        clone = prob.clone_with_bounds({0: 1.0})
        assert clone.matrix()[0] is prob.matrix()[0]
        assert clone.lb[0] == 1.0 and prob.lb[0] == 0.0

    def test_rows_added_after_a_solve_reach_the_engine(self):
        prob = assemble(*toy3_inputs(), FormulationConfig())
        before = engine_input(prob)["A"][0].size
        prob.add_row_block("extra", [()], [(0, 1.0)], 0.0, 1.0)
        after = engine_input(prob)
        indptr, indices, data = after["A"]
        assert indptr.size == before + 1
        assert indices[-1] == 0 and data[-1] == 1.0
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


class TestColumnLayout:
    @pytest.mark.parametrize("inputs, kind", [
        (toy3_inputs, ModelKind.SSCUC),
        (toy3_inputs, ModelKind.SSCUC_CNR),
        (toy3_mixed_inputs, ModelKind.SSCUC_CNR),
        (rts24_slice, ModelKind.SSCUC_CNR),
        (lambda: tiny_instances()[0], ModelKind.SSCUC_CNR),
    ], ids=["toy3-sscuc", "toy3-cnr", "toy3-mixed-cnr", "rts24-slice-cnr",
            "triangle-cnr"])
    def test_symbol_blocks_partition_the_columns(self, inputs, kind):
        system, scen, cont = inputs()
        prob = assemble(system, scen, cont, FormulationConfig(model_kind=kind))
        cols = np.concatenate([c for _, _, c in prob.registry.groups()])
        assert np.array_equal(np.sort(cols), np.arange(prob.num_vars))
        names = prob.var_names
        assert None not in names
        assert len(set(names)) == len(names) == prob.num_vars
        # first stage, then one copy of each symbol per contingency, then z
        runs = [symbol for symbol, _ in itertools.groupby(
            name.split("[", 1)[0] for name in names)]
        order = (("u", "v", "Pg", "r", "Pw", "Pk", "th")
                 + ("Pgc", "Pwc", "Pkc", "thc") * len(cont) + ("z",))
        assert runs == [s for s in order if prob.registry.count(s)]


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
        [[u]] = prob.add_col_block("u", [("g1",)], 0.0, 1.0, True, ((1,),))
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
