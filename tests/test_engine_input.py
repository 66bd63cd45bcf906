"""The model handed to HiGHS, and ``max_violation`` against a scalar
reference (``row_violation``) evaluated on the materialised rows."""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gridsched import (DemandProfile, FormulationConfig, ModelKind,
                       align_scenarios, assemble, build_contingency_set,
                       load_scenario_set, load_system)
from gridsched import solver as solver_mod
from gridsched.data import bundled
from gridsched.milp import INF, MilpProblem, Row
from gridsched.scenarios import build_scenario_set, synth_wind_profiles

from conftest import named_cols

KINDS = (ModelKind.SSCUC, ModelKind.SSCUC_CNR)

# recorded with the first stage, then each contingency's copy, laid out in
# builder order (see the formulation docstring); a change to the rows, their
# order, the columns or the names alters what the engine sees and must
# update these knowingly; the objective constant is hashed as the engine's
# objective offset
TOY3_DIGESTS = {
    ModelKind.SSCUC:
        "e1a67ed4740f4f89a44f4c9ec2577f6ff4cd35b9744d6f98062bc282415f0ec3",
    ModelKind.SSCUC_CNR:
        "b078cbf8cedb451b602863fa824733b86c45b89c81617bca9a123124115975d5",
}
# the same for ``rts24_slice()``, which pins the bundled RTS-24 case document
# and everything loaded from it
RTS24_SLICE_DIGESTS = {
    ModelKind.SSCUC:
        "475c623ec0cd117c85964a6f209bea0f63ddd45c003670686879c04fe451f336",
    ModelKind.SSCUC_CNR:
        "c2327a8ebec3df389912cbd06ab5a4e798466482fa566e658c5b8464f39f8b4b",
}
# toy3 CNR with L2 as the only switch candidate (``toy3_mixed_inputs``):
# L2's own contingency has no candidate, L1's and L3's have L2, so every
# family the builder writes (``ROW_FAMILIES``) is present and eq28 covers 2
# of 3 contingencies
TOY3_MIXED_CNR_DIGEST = \
    "8071863ba6474ef08931f8d27a48307c133df70b942b75013bcd12e9c05b2420"
# desk-size shapes the digests above miss, from ``random_tiny_instance``
# seeds (tests/test_acceptance.py): two buses joined by two parallel
# lines (1000, 1001) or a 3-bus loop (1013, 1017); minimum up and down
# times of 2 beside ones of 1, so eq8 and eq9 rows are padded to the
# longer window; one outage with a single switch candidate, so CNR's eq28
# rows hold one term
TINY_DIGESTS = {
    (1000, ModelKind.SSCUC):
        "9094f4f19e48e6ac4c67f6f91d9c876cf189bb3c8a4a2537a331bcb43ee2685e",
    (1000, ModelKind.SSCUC_CNR):
        "90d71b07d0060440670b802609e1ecb27580beae65ec2185ba7089b313dde404",
    (1001, ModelKind.SSCUC):
        "4571b7299e83efbb70722e282a4a94f3e73abd4260b3b3112cc3f14127b3c616",
    (1001, ModelKind.SSCUC_CNR):
        "111f27cb8acbcf1b66ef327d108e34d171e5d4bf300c66b77d0d1c8f21dcbaf0",
    (1013, ModelKind.SSCUC):
        "868646bb5c9c4c7ab64b18b30e00cdd391505b04aaf3878700456815c65fc14b",
    (1013, ModelKind.SSCUC_CNR):
        "2515416d5c0bb918c2277bbdc36485df315d5b742e551b6377778361c22d609d",
    (1017, ModelKind.SSCUC):
        "6fb32cf037f4c8f195d18c7026524cdc4d61e5d765c87aaf886c5ab7432fd5bd",
    (1017, ModelKind.SSCUC_CNR):
        "cc7ab142f46587888639dddd3771eba5c1a6e9bcc4510ef374ed3e501fac6436",
}
# the row-wise arrays exactly as the engine is handed them, each row's
# terms in stored order (``raw_digest``); ``digest`` sorts the terms into
# columns, so only these see a change in the order of a row's terms, which
# HiGHS's search path can depend on
RAW_DIGESTS = {
    ("toy3", ModelKind.SSCUC):
        "c3f3911e37eb23a01920adec43991bf564b94e768d5dcf4d6a0d9addddc989e2",
    ("toy3", ModelKind.SSCUC_CNR):
        "54314cd66077d5933d44eaf65cf6f1c432f9eaff600ea6965e04756dfa81916c",
    # the switch pool does not reach SSCUC: the same as toy3's
    ("toy3-mixed", ModelKind.SSCUC):
        "c3f3911e37eb23a01920adec43991bf564b94e768d5dcf4d6a0d9addddc989e2",
    ("toy3-mixed", ModelKind.SSCUC_CNR):
        "6859e72cd6b6e59559302f11bf0d0758f32cb560866b980d3a0c0f604523bcc9",
    ("rts24-slice", ModelKind.SSCUC):
        "78433c060918e169881cb909223d4d47515bcf48dc3ba48a47de1f81cd5f1c3e",
    ("rts24-slice", ModelKind.SSCUC_CNR):
        "f1b8a41eb8024a365ae087eaae3b22907b9b02132222513d3de91c24ee79c59b",
    (1000, ModelKind.SSCUC):
        "110d3e8a4a6af36d283f1111dee5bb4d9678ec791a7b666f432cc8336b6a0cc0",
    (1000, ModelKind.SSCUC_CNR):
        "36c92c6c25563a37b632d0f459817cc154cde1d6ecda636b08e8dfce6a53ebfd",
    (1001, ModelKind.SSCUC):
        "0b7958d18eb416ee7d623d2fd8e3c22f1f0e37a5727ddead0c9ac143bae8d442",
    (1001, ModelKind.SSCUC_CNR):
        "81cf102d765329e3bfaa4607f82578ca55262418596c08ee39add163a0fc611f",
    (1013, ModelKind.SSCUC):
        "a6c4ab223175d82670e284878bc92f8c434b40ed4f6d1db3a9e2f498ec7b020e",
    (1013, ModelKind.SSCUC_CNR):
        "1a8f886ae555a13012bcb85fdd137ee310f6d93aacb010d851062d8f6342e878",
    (1017, ModelKind.SSCUC):
        "6cdeb1f755131b587ae528ecc4f993fcc921557a71124999691cb9bcd6ca498e",
    (1017, ModelKind.SSCUC_CNR):
        "ee07583d962654f7d2ee0523efa08afd9a85c7d28162042b82c9cda73cc5d6bf",
}
# the model up to a permutation of its rows and columns (``canonical_digest``:
# columns sorted by name, rows by label, each row's terms by column name),
# then its objective constant, which is compared at 1e-12 relative because
# its sum over the penalty terms may be taken in another order
CANONICAL_DIGESTS = {
    ('toy3', ModelKind.SSCUC): (
        "a483cf1582ca89e206fa6d84d70311f35854f0e3a4b2ed3c439ff64d74c04717",
        24000.0),
    ('toy3', ModelKind.SSCUC_CNR): (
        "45bcac44fb5ffb799833223a384e97466203b6ed611be0a1583310e15abc5e93",
        24000.0),
    ('toy3-mixed', ModelKind.SSCUC): (
        "a483cf1582ca89e206fa6d84d70311f35854f0e3a4b2ed3c439ff64d74c04717",
        24000.0),
    ('toy3-mixed', ModelKind.SSCUC_CNR): (
        "d42464a37fab2f6ce3c3cee63867abd0ba4d2153fb77cb5dd544cfac4deadd3a",
        24000.0),
    ('rts24-slice', ModelKind.SSCUC): (
        "a4f0a6e9e140d428904793234e2370405011ab0af7e9c76e77de864e94388c24",
        389762.1479810676),
    ('rts24-slice', ModelKind.SSCUC_CNR): (
        "7f0bded213ab70ca6b01b25a99fcf35c6630773205d6d14c4e01612071f36843",
        389762.1479810676),
    (1000, ModelKind.SSCUC): (
        "568a352cd38fe0fefb0c188381fc6fe75ee4cc2134669eb1a6242bf07e488b7f",
        2167.3822694692853),
    (1000, ModelKind.SSCUC_CNR): (
        "36edcfba2988e69153f412fce7c4e3653546b1d0f567b242e173e29409710a62",
        2167.3822694692853),
    (1001, ModelKind.SSCUC): (
        "eedec858253c4af274fcd263f7a2f716957848cefcbbab77b600f7363b3ee3a4",
        1146.4006542363074),
    (1001, ModelKind.SSCUC_CNR): (
        "2895d05324aec93b39ca4533ddb7b70af1f185da99784eaa700eff999ec650f1",
        1146.4006542363074),
    (1013, ModelKind.SSCUC): (
        "ef76217e22a0a3cb1a43bc7b46d502ef58de895b6b6f91c3d96bcf8e8a227c18",
        1277.7971507179361),
    (1013, ModelKind.SSCUC_CNR): (
        "03364652570d85e8d0ffc99b597eb06ce220f0c800a3d3a862b65a1af4fea571",
        1277.7971507179361),
    (1017, ModelKind.SSCUC): (
        "98d5a3df61238c47f6aa207452a824e4a7af6b66cfff14b87936270f8b9e2cad",
        1037.861946256967),
    (1017, ModelKind.SSCUC_CNR): (
        "23a910fe0f1cd29b087b81e5796a907bbcea9440bfc1e87007fec5bd03101dbb",
        1037.861946256967),
}


# the row families in the order the builder appends them (the formulation
# docstring): the first stage's, then each copy's; eq23 holds fixed lines,
# eq25-eq28 switchable ones
FIRST_STAGE_FAMILIES = ("eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "eq8",
                        "eq9", "eq10", "eq14", "eq16")
SWITCH_FAMILIES = ("eq25", "eq26", "eq27L", "eq27U", "eq28")
COPY_FAMILIES = ("eq17", "eq18", "eq19", "eq20", "eq22", "eq23") + SWITCH_FAMILIES
ROW_FAMILIES = FIRST_STAGE_FAMILIES + COPY_FAMILIES
COPY_SYMBOLS = ("Pgc", "Pwc", "Pkc", "thc")


def block_of(label: str) -> tuple:
    """The block a row label or column name belongs to: its family or
    symbol, and the outaged line id of its copy as text, None in the first
    stage."""
    head, _, index = label.partition("[")
    parts = index.rstrip("]").split(",")
    if head == "z":  # z[c,k,t,s]
        return head, parts[0]
    return head, parts[-3] if head in COPY_FAMILIES + COPY_SYMBOLS else None


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


def raw_digest(prob: MilpProblem) -> str:
    """SHA-256 of the rows as the engine's HiGHS instance is passed them:
    indptr and indices as int32 and data as float64, in stored order, then
    the row bounds."""
    seen = engine_input(prob)
    h = hashlib.sha256()
    indptr, indices, data = seen["A"]
    for name, values, dtype in (("indptr", indptr, np.int32),
                                ("indices", indices, np.int32),
                                ("data", data, np.float64),
                                ("row_lo", seen["row_lower"], np.float64),
                                ("row_hi", seen["row_upper"], np.float64)):
        h.update(name.encode())
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return h.hexdigest()


def canonical_digest(prob: MilpProblem) -> str:
    """SHA-256 of the model whatever the order of its rows and columns: each
    column as (name, lb, ub, integrality, objective coefficient), sorted by
    name, then each row as (label, lb, ub, its terms as (column name,
    coefficient) sorted by name), sorted by label; floats as ``repr``."""
    names = prob.var_names
    c = prob.objective_vector()
    cols = sorted(zip(names, prob.lb.tolist(), prob.ub.tolist(),
                      prob.integer.tolist(), c.tolist()))
    rows = sorted((row.label, row.lb, row.ub,
                   sorted((names[col], coef) for col, coef in row.coeffs))
                  for row in prob.rows)
    h = hashlib.sha256()
    for item in cols + rows:
        h.update(repr(item).encode())
        h.update(b"\n")
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


def row_activity(row: Row, x: np.ndarray) -> float:
    return float(sum(coef * x[col] for col, coef in row.coeffs))


def row_violation(row: Row, x: np.ndarray, scaled: bool = True) -> float:
    """Constraint violation of a point; 0 when feasible.

    Scaled mode divides by max(1, largest |term|, finite |lb| and |ub|),
    the usual relative feasibility measure for rows whose coefficients
    span magnitudes.
    """
    act = row_activity(row, x)
    viol = max(0.0, row.lb - act, act - row.ub)
    if not scaled or viol == 0.0:
        return viol
    scale = max(1.0, max((abs(coef * x[col]) for col, coef in row.coeffs),
                         default=0.0),
                abs(row.lb) if math.isfinite(row.lb) else 0.0,
                abs(row.ub) if math.isfinite(row.ub) else 0.0)
    return viol / scale


def scalar_max_violation(prob: MilpProblem, x: np.ndarray,
                         scaled: bool = True) -> tuple[float, str]:
    """The row-by-row loop, then the bound-by-bound loop."""
    worst, where = 0.0, ""
    for row in prob.rows:
        v = row_violation(row, x, scaled=scaled)
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

    @pytest.mark.parametrize("case, kind", list(RAW_DIGESTS),
                             ids=[f"{case}-{kind.value}"
                                  for case, kind in RAW_DIGESTS])
    def test_raw_rows_as_the_engine_takes_them(self, case, kind):
        prob = assemble(*pinned_inputs(case), FormulationConfig(model_kind=kind))
        assert raw_digest(prob) == RAW_DIGESTS[(case, kind)]

    @pytest.mark.parametrize("case, kind", list(CANONICAL_DIGESTS),
                             ids=[f"{case}-{kind.value}"
                                  for case, kind in CANONICAL_DIGESTS])
    def test_same_model_up_to_a_permutation(self, case, kind):
        prob = assemble(*pinned_inputs(case), FormulationConfig(model_kind=kind))
        pinned, constant = CANONICAL_DIGESTS[(case, kind)]
        assert canonical_digest(prob) == pinned
        assert prob.objective_constant == pytest.approx(constant, rel=1e-12)

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
    @pytest.mark.parametrize("inputs, kind, absent", [
        (toy3_inputs, ModelKind.SSCUC, set(SWITCH_FAMILIES)),
        # every surviving toy3 line is a switch candidate
        (toy3_inputs, ModelKind.SSCUC_CNR, {"eq23"}),
        # L2's copy has no candidate, L1's and L3's have L2
        (toy3_mixed_inputs, ModelKind.SSCUC_CNR, set())],
        ids=["toy3-sscuc", "toy3-cnr", "toy3-mixed-cnr"])
    def test_first_stage_then_one_block_per_copy(self, inputs, kind, absent):
        system, scen, cont = inputs()
        prob = assemble(system, scen, cont, FormulationConfig(model_kind=kind))
        assert list(prob.rows_by_equation()) == \
            [f for f in ROW_FAMILIES if f not in absent]
        runs = [block for block, _ in itertools.groupby(
            block_of(row.label) for row in prob.rows)]
        assert runs == (
            [(f, None) for f in FIRST_STAGE_FAMILIES if f not in absent]
            + [(f, str(c.outaged_line_id)) for c in cont for f in COPY_FAMILIES
               if f not in absent
               and (c.candidate_switch_ids or f not in SWITCH_FAMILIES)])


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
        # first stage, then per contingency its copy of each symbol and its
        # switches
        runs = [block for block, _ in itertools.groupby(map(block_of, names))]
        switching = kind is ModelKind.SSCUC_CNR
        order = ([(s, None) for s in ("u", "v", "Pg", "r", "Pw", "Pk", "th")]
                 + [(s, str(c.outaged_line_id)) for c in cont for s in COPY_SYMBOLS
                    + (("z",) if switching and c.candidate_switch_ids else ())])
        assert runs == [(s, c) for s, c in order if prob.registry.indices(s)]


# the LP relaxation's optimum of each model, recorded while the model still
# wrote eq13, eq15, eq21 and eq24 as rows, eq2 and eq19 for every unit,
# eq17 and eq18 for every unit and explicit zero coefficients; every row
# left out since is implied by the rest, so the optimum stays the same
RELAXATION_OBJECTIVES = {
    ("toy3", ModelKind.SSCUC): 7438.5,
    ("toy3", ModelKind.SSCUC_CNR): 7438.5,
    ("rts24-slice", ModelKind.SSCUC): 4758.216963589424,
    ("rts24-slice", ModelKind.SSCUC_CNR): 4649.763856112841,
    (1000, ModelKind.SSCUC): 1543.7958643617255,
    (1000, ModelKind.SSCUC_CNR): 1543.7958643617255,
    (1001, ModelKind.SSCUC): 1351.268414502778,
    (1001, ModelKind.SSCUC_CNR): 1351.268414502778,
    (1013, ModelKind.SSCUC): 2468.4990209158177,
    (1013, ModelKind.SSCUC_CNR): 2468.4990209158177,
    (1017, ModelKind.SSCUC): 1754.3594588055453,
    (1017, ModelKind.SSCUC_CNR): 1754.3594588055453,
}


def pinned_inputs(case):
    """The inputs of a ``RELAXATION_OBJECTIVES`` case."""
    if case == "toy3":
        return toy3_inputs()
    if case == "toy3-mixed":
        return toy3_mixed_inputs()
    if case == "rts24-slice":
        return rts24_slice()
    from test_acceptance import random_tiny_instance
    return random_tiny_instance(case)


class TestLeftOutRows:
    """Rows the data implies are left out, and nothing else changes."""

    @pytest.mark.parametrize("case, kind", list(RELAXATION_OBJECTIVES),
                             ids=[f"{case}-{kind.value}"
                                  for case, kind in RELAXATION_OBJECTIVES])
    def test_lp_relaxation_is_unchanged(self, case, kind):
        prob = assemble(*pinned_inputs(case), FormulationConfig(model_kind=kind))
        res = solver_mod.solve_relaxation(prob)
        assert res.status.value == "optimal"
        assert res.objective == pytest.approx(
            RELAXATION_OBJECTIVES[(case, kind)], rel=1e-9)

    @pytest.mark.parametrize("case, kind", list(RELAXATION_OBJECTIVES),
                             ids=[f"{case}-{kind.value}"
                                  for case, kind in RELAXATION_OBJECTIVES])
    def test_no_explicit_zero_reaches_the_engine(self, case, kind):
        prob = assemble(*pinned_inputs(case), FormulationConfig(model_kind=kind))
        assert (prob.matrix()[2] != 0).all()
        assert (engine_input(prob)["A"][2] != 0).all()


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
