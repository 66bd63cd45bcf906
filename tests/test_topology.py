"""Graph analysis: bridges, islands, contingency sets."""

import json

import pytest

from gridsched import (DemandProfile, build_contingency_set, build_system,
                       find_bridges, islands_after, load_system)
from gridsched.data import bundled
from gridsched.topology import load_contingency_whitelist

from conftest import make_line, path_system, triangle_system


def graph_system(n_buses, edges):
    """Bare multigraph as a PowerSystem: edges are (from, to) pairs."""
    demand = DemandProfile(rows={b: (0.0,) for b in range(n_buses)},
                           horizon_length=1)
    lines = [make_line(i, a, b) for i, (a, b) in enumerate(edges)]
    return build_system(list(range(n_buses)), [], lines, [], demand)


class TestFindBridges:
    def test_triangle_has_no_bridges(self):
        assert find_bridges(triangle_system()) == set()

    def test_path_is_all_bridges(self):
        assert find_bridges(path_system()) == {"La", "Lb"}

    def test_parallel_lines_are_never_bridges(self):
        sys_obj = graph_system(3, [(0, 1), (0, 1), (1, 2)])
        assert find_bridges(sys_obj) == {2}

    def test_disconnected_rejected(self):
        demand = DemandProfile(rows={0: (0.0,), 1: (0.0,), 2: (0.0,), 3: (0.0,)},
                               horizon_length=1)
        lines = [make_line("a", 0, 1), make_line("b", 2, 3)]
        sys_obj = build_system([0, 1, 2, 3], [], lines, [], demand)
        with pytest.raises(ValueError, match="disconnected"):
            find_bridges(sys_obj)

    def test_rts24_bridge_is_the_line_serving_bus_7(self):
        sys_obj = load_system(bundled("rts24.json"))
        bridges = find_bridges(sys_obj)
        # independent oracle: a line is radial iff removing it splits the graph
        expected = {k.id for k in sys_obj.lines
                    if len(islands_after(sys_obj, {k.id})) > 1}
        assert bridges == expected
        assert bridges == {11}
        [line11] = [k for k in sys_obj.lines if k.id == 11]
        assert {line11.from_bus, line11.to_bus} == {7, 8}


class TestIslandsAfter:
    def test_remove_nothing_single_component(self):
        comps = islands_after(triangle_system())
        assert comps == [{"b1", "b2", "b3"}]

    def test_triangle_minus_one_line_still_connected(self):
        # a path remains after any single removal
        for line in ("L1", "L2", "L3"):
            comps = islands_after(triangle_system(), {line})
            assert len(comps) == 1

    def test_triangle_minus_two_lines_isolates_a_bus(self):
        comps = islands_after(triangle_system(), {"L1", "L2"})
        assert sorted(map(sorted, comps)) == [["b1"], ["b2", "b3"]]

    def test_path_split(self):
        comps = islands_after(path_system(), {"La"})
        assert sorted(map(sorted, comps)) == [["a"], ["b", "c"]]


class TestContingencySet:
    def test_triangle_all_switchable(self):
        cont = build_contingency_set(triangle_system())
        assert len(cont) == 3
        for c in cont:
            assert len(c.candidate_switch_ids) == 2
            assert c.outaged_line_id not in c.candidate_switch_ids

    def test_pure_tree_has_no_contingencies(self):
        assert build_contingency_set(path_system()) == []

    def test_no_switchable_lines_empty_candidates(self):
        sys_obj = triangle_system()
        from dataclasses import replace
        lines = tuple(replace(k, switchable=False) for k in sys_obj.lines)
        sys_obj = replace(sys_obj, lines=lines)
        cont = build_contingency_set(sys_obj)
        assert len(cont) == 3
        assert all(c.candidate_switch_ids == () for c in cont)

    def test_whitelist_restricts_outages(self):
        cont = build_contingency_set(triangle_system(), whitelist={"L2"})
        assert [c.outaged_line_id for c in cont] == ["L2"]

    def test_whitelist_id_naming_no_line_rejected(self):
        with pytest.raises(ValueError, match="L9"):
            build_contingency_set(triangle_system(), whitelist={"L9"})
        # a bridge names a line: it is skipped, not rejected
        assert build_contingency_set(path_system(), whitelist={"La"}) == []

    def test_switch_pool_restricts_candidates(self):
        cont = build_contingency_set(triangle_system(), switch_pool={"L3"})
        for c in cont:
            assert set(c.candidate_switch_ids) <= {"L3"}

    def test_strict_islanding_prefilters_joint_cuts(self):
        # square 0-1-2-3-0: every line is non-radial, but removing two
        # opposite... adjacent lines at a degree-2 corner isolates it
        sys_obj = graph_system(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        relaxed = build_contingency_set(sys_obj)
        strict = build_contingency_set(sys_obj, strict_islanding=True)
        assert all(len(c.candidate_switch_ids) == 3 for c in relaxed)
        assert all(c.candidate_switch_ids == () for c in strict)

    def test_bridges_never_outaged(self):
        sys_obj = graph_system(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 1)])
        cont = build_contingency_set(sys_obj)
        outaged = {c.outaged_line_id for c in cont}
        assert outaged == {0, 1, 2, 3, 4} - find_bridges(sys_obj)

    def test_whitelist_file(self, tmp_path):
        path = tmp_path / "white.json"
        path.write_text(json.dumps(["L1", "L3"]))
        assert load_contingency_whitelist(path) == {"L1", "L3"}

    @pytest.mark.parametrize("entry", [[1], {"id": "L1"}, None, True, 1.5])
    def test_whitelist_entry_that_is_no_line_id_rejected(self, tmp_path, entry):
        path = tmp_path / "white.json"
        path.write_text(json.dumps(["L1", entry]))
        with pytest.raises(ValueError, match=r"entry \[1\]"):
            load_contingency_whitelist(path)
