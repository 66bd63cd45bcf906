"""Network graph analysis: bridges, islands, and the contingency set.

The grid graph is treated as an undirected multigraph: parallel circuits
are distinct edges with their own ids and are never bridges.  Bridges are
the radial lines; outaging one would split the network, so the N-1
contingency set is built from the non-bridge lines only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .system import Id, PowerSystem, _components


@dataclass(frozen=True)
class Contingency:
    outaged_line_id: Id
    candidate_switch_ids: tuple[Id, ...] = ()


def _adjacency(sys: PowerSystem) -> dict[Id, list[tuple[Id, Id]]]:
    """bus -> list of (neighbor bus, line id)."""
    adj: dict[Id, list[tuple[Id, Id]]] = {b.id: [] for b in sys.buses}
    for line in sys.lines:
        adj[line.from_bus].append((line.to_bus, line.id))
        adj[line.to_bus].append((line.from_bus, line.id))
    return adj


def islands_after(sys: PowerSystem, removed_line_ids: set[Id] | frozenset[Id] = frozenset()
                  ) -> list[set[Id]]:
    """Connected components of the network after removing the given lines."""
    removed = set(removed_line_ids)
    return _components([b.id for b in sys.buses],
                       [(k.from_bus, k.to_bus) for k in sys.lines if k.id not in removed])


def find_bridges(sys: PowerSystem) -> set[Id]:
    """Line ids whose individual removal disconnects the network.

    Iterative low-link DFS over the multigraph.  The edge id used to reach
    a node is what gets skipped on the way back, so a parallel circuit
    between the same bus pair counts as a cycle and neither copy is a
    bridge.  Rejects disconnected input.
    """
    if len(islands_after(sys)) > 1:
        raise ValueError("network is disconnected; bridge search requires one component")
    adj = _adjacency(sys)
    order: dict[Id, int] = {}
    low: dict[Id, int] = {}
    bridges: set[Id] = set()
    counter = 0
    for root in adj:
        if root in order:
            continue
        # stack entries: (node, incoming line id, iterator position)
        stack: list[tuple[Id, Id | None, int]] = [(root, None, 0)]
        order[root] = low[root] = counter
        counter += 1
        while stack:
            node, in_edge, i = stack.pop()
            if i < len(adj[node]):
                stack.append((node, in_edge, i + 1))
                nbr, edge = adj[node][i]
                if edge == in_edge:
                    continue
                if nbr in order:
                    low[node] = min(low[node], order[nbr])
                else:
                    order[nbr] = low[nbr] = counter
                    counter += 1
                    stack.append((nbr, edge, 0))
            elif in_edge is not None:
                # node finished: propagate low-link to its parent
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] > order[parent]:
                    bridges.add(in_edge)
    return bridges


def build_contingency_set(
    sys: PowerSystem,
    switch_pool: set[Id] | None = None,
    whitelist: set[Id] | None = None,
    strict_islanding: bool = False,
) -> list[Contingency]:
    """One contingency per non-radial line.

    Switch candidates for each contingency are the switchable non-bridge
    lines other than the outaged one, intersected with ``switch_pool``
    when given.  ``whitelist`` restricts which lines are outaged at all;
    a bridge in it is skipped, an id that names no line raises ValueError.
    With ``strict_islanding`` a candidate is dropped when opening it
    together with the outage would split the network; by default such
    candidates are kept and the nodal balance decides their fate.
    """
    line_ids = [k.id for k in sys.lines]
    if whitelist is not None:
        unknown = set(whitelist) - set(line_ids)
        if unknown:
            raise ValueError(
                f"whitelist names no line: {', '.join(sorted(map(str, unknown)))}")
    bridges = find_bridges(sys)
    switchable = {k.id for k in sys.lines if k.switchable}
    contingencies: list[Contingency] = []
    for c in line_ids:
        if c in bridges:
            continue
        if whitelist is not None and c not in whitelist:
            continue
        candidates = []
        for k in line_ids:
            if k == c or k in bridges or k not in switchable:
                continue
            if switch_pool is not None and k not in switch_pool:
                continue
            if strict_islanding and len(islands_after(sys, {c, k})) > 1:
                continue
            candidates.append(k)
        contingencies.append(
            Contingency(outaged_line_id=c, candidate_switch_ids=tuple(candidates)))
    return contingencies


def load_contingency_whitelist(path) -> set[Id]:
    """Whitelist file: a JSON array of line ids, each a string or an
    integer."""
    import json
    from pathlib import Path

    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError("contingency whitelist must be a JSON array of line ids")
    for i, entry in enumerate(doc):
        if isinstance(entry, bool) or not isinstance(entry, (str, int)):
            raise ValueError(f"entry [{i}]: expected a line id (a string or "
                             f"an integer), got {entry!r}")
    return set(doc)
