"""Edge shifts of finite type and their recurrent component structure.

The alphabet is the transition set of an automaton (or any edge list); two
symbols may follow one another when the first edge ends where the second
begins.  Recurrent components are the strongly connected pieces with at
least one edge; each carries a period and a cyclic decomposition of its
vertices, and the condensation order between components supports the
semisimplicity test used by the pressure analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .automaton import GeodesicAutomaton

__all__ = [
    "Sft",
    "Component",
    "ComponentDecomposition",
    "sft_from_automaton",
    "components",
]


def strongly_connected(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components listed by smallest vertex."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    out.sort(key=min)
    return out


def digraph_period(vertices: list[int], arrows: list[tuple[int, int]]) -> tuple[int, dict]:
    """Period (gcd of cycle lengths) and phase classes of a strongly
    connected digraph, via breadth-first levels."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in arrows:
        adj[u].append(v)
    root = min(vertices)
    level = {root: 0}
    queue = [root]
    per = 0
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for v in adj[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                per = gcd(per, level[u] + 1 - level[v])
    per = abs(per) or 1
    phase = {v: level[v] % per for v in vertices}
    return per, phase


class Sft:
    """Shift of finite type on an edge alphabet."""

    def __init__(self, edges: list[tuple[int, int, int]], n_states: int,
                 automaton: Optional[GeodesicAutomaton] = None):
        self.edges = tuple(tuple(e) for e in edges)
        self.n_states = n_states
        self.automaton = automaton

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return f"Sft({len(self.edges)} edges, {self.n_states} states)"


def sft_from_automaton(aut: GeodesicAutomaton) -> Sft:
    """The shift whose symbols are the automaton's transitions."""
    return Sft(aut.edges(), aut.n_states, automaton=aut)


@dataclass
class Component:
    """A recurrent (strongly connected, edge-bearing) component."""

    sft: Sft
    index: int
    states: frozenset
    edge_ids: tuple[int, ...]
    period: int
    phase: dict  # state -> phase in Z/period

    def cyclic_parts(self) -> list[list[int]]:
        parts: list[list[int]] = [[] for _ in range(self.period)]
        for v in sorted(self.states):
            parts[self.phase[v]].append(v)
        return parts

    def __repr__(self):
        return (f"Component(#{self.index}, {len(self.edge_ids)} edges, "
                f"period {self.period})")


@dataclass
class ComponentDecomposition:
    """All recurrent components plus the condensation order among them."""

    sft: Sft
    components: tuple[Component, ...]
    condensation: dict  # scc id -> set of scc ids reachable in one step
    scc_of_component: tuple[int, ...]

    def reaches(self, i: int, j: int) -> bool:
        """Is there a directed path from component i to component j (i != j)."""
        a = self.scc_of_component[i]
        b = self.scc_of_component[j]
        if a == b:
            return False
        seen = {a}
        stack = [a]
        while stack:
            u = stack.pop()
            for v in self.condensation.get(u, ()):
                if v == b:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False


def components(sft: Sft) -> ComponentDecomposition:
    """Recurrent components, periods, cyclic parts, and the condensation."""
    succ: list[list[int]] = [[] for _ in range(sft.n_states)]
    for (s, _, t) in sft.edges:
        succ[s].append(t)
    succ = [sorted(set(v)) for v in succ]
    sccs = strongly_connected(sft.n_states, succ)
    scc_of_state = {}
    for ci, comp in enumerate(sccs):
        for v in comp:
            scc_of_state[v] = ci
    condensation: dict[int, set] = {}
    inner: dict[int, list[int]] = {}  # scc id -> its edges, in order
    for i, (s, _, t) in enumerate(sft.edges):
        a, b = scc_of_state[s], scc_of_state[t]
        if a != b:
            condensation.setdefault(a, set()).add(b)
        else:
            inner.setdefault(a, []).append(i)

    comps: list[Component] = []
    for ci, edge_ids in sorted(inner.items()):  # the sccs with an edge
        arrows = [(sft.edges[i][0], sft.edges[i][2]) for i in edge_ids]
        period, phase = digraph_period(sccs[ci], arrows)
        comps.append(Component(sft, len(comps), frozenset(sccs[ci]),
                               tuple(edge_ids), period, phase))
    return ComponentDecomposition(sft, tuple(comps), condensation,
                                  tuple(sorted(inner)))
