"""Edge shifts of finite type and their recurrent component structure.

The alphabet is the transition set of an automaton (or any edge list),
one (E, 3) integer array of (source, letter, target) rows; two symbols may
follow one another when the first edge ends where the second begins.
Recurrent components are the strongly connected pieces with at least one
edge; each carries its edge ids, their ends in its own state numbering, a
period and a cyclic decomposition of its vertices, and the condensation
order between components supports the semisimplicity test used by the
pressure analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

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
    """Shift of finite type on an edge alphabet: ``edges[e]`` is the
    (source, letter, target) of edge e."""

    def __init__(self, edges, n_states: int,
                 automaton: Optional[GeodesicAutomaton] = None):
        self.edges = np.asarray(edges, dtype=np.intp).reshape(-1, 3)
        self.n_states = n_states
        self.automaton = automaton

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return f"Sft({len(self.edges)} edges, {self.n_states} states)"


def sft_from_automaton(aut: GeodesicAutomaton) -> Sft:
    """The shift of the automaton's transitions, in (state, letter) order."""
    src, li = np.nonzero(aut.table >= 0)
    return Sft(np.column_stack((src, li, aut.table[src, li])), aut.n_states,
               automaton=aut)


@dataclass(eq=False)
class Component:
    """A recurrent (strongly connected, edge-bearing) component."""

    sft: Sft
    index: int
    states: frozenset
    edge_ids: np.ndarray  # its edges, in the shift's order
    period: int
    phase: np.ndarray  # of each state in Z/period, its states in sorted order
    src: np.ndarray  # source of each edge, its states numbered in sorted order
    dst: np.ndarray  # target of each edge

    def cyclic_parts(self) -> list[list[int]]:
        states = np.array(sorted(self.states))
        return [states[self.phase == j].tolist() for j in range(self.period)]

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
    n, (src, _, dst) = sft.n_states, sft.edges.T
    by_src = np.argsort(src, kind="stable")  # sccs ignore repeats, order
    cuts = np.searchsorted(src[by_src], np.arange(n + 1)).tolist()
    succ = [dst[by_src[i:j]].tolist() for i, j in zip(cuts, cuts[1:])]
    sccs = strongly_connected(n, succ)
    scc = np.empty(n, dtype=np.intp)
    for ci, comp in enumerate(sccs):
        scc[comp] = ci
    a, b = scc[src], scc[dst]
    condensation: dict[int, set] = {}
    for x, y in zip(a[a != b].tolist(), b[a != b].tolist()):
        condensation.setdefault(x, set()).add(y)
    inner = np.flatnonzero(a == b)
    inner = inner[np.argsort(a[inner], kind="stable")]  # by scc, in order
    sccs_with_edges, starts = np.unique(a[inner], return_index=True)

    comps: list[Component] = []
    for ci, ids in zip(sccs_with_edges.tolist(), np.split(inner, starts[1:])):
        states, ends = sccs[ci], sft.edges[ids][:, ::2]
        period, phase = digraph_period(states, ends.tolist())
        s, t = np.searchsorted(states, ends.T)
        comps.append(Component(sft, len(comps), frozenset(states), ids,
                               period, np.array([phase[v] for v in states]),
                               s, t))
    return ComponentDecomposition(sft, tuple(comps), condensation,
                                  tuple(sccs_with_edges.tolist()))
