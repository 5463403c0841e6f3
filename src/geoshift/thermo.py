"""Pressure, Parry-Gibbs measures, and entropy on recurrent components.

Everything here runs on a weighted adjacency matrix built from a recurrent
component and a potential on its edges: the matrix is indexed by edges, and
the arrow from one edge to a successor carries the potential of the first.
Periodic components are reduced to a primitive matrix by passing to the
appropriate power on one cyclic class and propagating the eigenvector back
around the cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptySphere, NonConvergence
from .sft import Component, ComponentDecomposition, components, \
    digraph_period, sft_from_automaton, strongly_connected

__all__ = [
    "Potential",
    "word_length_potential",
    "pressure",
    "parry_gibbs_measure",
    "MarkovMeasure",
    "entropy",
    "cylinder_measure",
    "check_variational",
    "VariationalReport",
    "gibbs_ratio_scan",
    "GibbsReport",
    "maximal_components",
    "MaximalPressure",
    "growth_rate",
    "ps_coding_check",
    "PsCodingReport",
]

PERRON_TOL = 1e-13
PERRON_ITMAX = 1_000_000


class Potential:
    """A real function of one edge of the shift: a constant, or one value
    per edge id."""

    def __init__(self, values=None, constant_value: float = 0.0):
        self.values = dict(values) if values is not None else None
        self.constant_value = float(constant_value)

    @classmethod
    def constant(cls, c: float) -> "Potential":
        return cls(None, c)

    @classmethod
    def on_edges(cls, values: dict) -> "Potential":
        """Potential given edge by edge: {edge id: value}."""
        return cls({e: float(v) for e, v in values.items()})

    def value(self, edge: int) -> float:
        if self.values is None:
            return self.constant_value
        try:
            return self.values[edge]
        except KeyError:
            raise ValueError(f"potential is undefined on edge {edge!r}") from None

    def __repr__(self):
        if self.values is None:
            return f"Potential(constant {self.constant_value:g})"
        return f"Potential({len(self.values)} edges)"


def word_length_potential(v: float) -> Potential:
    """The constant potential -v whose equilibrium state weighs all
    geodesics of equal length equally."""
    return Potential.constant(-float(v))


# ---------------------------------------------------------------------------
# Edge graph
# ---------------------------------------------------------------------------

@dataclass
class _Recoded:
    """Component as a graph on its edges, with the potential on the arrows.

    Nodes are the 1-tuples (e,) of the component's edges; an arrow joins e
    to every edge f that may follow it and carries the potential of e.
    """

    component: Component
    potential: Potential
    nodes: list  # 1-tuples of global edge ids
    node_index: dict
    psi: np.ndarray  # psi[i, j] over arrows, -inf elsewhere
    support: np.ndarray  # boolean arrow matrix
    period: int
    phase: np.ndarray  # per node


def _recode(C: Component, psi: Potential) -> _Recoded:
    sft = C.sft
    nodes = [(e,) for e in C.edge_ids]
    node_index = {b: i for i, b in enumerate(nodes)}

    n = len(nodes)
    psi_mat = np.full((n, n), -np.inf)
    support = np.zeros((n, n), dtype=bool)
    for i, e in enumerate(C.edge_ids):
        dst = sft.edges[e][2]
        val = psi.value(e)
        for j, f in enumerate(C.edge_ids):
            if sft.edges[f][0] == dst:
                support[i, j] = True
                psi_mat[i, j] = val

    # The edge graph of a recurrent component is again strongly connected.
    succ_lists = [list(np.flatnonzero(support[i])) for i in range(n)]
    sccs = strongly_connected(n, succ_lists)
    if len(sccs) != 1:
        raise NonConvergence("recoded component failed to be irreducible")
    arrows = [(i, j) for i in range(n) for j in np.flatnonzero(support[i])]
    period, phase_map = digraph_period(list(range(n)), arrows)
    phase = np.array([phase_map[i] for i in range(n)], dtype=np.int64)
    return _Recoded(C, psi, nodes, node_index, psi_mat, support, period, phase)


# ---------------------------------------------------------------------------
# Perron eigendata
# ---------------------------------------------------------------------------

def _power_primitive(B: np.ndarray, tol: float, itmax: int) -> tuple[float, np.ndarray]:
    """Perron root and vector of a primitive nonnegative matrix, by power
    iteration with Collatz-Wielandt bracketing."""
    n = B.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(itmax):
        w = B @ v
        s = w.sum()
        if not np.isfinite(s) or s <= 0.0:
            raise NonConvergence("power iteration left the positive cone")
        w /= s
        mask = w > 0
        if not mask.all():
            v = w
            continue
        ratios = (B @ w)[mask] / w[mask]
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= tol * max(hi, 1.0):
            lam = 0.5 * (lo + hi)
            return lam, w / w.sum()
        v = w
    raise NonConvergence(
        f"power iteration did not converge within {itmax} steps"
    )


def _perron(W: np.ndarray, period: int, phase: np.ndarray,
            tol: float = PERRON_TOL, itmax: int = PERRON_ITMAX
            ) -> tuple[float, np.ndarray]:
    """Perron root and a positive right eigenvector of an irreducible
    nonnegative matrix with the given cyclic structure."""
    n = W.shape[0]
    if period == 1:
        return _power_primitive(W, tol, itmax)
    Wp = np.linalg.matrix_power(W, period)
    idx0 = np.flatnonzero(phase == 0)
    lam_p, r0 = _power_primitive(Wp[np.ix_(idx0, idx0)], tol, itmax)
    lam = lam_p ** (1.0 / period)
    r = np.zeros(n)
    r[idx0] = r0
    # r_j = W[j -> j+1] r_{j+1} / lam, walked backwards from class 0.
    for j in range(period - 1, 0, -1):
        src = np.flatnonzero(phase == j)
        dst = np.flatnonzero(phase == (j + 1) % period)
        r[src] = W[np.ix_(src, dst)] @ r[dst] / lam
    if (r <= 0).any():
        raise NonConvergence("eigenvector failed to be strictly positive")
    return lam, r / r.sum()


def _weight_matrix(rc: _Recoded) -> tuple[np.ndarray, float]:
    """exp(psi) arranged on arrows, rescaled so the largest entry is 1."""
    finite = rc.psi[rc.support]
    shift = float(finite.max()) if finite.size else 0.0
    W = np.zeros_like(rc.psi)
    W[rc.support] = np.exp(rc.psi[rc.support] - shift)
    return W, shift


def pressure(C: Component, psi: Potential, tol: float = PERRON_TOL,
             itmax: int = PERRON_ITMAX) -> float:
    """log of the Perron root of the potential-weighted transition matrix."""
    rc = _recode(C, psi)
    W, shift = _weight_matrix(rc)
    lam, _ = _perron(W, rc.period, rc.phase, tol, itmax)
    return math.log(lam) + shift


# ---------------------------------------------------------------------------
# Parry-Gibbs measures
# ---------------------------------------------------------------------------

@dataclass
class MarkovMeasure:
    """Shift-invariant Markov measure attaining the pressure."""

    component: Component
    potential: Potential
    nodes: list  # 1-tuples of global edge ids
    node_index: dict
    P: np.ndarray
    pi: np.ndarray
    pressure: float
    psi_arrows: np.ndarray  # potential value per arrow, -inf off support
    support: np.ndarray

    @property
    def memory(self) -> int:
        """Number of edges a node of the chain remembers (always 1)."""
        return len(self.nodes[0])

    def edge_distribution(self) -> dict:
        """Marginal mass of the first edge of a node: {edge id: mass}."""
        out: dict[int, float] = {}
        for b, p in zip(self.nodes, self.pi):
            out[b[0]] = out.get(b[0], 0.0) + float(p)
        return out


def parry_gibbs_measure(C: Component, psi: Potential, tol: float = PERRON_TOL,
                        itmax: int = PERRON_ITMAX) -> MarkovMeasure:
    """The Markov measure with transition weights proportional to
    exp(psi) times the right Perron data."""
    rc = _recode(C, psi)
    W, shift = _weight_matrix(rc)
    lam, r = _perron(W, rc.period, rc.phase, tol, itmax)

    # Left eigenvector: Perron data of the transpose, whose cyclic classes
    # are the same sets traversed the other way round.
    lam_l, l = _perron(W.T, rc.period, (-rc.phase) % rc.period, tol, itmax)
    if abs(lam_l - lam) > 1e-9 * max(lam, 1.0):
        raise NonConvergence("left and right Perron roots disagree")

    P = W * r[None, :] / (lam * r[:, None])
    P[~rc.support] = 0.0
    rows = P.sum(axis=1)
    if np.abs(rows - 1.0).max() > 1e-9:
        raise NonConvergence("transition matrix is not stochastic")
    P /= rows[:, None]

    pi = l * r
    pi /= pi.sum()
    for _ in range(200):
        nxt = pi @ P
        if np.abs(nxt - pi).sum() <= 1e-15:
            pi = nxt
            break
        pi = nxt
    pi /= pi.sum()
    if np.abs(pi @ P - pi).sum() > 1e-12:
        raise NonConvergence("stationary vector drifted")

    return MarkovMeasure(C, psi, rc.nodes, rc.node_index, P, pi,
                         math.log(lam) + shift, rc.psi, rc.support)


def entropy(m: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy of the stationary Markov chain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(m.P > 0, m.P * np.log(m.P), 0.0)
    return float(-(m.pi @ plogp.sum(axis=1)))


def mean_potential(m: MarkovMeasure) -> float:
    """Integral of the potential against the measure."""
    vals = np.where(m.support, m.psi_arrows, 0.0)
    return float((m.pi[:, None] * m.P * vals).sum())


def cylinder_measure(m: MarkovMeasure, block: Sequence[int]) -> float:
    """Measure of the cylinder fixing the given consecutive edges.

    The empty block describes the whole space and has measure 1.
    """
    block = tuple(block)
    if not block:
        return float(sum(m.pi))
    cur = m.node_index.get(block[:1])
    if cur is None:
        return 0.0
    prob = float(m.pi[cur])
    for e in block[1:]:
        nxt = m.node_index.get((e,))
        if nxt is None:
            return 0.0
        prob *= float(m.P[cur, nxt])
        if prob == 0.0:
            return 0.0
        cur = nxt
    return prob


# ---------------------------------------------------------------------------
# Variational check
# ---------------------------------------------------------------------------

@dataclass
class VariationalReport:
    pressure: float
    parry_value: float
    parry_gap: float
    n_trials: int
    best_trial: float
    max_violation: float
    ok: bool

    def summary(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        return (f"pressure {self.pressure:.12g}; equilibrium value off by "
                f"{self.parry_gap:.3g}; best of {self.n_trials} random "
                f"measures {self.best_trial:.12g} ({verdict})")


def check_variational(C: Component, psi: Potential, trials: int = 200,
                      seed: int = 0, tol: float = 1e-9) -> VariationalReport:
    """Entropy + integral of the potential, over random Markov measures on
    the component, never beats the pressure; the Parry-Gibbs measure
    attains it."""
    from .randomness import make_rng

    m = parry_gibbs_measure(C, psi)
    parry_value = entropy(m) + mean_potential(m)
    gap = abs(m.pressure - parry_value)

    rng = make_rng(seed, stream=101)
    support = m.support
    vals = np.where(support, m.psi_arrows, 0.0)
    n = support.shape[0]
    best = -math.inf
    for _ in range(trials):
        w = np.where(support, rng.random((n, n)) + 1e-9, 0.0)
        P = w / w.sum(axis=1)[:, None]
        A = P.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        pi = np.abs(pi)
        pi /= pi.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(P > 0, P * np.log(P), 0.0)
        h = float(-(pi @ plogp.sum(axis=1)))
        integral = float((pi[:, None] * P * vals).sum())
        best = max(best, h + integral)
    violation = max(0.0, best - m.pressure)
    ok = violation <= tol and gap <= tol
    return VariationalReport(m.pressure, parry_value, gap, trials, best,
                             violation, ok)


# ---------------------------------------------------------------------------
# Gibbs ratio scan
# ---------------------------------------------------------------------------

@dataclass
class GibbsReport:
    c_lower: float
    c_upper: float
    n_cylinders: int
    n_max: int
    pressure: float
    truncated: bool = False

    def summary(self) -> str:
        note = " (scan truncated)" if self.truncated else ""
        return (f"{self.n_cylinders} cylinders up to length {self.n_max}: "
                f"measure / exp(-nP + S_n psi) within "
                f"[{self.c_lower:.9g}, {self.c_upper:.9g}]{note}")


def gibbs_ratio_scan(m: MarkovMeasure, n_max: int = 8,
                     budget: int = 500_000) -> GibbsReport:
    """Enumerate cylinders and compare their measure with the Gibbs
    weight exp(-n pressure + Birkhoff sum of the potential).

    Each stack entry carries its cylinder's length, Birkhoff sum and
    measure.  A child's sum is its parent's plus the value on the new edge,
    which adds the same floats in the same order as summing the cylinder's
    edges from 0 (up to Python 3.11; later versions compensate float sums).
    The scan is truncated only when a cylinder of positive measure is left
    unscanned once `budget` cylinders are counted.
    """
    lo, hi = math.inf, -math.inf
    count = 0
    truncated = False
    pr = m.pressure
    value = [m.potential.value(node[-1]) for node in m.nodes]
    successors = [[(int(j), float(m.P[i, j]))
                   for j in np.flatnonzero(m.support[i])]
                  for i in range(len(m.nodes))]
    stack = [(i, 1, 0.0 + value[i], float(m.pi[i])) for i in
             range(len(m.nodes) - 1, -1, -1)]
    while stack:
        i, n, s, prob = stack.pop()
        if prob <= 0.0:
            continue
        if count >= budget:
            truncated = True
            break
        r = prob / math.exp(-n * pr + s)
        lo, hi = min(lo, r), max(hi, r)
        count += 1
        if n >= n_max:
            continue
        for j, p in successors[i]:
            stack.append((j, n + 1, s + value[j], prob * p))
    if count == 0:
        raise EmptySphere("no cylinder of positive measure")
    return GibbsReport(lo, hi, count, n_max, m.pressure, truncated)


# ---------------------------------------------------------------------------
# Component comparison and growth
# ---------------------------------------------------------------------------

@dataclass
class MaximalPressure:
    decomposition: ComponentDecomposition
    pressures: tuple[float, ...]
    max_pressure: float
    maximal: tuple[int, ...]   # component indices within tolerance of the top
    semisimple: bool

    def summary(self) -> str:
        flag = "semisimple" if self.semisimple else "NOT semisimple"
        return (f"max pressure {self.max_pressure:.12g} attained by "
                f"components {list(self.maximal)} ({flag})")


def maximal_components(dec: ComponentDecomposition,
                       psi: Optional[Potential] = None,
                       tol: float = 1e-9) -> MaximalPressure:
    """Components of maximal pressure, and whether none of them can reach
    another through the condensation."""
    psi = psi if psi is not None else Potential.constant(0.0)
    if not dec.components:
        return MaximalPressure(dec, (), -math.inf, (), True)
    prs = tuple(pressure(C, psi) for C in dec.components)
    top = max(prs)
    maximal = tuple(i for i, p in enumerate(prs) if p >= top - tol)
    semi = True
    for i in maximal:
        for j in maximal:
            if i != j and dec.reaches(i, j):
                semi = False
    return MaximalPressure(dec, prs, top, maximal, semi)


def growth_rate(aut, dec: Optional[ComponentDecomposition] = None) -> float:
    """Exponential growth rate of sphere sizes: the top zero-potential
    pressure over recurrent components.  Warns when the language grows
    subexponentially (an elementary group)."""
    if dec is None:
        dec = components(sft_from_automaton(aut))
    if not dec.components:
        warnings.warn("no recurrent component: the group is finite "
                      "and the growth rate is 0", stacklevel=2)
        return 0.0
    mp = maximal_components(dec)
    if mp.max_pressure <= 1e-9:
        warnings.warn("growth rate is 0 within tolerance: the group is "
                      "elementary and exponential-scale statistics are "
                      "degenerate", stacklevel=2)
    return mp.max_pressure


# ---------------------------------------------------------------------------
# Boundary coding check
# ---------------------------------------------------------------------------

@dataclass
class PsCodingReport:
    n: int
    radius: int
    rate: float
    pairs: list  # (x word, y word, mass, ratio)
    zero_pairs: int
    ratio_min: float  # over nonzero pairs
    ratio_max: float

    def summary(self) -> str:
        lines = [
            f"two-sided mass vs exp(-2vn) at n={self.n}, R={self.radius}, "
            f"v={self.rate:.9g}: {len(self.pairs)} pairs, "
            f"{self.zero_pairs} with no geodesic through the window"
        ]
        if math.isfinite(self.ratio_min):
            lines.append(
                f"nonzero ratios within [{self.ratio_min:.6g}, {self.ratio_max:.6g}]"
            )
        return "\n".join(lines)


def _measure_edge_chain(m: MarkovMeasure):
    """Edge-indexed stationary data of a measure."""
    edges = [b[0] for b in m.nodes]
    idx = {e: i for i, e in enumerate(edges)}
    return edges, idx


def ps_coding_check(aut, measures: Sequence[MarkovMeasure], rate: float,
                    radius: int = 0, n: int = 6, x_count: int = 4,
                    y_count: int = 4, seed: int = 0) -> PsCodingReport:
    """Compare the stationary mass of two-sided geodesic windows joining
    B(x, R) to B(y, R), for x, y on the sphere of radius n, against
    exp(-2 v n).

    The mass is computed exactly by dynamic programming over the chain:
    forward steps follow the transition matrix towards y, backward steps
    follow the time reversal towards x, and the indicator of landing in a
    ball is pushed through the group multiplication.
    """
    from .automaton import sample_uniform_sphere
    from .geometry import ball_tree
    from .randomness import make_rng

    spec = aut.group
    eng = spec.engine
    T = aut.genset
    letter_key = [x.key for x in T.elements]
    inv_letter_key = [T.elements[i].inverse().key for i in range(len(T))]
    sft_edges = aut.edges()

    rng = make_rng(seed, stream=461)
    xs = sample_uniform_sphere(aut, n, rng, count=x_count)
    ys = sample_uniform_sphere(aut, n, rng, count=y_count)
    ball_keys = ball_tree(T, radius).keys

    per_measure = []
    for m in measures:
        edges, idx = _measure_edge_chain(m)
        preds = [[] for _ in edges]
        succs = [[] for _ in edges]
        for a, e in enumerate(edges):
            for b, f in enumerate(edges):
                if sft_edges[e][2] == sft_edges[f][0]:
                    succs[a].append(b)
                    preds[b].append(a)
        P = m.P
        pi = m.pi
        Q = np.zeros_like(P)
        for a in range(len(edges)):
            for b in preds[a]:
                Q[a, b] = pi[b] * P[b, a] / pi[a]
        per_measure.append((edges, idx, preds, succs, P, Q, pi))

    def forward_mass(y_key):
        """F[e] = chance the n-1 steps after e, times e's own letter,
        multiply into B(y, R); one table per measure."""
        target = {eng.mult(y_key, bk) for bk in ball_keys}
        out = []
        for (edges, idx, preds, succs, P, Q, pi) in per_measure:
            cur = {(b, u): 1.0 for b in range(len(edges)) for u in target}
            for _ in range(n - 1):
                nxt: dict = {}
                for (b, u), val in cur.items():
                    f = edges[b]
                    w_inv = inv_letter_key[sft_edges[f][1]]
                    u_prev = eng.mult(u, w_inv)
                    for a in preds[b]:
                        p = P[a, b]
                        if p > 0.0:
                            key = (a, u_prev)
                            nxt[key] = nxt.get(key, 0.0) + p * val
                cur = nxt
            table = np.zeros(len(edges))
            for (a, u), val in cur.items():
                e = edges[a]
                if u == letter_key[sft_edges[e][1]]:
                    table[a] += val
            out.append(table)
        return out

    def backward_mass(x_key):
        """K[e] = chance the n reversed steps before e multiply into
        B(x, R); one table per measure."""
        target = {eng.mult(x_key, bk) for bk in ball_keys}
        out = []
        for (edges, idx, preds, succs, P, Q, pi) in per_measure:
            cur = {(b, u): 1.0 for b in range(len(edges)) for u in target}
            for _ in range(n):
                nxt: dict = {}
                for (b, u), val in cur.items():
                    h = edges[b]
                    w = letter_key[sft_edges[h][1]]
                    z_next = eng.mult(u, w)
                    for a in succs[b]:
                        q = Q[a, b]
                        if q > 0.0:
                            key = (a, z_next)
                            nxt[key] = nxt.get(key, 0.0) + q * val
                cur = nxt
            table = np.zeros(len(edges))
            for (a, u), val in cur.items():
                if u == eng.identity:
                    table[a] += val
            out.append(table)
        return out

    forward = {y.key: forward_mass(y.key) for y in ys}
    backward = {x.key: backward_mass(x.key) for x in xs}

    pairs = []
    zero_pairs = 0
    lo, hi = math.inf, -math.inf
    scale = math.exp(-2.0 * rate * n)
    for x in xs:
        for y in ys:
            mass = 0.0
            for mi, (edges, idx, preds, succs, P, Q, pi) in enumerate(per_measure):
                F = forward[y.key][mi]
                K = backward[x.key][mi]
                mass += float((pi * K * F).sum())
            ratio = mass / scale
            if mass == 0.0:
                zero_pairs += 1
            else:
                lo, hi = min(lo, ratio), max(hi, ratio)
            pairs.append((" ".join(x.word()) if spec.family != "finite_table"
                          else str(x.key),
                          " ".join(y.word()) if spec.family != "finite_table"
                          else str(y.key),
                          mass, ratio))
    return PsCodingReport(n, radius, rate, pairs, zero_pairs, lo, hi)
