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
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import EmptySphere, NonConvergence
from .sft import Component, ComponentDecomposition, components, \
    sft_from_automaton

__all__ = [
    "Potential",
    "word_length_potential",
    "pressure",
    "parry_gibbs_measure",
    "parry_measure",
    "MarkovMeasure",
    "entropy",
    "check_variational",
    "VariationalReport",
    "gibbs_ratio_scan",
    "GibbsReport",
    "maximal_components",
    "MaximalPressure",
    "growth_rate",
]

PERRON_TOL = 1e-13
PERRON_ITMAX = 1_000_000
VARIATIONAL_TOL = 1e-9  # allowed gain of a random measure over the pressure
MAXIMAL_TOL = 1e-9      # pressures this close to the top count as maximal


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

def _edge_graph(C: Component, psi: Potential
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrow matrix, arrow values and cyclic phases of the component's edges.

    Node i is the edge C.edge_ids[i].  An arrow joins e to every edge f
    that starts where e ends and carries the potential of e; -inf marks the
    absent arrows.  The edge graph has the component's period, and an edge
    sits in the phase of its source state, counted from the first edge's.
    """
    edges = C.sft.edges
    src = np.array([edges[e][0] for e in C.edge_ids])
    dst = np.array([edges[e][2] for e in C.edge_ids])
    support = dst[:, None] == src[None, :]
    values = np.array([psi.value(e) for e in C.edge_ids], dtype=float)
    arrows = np.where(support, values[:, None], -np.inf)
    state_phase = np.array([C.phase[s] for s in src.tolist()], dtype=np.int64)
    phase = (state_phase - state_phase[0]) % C.period
    return support, arrows, phase


# ---------------------------------------------------------------------------
# Perron eigendata
# ---------------------------------------------------------------------------

def _power_primitive(B: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and vector of a primitive nonnegative matrix, by power
    iteration with Collatz-Wielandt bracketing."""
    n = B.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(PERRON_ITMAX):
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
        if hi - lo <= PERRON_TOL * max(hi, 1.0):
            lam = 0.5 * (lo + hi)
            return lam, w / w.sum()
        v = w
    raise NonConvergence(
        f"power iteration did not converge within {PERRON_ITMAX} steps"
    )


def _perron(W: np.ndarray, period: int, phase: np.ndarray
            ) -> tuple[float, np.ndarray]:
    """Perron root and a positive right eigenvector of an irreducible
    nonnegative matrix with the given cyclic structure."""
    n = W.shape[0]
    if period == 1:
        return _power_primitive(W)
    Wp = np.linalg.matrix_power(W, period)
    idx0 = np.flatnonzero(phase == 0)
    lam_p, r0 = _power_primitive(Wp[np.ix_(idx0, idx0)])
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


def _weight_matrix(support: np.ndarray, arrows: np.ndarray
                   ) -> tuple[np.ndarray, float]:
    """exp(psi) arranged on arrows, rescaled so the largest entry is 1."""
    finite = arrows[support]
    shift = float(finite.max()) if finite.size else 0.0
    W = np.zeros_like(arrows)
    W[support] = np.exp(finite - shift)
    return W, shift


def pressure(C: Component, psi: Potential) -> float:
    """log of the Perron root of the potential-weighted transition matrix."""
    support, arrows, phase = _edge_graph(C, psi)
    W, shift = _weight_matrix(support, arrows)
    lam, _ = _perron(W, C.period, phase)
    return math.log(lam) + shift


# ---------------------------------------------------------------------------
# Parry-Gibbs measures
# ---------------------------------------------------------------------------

@dataclass
class MarkovMeasure:
    """Shift-invariant Markov measure attaining the pressure."""

    component: Component
    potential: Potential
    nodes: list  # global edge ids, in the component's order
    P: np.ndarray
    pi: np.ndarray
    pressure: float
    psi_arrows: np.ndarray  # potential value per arrow, -inf off support
    support: np.ndarray
    r: np.ndarray  # right Perron vector of exp(psi) on arrows, summing to 1

    memory = 1  # edges a node of the chain remembers

    @cached_property
    def _cum_rows(self) -> list:  # of P, per row, as float lists
        return np.cumsum(self.P, axis=1).tolist()


def parry_gibbs_measure(C: Component, psi: Potential) -> MarkovMeasure:
    """The Markov measure with transition weights proportional to
    exp(psi) times the right Perron data."""
    support, arrows, phase = _edge_graph(C, psi)
    W, shift = _weight_matrix(support, arrows)
    lam, r = _perron(W, C.period, phase)

    # Left eigenvector: Perron data of the transpose, whose cyclic classes
    # are the same sets traversed the other way round.
    lam_l, l = _perron(W.T, C.period, (-phase) % C.period)
    if abs(lam_l - lam) > 1e-9 * max(lam, 1.0):
        raise NonConvergence("left and right Perron roots disagree")

    P = W * r[None, :] / (lam * r[:, None])
    P[~support] = 0.0
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

    nodes = list(C.edge_ids)
    return MarkovMeasure(C, psi, nodes, P, pi, math.log(lam) + shift,
                         arrows, support, r)


def _entropy_rate(P: np.ndarray, pi: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


def _integral(P: np.ndarray, pi: np.ndarray, vals: np.ndarray) -> float:
    return float((pi[:, None] * P * vals).sum())


def entropy(m: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy of the stationary Markov chain."""
    return _entropy_rate(m.P, m.pi)


def mean_potential(m: MarkovMeasure) -> float:
    """Integral of the potential against the measure."""
    return _integral(m.P, m.pi, np.where(m.support, m.psi_arrows, 0.0))


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


def check_variational(C: Component, psi: Potential, trials: int = 200,
                      seed: int = 0) -> VariationalReport:
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
        best = max(best, _entropy_rate(P, pi) + _integral(P, pi, vals))
    violation = max(0.0, best - m.pressure)
    ok = violation <= VARIATIONAL_TOL and gap <= VARIATIONAL_TOL
    return VariationalReport(m.pressure, parry_value, gap, trials, best,
                             violation, ok)


# ---------------------------------------------------------------------------
# Gibbs constants
# ---------------------------------------------------------------------------

@dataclass
class GibbsReport:
    c_lower: float
    c_upper: float
    n_cylinders: int
    n_max: int  # longest cylinder length
    pressure: float
    # Nothing truncates the closed form; the field stays because the
    # benchmark reports read it.
    truncated: bool = False


def gibbs_ratio_scan(m: MarkovMeasure, n_max: int = 8) -> GibbsReport:
    """Bounds on mu[w] / exp(S_n psi(w) - n pressure) over the cylinders w
    of positive measure and length n <= n_max, and how many there are.

    The chain steps from e to f with probability
    exp(psi(e) - pressure) r(f) / r(e), so the ratio of e_1 ... e_n is
    g(e_1) h(e_n) with g = pi / r and h = r exp(pressure - psi) (Bowen
    1975).  The bounds range over the pairs (e, f) joined by a path of at
    most n_max - 1 steps.  The count is kept in Python integers, since on
    F2 it passes 2^63 at length 40.  Raises ValueError when `n_max` is
    below 1.
    """
    if n_max < 1:
        raise ValueError(f"cylinder length n_max must be at least 1, "
                         f"got {n_max}")
    value = np.array([m.potential.value(e) for e in m.nodes], dtype=float)
    reach = np.eye(len(m.nodes), dtype=bool)
    for _ in range(n_max - 1):
        grown = reach | (reach @ m.support)
        if (grown == reach).all():
            break
        reach = grown
    ratios = np.outer(m.pi / m.r, m.r * np.exp(m.pressure - value))[reach]
    steps = m.support.astype(int).astype(object)
    paths, count = np.ones(len(m.nodes), dtype=object), 0
    for _ in range(n_max):
        count += int(paths.sum())
        paths = steps @ paths  # paths of the next length from each node
    return GibbsReport(float(ratios.min()), float(ratios.max()), count,
                       n_max, m.pressure)


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


def maximal_components(dec: ComponentDecomposition,
                       psi: Optional[Potential] = None) -> MaximalPressure:
    """Components of maximal pressure, and whether none of them can reach
    another through the condensation."""
    psi = psi if psi is not None else Potential.constant(0.0)
    if not dec.components:
        return MaximalPressure(dec, (), -math.inf, (), True)
    prs = tuple(pressure(C, psi) for C in dec.components)
    top = max(prs)
    maximal = tuple(i for i, p in enumerate(prs) if p >= top - MAXIMAL_TOL)
    semi = True
    for i in maximal:
        for j in maximal:
            if i != j and dec.reaches(i, j):
                semi = False
    return MaximalPressure(dec, prs, top, maximal, semi)


def growth_rate(aut, dec: Optional[ComponentDecomposition] = None) -> float:
    """Exponential growth rate of sphere sizes: the top zero-potential
    pressure over recurrent components, and exactly 0 for a finite group,
    which has none.  Warns when an infinite language grows
    subexponentially (an elementary group)."""
    if dec is None:
        dec = components(sft_from_automaton(aut))
    if not dec.components:
        return 0.0
    mp = maximal_components(dec)
    if mp.max_pressure <= 1e-9:
        warnings.warn("growth rate is 0 within tolerance: the group is "
                      "elementary and exponential-scale statistics are "
                      "degenerate", stacklevel=2)
    return mp.max_pressure


def parry_measure(aut) -> tuple[float, MarkovMeasure]:
    """The growth rate v of the automaton and the Parry measure on its
    first component of maximal pressure: the equilibrium state of the
    constant potential -v.  Raises EmptySphere when there is no recurrent
    component, since the spheres run out."""
    dec = components(sft_from_automaton(aut))
    mp = maximal_components(dec)
    if not mp.maximal:
        raise EmptySphere("no recurrent component; nothing to measure")
    v = mp.max_pressure
    return v, parry_gibbs_measure(dec.components[mp.maximal[0]],
                                  word_length_potential(v))
