"""Pressure, Parry-Gibbs measures, and entropy on recurrent components.

A potential psi is a float, or an array of one float per edge of the
shift.  Everything here runs on the state graph of a recurrent component,
kept as arrays over its edges: the source and target state of each edge
and its weight exp(psi).  The state matrix M[s, t],
the sum of the weights of the edges from s to t, has the Perron root of the
edge shift, and a product with M or its transpose is one ``np.bincount``
over the edges.  A Parry chain's step from an edge depends only on the
state the edge ends in, so the Perron vectors of M give the chain, its
stationary law and the Gibbs constants in closed form, E numbers each.
Periodic components are reduced to a primitive problem by passing to the
period-th power on one cyclic class of states and propagating the
eigenvector back around the cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptySphere, NonConvergence
from .randomness import make_rng
from .sft import Component, ComponentDecomposition, components, \
    sft_from_automaton

__all__ = [
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
VARIATIONAL_BLOCK = 1 << 20  # doubles of random weights drawn per block
MAXIMAL_TOL = 1e-9      # pressures this close to the top count as maximal


def word_length_potential(v: float) -> float:
    """The constant potential -v whose equilibrium state weighs all
    geodesics of equal length equally."""
    return -float(v)


def _weights(C: Component, psi) -> tuple:
    """The potential on each edge in C.edge_ids, whose ends are C.src and
    C.dst, its weight exp(psi - shift), rescaled so that the largest weight
    is 1, and the shift.  Raises ValueError when an array potential does
    not have one value per edge of the shift."""
    psi, n = np.asarray(psi, dtype=float), len(C.sft.edges)
    if psi.ndim and psi.shape != (n,):
        raise ValueError(f"potential has {psi.size} values; the shift has "
                         f"{n} edges")
    values = np.broadcast_to(psi, (n,))[C.edge_ids]
    shift = float(values.max())
    return values, np.exp(values - shift), shift


# ---------------------------------------------------------------------------
# Perron eigendata
# ---------------------------------------------------------------------------

def _perron(C: Component, src: np.ndarray, dst: np.ndarray, w: np.ndarray
            ) -> tuple[float, np.ndarray]:
    """Perron root and a positive right eigenvector, summing to 1, of the
    state matrix M[s, t] = sum of w(e) over the edges e from s to t, by
    power iteration with Collatz-Wielandt bracketing.  With src and dst
    swapped it gives the left eigenvector.

    M maps a vector on cyclic class j + 1 to one on class j, so its
    period-th power keeps class 0: the iteration runs there, and one
    product per class walks the vector back around the cycle.  Started
    from the uniform edge vector and scaled as the edge vector
    w(e) v(dst e) it stands for, the iterates of a constant potential are
    the edge matrix's, read at states, and so is the root.
    """
    k = len(C.states)
    on = C.phase == 0

    def product(v, times=1):  # M^times v, one term per edge and time
        for _ in range(times):
            v = np.bincount(src, w * v[dst], minlength=k)
        return v

    x = product(on / len(w), C.period)
    for _ in range(PERRON_ITMAX):
        s = (w * x[dst]).sum()
        if not np.isfinite(s) or s <= 0.0:
            raise NonConvergence("power iteration left the positive cone")
        u = x / s
        x = product(u, C.period)
        if (u[on] > 0).all():
            ratios = x[on] / u[on]
            lo, hi = ratios.min(), ratios.max()
            if hi - lo <= PERRON_TOL * max(hi, 1.0):
                break
    else:
        raise NonConvergence(
            f"power iteration did not converge within {PERRON_ITMAX} steps")
    lam = (0.5 * (lo + hi)) ** (1.0 / C.period)
    v = u
    for _ in range(C.period - 1):
        v = product(v) / lam
        u = u + v
    if (u <= 0).any():
        raise NonConvergence("eigenvector failed to be strictly positive")
    return lam, u / u.sum()


def pressure(C: Component, psi) -> float:
    """log of the Perron root of the potential-weighted transition matrix."""
    _, w, shift = _weights(C, psi)
    lam, _ = _perron(C, C.src, C.dst, w)
    return math.log(lam) + shift


# ---------------------------------------------------------------------------
# Parry-Gibbs measures
# ---------------------------------------------------------------------------

@dataclass
class MarkovMeasure:
    """Shift-invariant Markov measure attaining the pressure: it steps from
    an edge e to a node f that starts where e ends with probability p(f)."""

    component: Component
    potential: float | np.ndarray  # a constant, or a value per shift edge
    nodes: np.ndarray  # global edge ids, in the component's order
    src: np.ndarray  # source state of each node, numbered in sorted order
    dst: np.ndarray  # target state of each node
    p: np.ndarray  # step probability of each node from its source state
    pi: np.ndarray  # stationary law on the nodes
    pressure: float
    r: np.ndarray  # right Perron vector of exp(psi) on arrows, summing to 1

    memory = 1  # edges a node of the chain remembers


def parry_gibbs_measure(C: Component, psi) -> MarkovMeasure:
    """The Markov measure with transition weights proportional to
    exp(psi) times the right Perron data.

    With right and left Perron vectors u and l of the state matrix, the
    edge matrix has right vector r(e) ~ w(e) u(dst e) and left vector
    l(src e), so p(f) = w(f) u(dst f) / (lam u(src f)) and
    pi(e) = l(src e) w(e) u(dst e) / (lam <l, u>), which steps of the
    chain then polish.
    """
    _, w, shift = _weights(C, psi)
    src, dst = C.src, C.dst
    lam, u = _perron(C, src, dst, w)
    lam_l, l = _perron(C, dst, src, w)
    if abs(lam_l - lam) > 1e-9 * max(lam, 1.0):
        raise NonConvergence("left and right Perron roots disagree")

    k = len(C.states)
    wu = w * u[dst]
    p = wu / (lam * u[src])
    rows = np.bincount(src, p, minlength=k)
    if np.abs(rows - 1.0).max() > 1e-9:
        raise NonConvergence("transition matrix is not stochastic")
    p /= rows[src]

    def step(pi):  # the law on edges one step of the chain later
        return np.bincount(dst, pi, minlength=k)[src] * p

    pi = l[src] * wu / (l[src] * wu).sum()
    for _ in range(200):  # polish off the power iteration's error in l
        pi, last = step(pi), pi
        if np.abs(pi - last).sum() <= 1e-15:
            break
    pi /= pi.sum()
    if np.abs(step(pi) - pi).sum() > 1e-12:
        raise NonConvergence("stationary vector drifted")

    return MarkovMeasure(C, psi, C.edge_ids, src, dst, p, pi,
                         math.log(lam) + shift, wu / wu.sum())


def entropy(m: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy of the stationary Markov chain: pi(e)
    times the entropy of the step out of the state e ends in."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(m.p > 0, m.p * np.log(m.p), 0.0)
    h = np.bincount(m.src, plogp, minlength=len(m.component.states))
    return float(-(m.pi @ h[m.dst]))


def mean_potential(m: MarkovMeasure) -> float:
    """Integral of the potential against the measure."""
    return float(m.pi @ _weights(m.component, m.potential)[0])


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


def check_variational(C: Component, psi, trials: int = 200,
                      seed: int = 0) -> VariationalReport:
    """Entropy + integral of the potential, over random Markov measures on
    the component, never beats the pressure; the Parry-Gibbs measure
    attains it.

    A random measure is a chain on the k states that leaves each state by
    one of its edges, with weights drawn uniformly; its stationary law
    solves one k x k system.  Blocks of b trials, b k^2 <=
    VARIATIONAL_BLOCK, take one ``rng.random((b, E))`` and one batched
    solve; each trial's sums run in the one-trial order, so the best value
    is bit for bit the same."""
    m = parry_gibbs_measure(C, psi)
    parry_value = entropy(m) + mean_potential(m)
    gap = abs(m.pressure - parry_value)

    rng = make_rng(seed, stream=101)
    vals, _, _ = _weights(C, psi)
    src, dst = C.src, C.dst
    k, n = len(C.states), len(src)
    diag = np.arange(k)
    b = np.where(diag == k - 1, 1.0, 0.0)
    best = -math.inf
    per_block = max(1, VARIATIONAL_BLOCK // (k * k))
    for lo in range(0, trials, per_block):
        t = min(per_block, trials - lo)
        trial = np.arange(t)[:, None]
        w = rng.random((t, n)) + 1e-9
        out = np.zeros((t, k))
        np.add.at(out, (trial, src), w)  # in edge order, as np.bincount
        q = w / out[:, src]
        A = np.zeros((t, k, k))
        np.add.at(A, (trial, dst, src), q)  # the transposed state chain
        A[:, diag, diag] -= 1.0
        A[:, -1, :] = 1.0
        rho = np.abs(np.linalg.solve(A, b))
        rho /= rho.sum(axis=1)[:, None]
        rates = np.zeros((t, k))
        np.add.at(rates, (trial, src), q * np.log(q))
        means = (rho[:, src] * q * vals).sum(axis=1)
        for j in range(t):  # per trial, so the block size changes no bit
            best = max(best, float(-(rho[j] @ rates[j])) + float(means[j]))
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
    most n_max - 1 steps: per edge f, the least g and minus the greatest
    over the paths that end in f are propagated one step at a time, each
    step a min over the edges into each state.  The count is kept in
    Python integers, since on F2 it passes 2^63 at length 40.  Raises
    ValueError when `n_max` is below 1.
    """
    if n_max < 1:
        raise ValueError(f"cylinder length n_max must be at least 1, "
                         f"got {n_max}")
    k, src, dst = len(m.component.states), m.src, m.dst
    value = _weights(m.component, m.potential)[0]
    g = np.array([m.pi / m.r, -m.pi / m.r])
    for _ in range(n_max - 1):
        into = np.full((2, k), np.inf)
        np.minimum.at(into, (slice(None), dst), g)
        grown = np.minimum(g, into[:, src])
        if (grown == g).all():
            break
        g = grown
    lo, hi = (g * (m.r * np.exp(m.pressure - value))).min(axis=1)
    paths, count = np.ones(k, dtype=object), 0
    for _ in range(n_max):
        nxt = np.zeros(k, dtype=object)
        np.add.at(nxt, src, paths[dst])  # paths one edge longer per state
        count += int(nxt.sum())
        paths = nxt
    return GibbsReport(float(lo), float(-hi), count, n_max, m.pressure)


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
                       psi=0.0) -> MaximalPressure:
    """Components of maximal pressure under the potential psi, and whether
    none of them can reach another through the condensation."""
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


def growth_rate(aut, dec: Optional[ComponentDecomposition] = None,
                mp: Optional[MaximalPressure] = None) -> float:
    """Exponential growth rate of sphere sizes: the top zero-potential
    pressure over recurrent components, and exactly 0 for a finite group,
    which has none.  Warns when an infinite language grows
    subexponentially (an elementary group).  Reads `mp`, the zero-potential
    ``maximal_components`` of `dec`, or of the automaton's shift, where
    given."""
    if mp is None:
        if dec is None:
            dec = components(sft_from_automaton(aut))
        mp = maximal_components(dec)
    if not mp.maximal:  # no recurrent component
        return 0.0
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
