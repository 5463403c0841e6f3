"""The Perron layer on the dense edge graph, kept as the tests' oracle.

This is the edge-level code that `geoshift.thermo` ran before it moved to
the state graph: an E x E arrow matrix over the component's edges, power
iteration on it (on the period-th power restricted to one cyclic class
when the period exceeds 1), the dense Parry chain, its stationary law by
iteration, and the Gibbs constants from boolean powers of the edge
support.  It needs O(E^2) memory, so the tests run it on small components
only.
"""

import math
from dataclasses import dataclass

import numpy as np

from geoshift.errors import NonConvergence
from geoshift.thermo import PERRON_ITMAX, PERRON_TOL


def _edge_graph(C, psi):
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


def _power_primitive(B):
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


def _perron(W, period, phase):
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


def _weight_matrix(support, arrows):
    """exp(psi) arranged on arrows, rescaled so the largest entry is 1."""
    finite = arrows[support]
    shift = float(finite.max()) if finite.size else 0.0
    W = np.zeros_like(arrows)
    W[support] = np.exp(finite - shift)
    return W, shift


def dense_pressure(C, psi):
    """log of the Perron root of the potential-weighted edge matrix."""
    support, arrows, phase = _edge_graph(C, psi)
    W, shift = _weight_matrix(support, arrows)
    lam, _ = _perron(W, C.period, phase)
    return math.log(lam) + shift


@dataclass
class DenseMeasure:
    """The Parry chain on edges: P is E x E, pi and r are per edge."""

    nodes: list
    P: np.ndarray
    pi: np.ndarray
    pressure: float
    psi_arrows: np.ndarray  # potential value per arrow, -inf off support
    support: np.ndarray
    r: np.ndarray


def dense_parry(C, psi):
    """The Markov measure with transition weights proportional to
    exp(psi) times the right Perron data, on the dense edge graph."""
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

    return DenseMeasure(list(C.edge_ids), P, pi, math.log(lam) + shift,
                        arrows, support, r)


def dense_entropy(d):
    """Kolmogorov-Sinai entropy of the stationary Markov chain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(d.P > 0, d.P * np.log(d.P), 0.0)
    return float(-(d.pi @ plogp.sum(axis=1)))


def dense_mean_potential(d):
    """Integral of the potential against the measure."""
    vals = np.where(d.support, d.psi_arrows, 0.0)
    return float((d.pi[:, None] * d.P * vals).sum())


def dense_gibbs_constants(d, psi, n_max):
    """The least and greatest g(e) h(f) over the pairs of edges joined by a
    path of at most n_max - 1 steps, from boolean powers of the support."""
    value = np.array([psi.value(e) for e in d.nodes], dtype=float)
    reach = np.eye(len(d.nodes), dtype=bool)
    for _ in range(n_max - 1):
        grown = reach | (reach @ d.support)
        if (grown == reach).all():
            break
        reach = grown
    ratios = np.outer(d.pi / d.r, d.r * np.exp(d.pressure - value))[reach]
    return float(ratios.min()), float(ratios.max())


def step_matrix(m):
    """The E x E transition matrix of a state-level measure: row e holds
    p(f) at every f that starts where e ends, in the component's order."""
    return np.where(m.dst[:, None] == m.src[None, :], m.p[None, :], 0.0)
