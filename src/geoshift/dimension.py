"""Typical rays, drift, and boundary-dimension estimates.

A Parry measure on a maximal component induces a law on geodesic rays from
the identity.  Sampling those rays gives the drift of a second word metric
along them; combining the drift with the growth rate estimates the
Hausdorff dimension of the sphere-counting boundary measure in the gauge
of the second metric.  A scan of sphere counts against the growth rate
checks that the counts stay within exponential envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .automaton import SAMPLE_BLOCK, GeodesicAutomaton, sphere_count
from .distortion import _ForeignLength
from .errors import EmptySphere
from .groups import ResolvedGenSet
from .randomness import make_rng
from .thermo import MarkovMeasure, growth_rate

__all__ = [
    "drift",
    "DriftEstimate",
    "ps_dimension_estimate",
    "DimensionEstimate",
    "regular_growth_check",
    "RegularGrowth",
]


def _ray_chain(m: MarkovMeasure):
    """The automaton behind the measure, and the law of the first edge: the
    stationary distribution.  Construction prunes the states the start state
    cannot reach, so every edge of the component heads a geodesic."""
    aut = m.component.sft.automaton
    if aut is None:
        raise ValueError("the measure's shift is not backed by an automaton")
    return aut, m.pi / m.pi.sum()


def _walk(m: MarkovMeasure, aut, entry: np.ndarray, n: int, rng,
          count: int) -> np.ndarray:
    """Length-n prefixes of `count` typical geodesic rays from the
    identity: a (count, n) matrix, the letter indices of each ray's n
    edges.  The first edge is drawn from `entry`, the rest from the Markov
    chain; ``automaton._prefix_key`` gives the element a prefix ends at.

    The walk takes its uniforms in one ``rng.random((count, n + 1))``
    call, which yields the same doubles and leaves the same generator
    state as `count` calls of ``rng.random(n + 1)``, one per ray (the last
    uniform of a ray picks an edge its prefix does not use).  Each step
    then counts, for every ray at once, the entries of the cumulative step
    law of its state, one per letter, that are at most its uniform (< 1)
    times the total: where a bisection of that row lands, a letter of
    positive probability.  A walk that meets an absorbing defect raises
    EmptySphere, having drawn all its uniforms."""
    letters = np.empty((count, n), dtype=np.intp)
    if n == 0:
        return letters
    edges, last = m.component.sft.edges, len(entry) - 1
    src, letter, dst = np.array([edges[v] for v in m.nodes], dtype=np.intp).T
    u = rng.random((count, n + 1))
    j = np.minimum(np.searchsorted(np.cumsum(entry), u[:, 0], side="right"),
                   last)
    cum = np.zeros(aut.table.shape)
    cum[src, letter] = m.p
    cum = np.cumsum(cum, axis=1)
    a, s = letter[j], dst[j]
    for k in range(1, n + 1):
        letters[:, k - 1] = a
        rows = cum[s]
        if (rows[:, -1] <= 0.0).any():
            raise EmptySphere("the chain reached an absorbing defect")
        a = np.count_nonzero(rows <= (u[:, k] * rows[:, -1])[:, None], axis=1)
        s = aut.table[s, a]
    return letters


def _rays(m: MarkovMeasure, n: int, count: int, rng):
    """The walks of `count` rays of length n, SAMPLE_BLOCK rays each."""
    aut, entry = _ray_chain(m)
    for lo in range(0, count, SAMPLE_BLOCK):
        yield _walk(m, aut, entry, n, rng, min(SAMPLE_BLOCK, count - lo))


@dataclass
class DriftEstimate:
    n: int
    samples: int
    mean: float
    stderr: float
    seed: int


def drift(m: MarkovMeasure, Sstar: ResolvedGenSet, n: int, samples: int,
          seed: int = 0) -> DriftEstimate:
    """Mean of |x_n|_{S*} / n over sampled rays; the almost-sure limit of
    that ratio is the drift of d_{S*} along typical d_S-geodesics."""
    if n < 1 or samples < 1:
        raise ValueError("need a positive ray length and at least one ray")
    aut, _ = _ray_chain(m)
    length = _ForeignLength(aut.genset, Sstar)
    vals = [L / n for words in _rays(m, n, samples, make_rng(seed, stream=317))
            for L in length.lengths(aut, words)]
    mean = sum(vals) / samples
    var = (sum((v - mean) ** 2 for v in vals) / (samples - 1)
           if samples > 1 else 0.0)
    return DriftEstimate(n, samples, mean, math.sqrt(var / samples), seed)


# ---------------------------------------------------------------------------
# Dimension estimate
# ---------------------------------------------------------------------------

@dataclass
class DimensionEstimate:
    gr_s: float
    drift: DriftEstimate
    dim_hat: float
    width: float
    diagnostics: list        # rows (ray, k, |x_k|_{S*}, local_dim)
    seed: int


def ps_dimension_estimate(aut_s: GeodesicAutomaton, Sstar: ResolvedGenSet,
                          m: MarkovMeasure, n: int = 32, samples: int = 200,
                          seed: int = 0, diag_rays: int = 8) -> DimensionEstimate:
    """Dimension of the sphere-counting boundary measure of d_S in the
    gauge of d_{S*}: growth rate divided by the drift along typical rays.

    The confidence width propagates three standard errors of the drift
    through the quotient.  Diagnostics list per-ray local-dimension values
    gr_S * k / |x_k|_{S*} at quarter points of a few sampled rays.
    """
    gr_s = growth_rate(aut_s)
    est = drift(m, Sstar, n, samples, seed)
    if est.mean <= 0.0:
        raise EmptySphere("drift estimate vanished; no dimension estimate")
    dim_hat = gr_s / est.mean
    width = gr_s * (3.0 * est.stderr) / (est.mean ** 2)

    aut, _ = _ray_chain(m)
    length = _ForeignLength(aut_s.genset, Sstar)
    ks = sorted({max(1, (n * q) // 4) for q in (1, 2, 3, 4)})
    diagnostics = []
    for words in _rays(m, n, diag_rays, make_rng(seed, stream=337)):
        # per ray, its lengths at each k
        for lks in zip(*(length.lengths(aut, words[:, :k]) for k in ks)):
            ri = len(diagnostics) // len(ks)
            for k, lk in zip(ks, lks):
                local = gr_s * k / lk if lk > 0 else math.inf
                diagnostics.append((ri, k, lk, local))
    return DimensionEstimate(gr_s, est, dim_hat, width, diagnostics, seed)


# ---------------------------------------------------------------------------
# Regular growth
# ---------------------------------------------------------------------------

@dataclass
class RegularGrowth:
    rate: float
    n_min: int
    n_max: int
    values: list             # sphere_count(n) * exp(-rate * n)
    c1: float
    c2: float


def regular_growth_check(aut: GeodesicAutomaton, n_max: int,
                         n_min: int = 1,
                         v: Optional[float] = None) -> RegularGrowth:
    """Scan sphere_count(n) e^{-v n}: for a hyperbolic group the values
    stay pinched between positive constants.  `v` is the automaton's
    growth rate, computed here where not given."""
    if n_max < n_min:
        raise ValueError("empty radius range")
    if v is None:
        v = growth_rate(aut)
    values = []
    for n in range(n_min, n_max + 1):
        count = sphere_count(aut, n)
        try:
            values.append(float(count) * math.exp(-v * n))
        except OverflowError:  # past the largest float: scale in logs
            values.append(math.exp(math.log(count) - v * n))
    return RegularGrowth(v, n_min, n_max, values, min(values), max(values))
