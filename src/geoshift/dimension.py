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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .automaton import GeodesicAutomaton, sphere_count
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


def _walk(m: MarkovMeasure, aut, entry: np.ndarray, n: int, rng) -> list:
    """A length-n prefix of a typical geodesic ray from the identity: the
    letter indices of its n edges.  The first edge is drawn from `entry`,
    the rest from the Markov chain; :func:`_prefix_key` gives the element
    a prefix ends at.

    The walk takes its n + 1 uniforms in one ``rng.random(n + 1)`` call,
    which yields the same doubles and leaves the same generator state as
    n + 1 scalar calls (the last uniform picks an edge the prefix does not
    use); a walk that raises EmptySphere has still drawn all of them.  Each
    step is then a bisection of the row's cumulative sums."""
    if n == 0:
        return []
    edges, nodes = m.component.sft.edges, m.nodes
    u = rng.random(n + 1).tolist()
    j = min(bisect_right(np.cumsum(entry).tolist(), u[0]), len(entry) - 1)
    cum_rows = m._cum_rows  # built once per measure, not once per ray
    letters = []
    for k in range(1, n + 1):
        letters.append(edges[nodes[j]][1])
        cum = cum_rows[j]
        if cum[-1] <= 0.0:
            raise EmptySphere("the chain reached an absorbing defect")
        j = min(bisect_right(cum, u[k] * cum[-1]), len(cum) - 1)
    return letters


def _prefix_key(aut):
    """The engine key of the element a list of letter indices spells: one
    ``engine.from_word`` of their base spellings, as
    :func:`sample_uniform_sphere` takes each sample's key."""
    eng = aut.group.engine
    spelled = [eng.to_word(e.key) for e in aut.genset.elements]
    return lambda letters: eng.from_word(
        [c for li in letters for c in spelled[li]])


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
    aut, entry = _ray_chain(m)
    length = _ForeignLength(aut.genset, Sstar)
    key = _prefix_key(aut)
    rng = make_rng(seed, stream=317)
    vals = [length(key(_walk(m, aut, entry, n, rng))) / n
            for _ in range(samples)]
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

    aut, entry = _ray_chain(m)
    length = _ForeignLength(aut_s.genset, Sstar)
    key = _prefix_key(aut)
    rng = make_rng(seed, stream=337)
    ks = sorted({max(1, (n * q) // 4) for q in (1, 2, 3, 4)})
    diagnostics = []
    for ri in range(diag_rays):
        letters = _walk(m, aut, entry, n, rng)
        for k in ks:
            lk = length(key(letters[:k]))
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
                         n_min: int = 1) -> RegularGrowth:
    """Scan sphere_count(n) e^{-v n}: for a hyperbolic group the values
    stay pinched between positive constants."""
    if n_max < n_min:
        raise ValueError("empty radius range")
    v = growth_rate(aut)
    values = []
    for n in range(n_min, n_max + 1):
        count = sphere_count(aut, n)
        try:
            values.append(float(count) * math.exp(-v * n))
        except OverflowError:  # past the largest float: scale in logs
            values.append(math.exp(math.log(count) - v * n))
    return RegularGrowth(v, n_min, n_max, values, min(values), max(values))
