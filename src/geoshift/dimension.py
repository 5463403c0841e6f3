"""Typical rays, shadow masses, and boundary-dimension estimates.

A Parry measure on a maximal component induces a law on geodesic rays from
the identity.  Sampling those rays gives the drift of a second word metric
along them; combining the drift with the growth rate estimates the
Hausdorff dimension of the sphere-counting boundary measure in the gauge
of the second metric.  Shadow masses are computed exactly as rationals by
counting sphere points whose Gromov product with a fixed element clears a
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import GeodesicAutomaton, sphere_count
from .errors import EmptySphere
from .geometry import ball_tree, word_length
from .groups import GroupElement, ResolvedGenSet
from .randomness import make_rng
from .thermo import MarkovMeasure, growth_rate

__all__ = [
    "RaySample",
    "sample_ray",
    "drift",
    "DriftEstimate",
    "shadow_mass",
    "ps_dimension_estimate",
    "DimensionEstimate",
    "regular_growth_check",
    "RegularGrowth",
]


@dataclass
class RaySample:
    """A length-n prefix of a typical geodesic ray."""

    edge_ids: list           # global edge ids along the path
    trail: list              # group elements o = x_0, x_1, ..., x_n
    letters: list            # letter indices spelling the ray

    @property
    def n(self) -> int:
        return len(self.edge_ids)


def _ray_chain(m: MarkovMeasure):
    """Entry distribution and stepping data for ray sampling."""
    sft = m.component.sft
    aut = sft.automaton
    if aut is None:
        raise ValueError("the measure's shift is not backed by an automaton")
    # Only edges whose source can be reached from the start state head a
    # geodesic; construction prunes unreachable states, so normally all.
    reachable = set(aut.states)
    entry = np.array([
        float(p) if sft.edges[e][0] in reachable else 0.0
        for e, p in zip(m.nodes, m.pi)
    ])
    total = entry.sum()
    if total <= 0.0:
        raise EmptySphere("no edge of the component is reachable from the start state")
    entry /= total
    return aut, entry


def _walk(m: MarkovMeasure, aut, entry: np.ndarray, n: int, rng) -> RaySample:
    sft = m.component.sft
    T = aut.genset
    cum_entry = np.cumsum(entry)
    trail = [aut.group.identity()]
    edge_ids: list[int] = []
    letters: list[int] = []
    if n == 0:
        return RaySample(edge_ids, trail, letters)
    j = int(np.searchsorted(cum_entry, rng.random(), side="right"))
    j = min(j, len(entry) - 1)
    for _ in range(n):
        e = m.nodes[j]
        li = sft.edges[e][1]
        edge_ids.append(e)
        letters.append(li)
        trail.append(trail[-1] * T.elements[li])
        row = m.P[j]
        cum = np.cumsum(row)
        if cum[-1] <= 0.0:
            raise EmptySphere("the chain reached an absorbing defect")
        r = rng.random() * cum[-1]
        j = int(np.searchsorted(cum, r, side="right"))
        j = min(j, len(row) - 1)
    return RaySample(edge_ids, trail, letters)


def sample_ray(m: MarkovMeasure, n: int, seed: int = 0) -> RaySample:
    """One typical ray prefix: the first edge from the stationary
    distribution (restricted to reachable edges), then the Markov chain."""
    aut, entry = _ray_chain(m)
    rng = make_rng(seed, stream=313)
    return _walk(m, aut, entry, n, rng)


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
    from .distortion import _ForeignLength

    aut, entry = _ray_chain(m)
    length = _ForeignLength(aut.genset, Sstar, n)
    rng = make_rng(seed, stream=317)
    vals = []
    for _ in range(samples):
        ray = _walk(m, aut, entry, n, rng)
        vals.append(length(ray.trail[-1]) / n)
    mean = sum(vals) / samples
    var = (sum((v - mean) ** 2 for v in vals) / (samples - 1)
           if samples > 1 else 0.0)
    return DriftEstimate(n, samples, mean, math.sqrt(var / samples), seed)


# ---------------------------------------------------------------------------
# Shadows
# ---------------------------------------------------------------------------

def shadow_mass(aut: GeodesicAutomaton, x: GroupElement, R: int, n: int,
                delta: Fraction = Fraction(0)) -> Fraction:
    """Mass, under uniform counting on the sphere of radius n, of the
    shadow cast by the ball B(x, R): the fraction of sphere points y with
    (x|y) >= |x| - R', R' = R + 2*delta.

    The Gromov-product test is equivalent to d(x, y) <= n - |x| + 2R', so
    the count enumerates the small ball around x rather than the sphere.
    Exact rational; `delta` should come from a hyperbolicity estimate for
    the comparison to be geometrically meaningful.
    """
    T = aut.genset
    k = word_length(x, T)
    if n < k + R:
        raise ValueError("the sphere radius must be at least |x| + R")
    two_r_prime = 2 * R + 4 * Fraction(delta)
    c = n - k + int(two_r_prime // 1)
    reach = ball_tree(T, c)
    eng = aut.group.engine
    hits = 0
    cap = k + c + 1
    for key in reach.keys:
        y = GroupElement(aut.group, eng.mult(x.key, key))
        if word_length(y, T, cap=cap) == n:
            hits += 1
    return Fraction(hits, sphere_count(aut, n))


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

    def summary(self) -> str:
        return (f"dim_hat = gr / drift = {self.gr_s:.9g} / "
                f"{self.drift.mean:.9g} = {self.dim_hat:.9g} "
                f"(width {self.width:.3g})")


def ps_dimension_estimate(aut_s: GeodesicAutomaton, Sstar: ResolvedGenSet,
                          m: MarkovMeasure, n: int = 32, samples: int = 200,
                          seed: int = 0, diag_rays: int = 8) -> DimensionEstimate:
    """Dimension of the sphere-counting boundary measure of d_S in the
    gauge of d_{S*}: growth rate divided by the drift along typical rays.

    The confidence width propagates three standard errors of the drift
    through the quotient.  Diagnostics list per-ray local-dimension values
    gr_S * k / |x_k|_{S*} at quarter points of a few sampled rays.
    """
    from .distortion import _ForeignLength

    gr_s = growth_rate(aut_s)
    est = drift(m, Sstar, n, samples, seed)
    if est.mean <= 0.0:
        raise EmptySphere("drift estimate vanished; no dimension estimate")
    dim_hat = gr_s / est.mean
    width = gr_s * (3.0 * est.stderr) / (est.mean ** 2)

    aut, entry = _ray_chain(m)
    length = _ForeignLength(aut_s.genset, Sstar, n)
    rng = make_rng(seed, stream=337)
    ks = sorted({max(1, (n * q) // 4) for q in (1, 2, 3, 4)})
    diagnostics = []
    for ri in range(diag_rays):
        ray = _walk(m, aut, entry, n, rng)
        for k in ks:
            lk = length(ray.trail[k])
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

    def summary(self) -> str:
        return (f"sphere_count(n) e^(-{self.rate:.6g} n) in "
                f"[{self.c1:.9g}, {self.c2:.9g}] for n in "
                f"[{self.n_min}, {self.n_max}]")


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
        values.append(float(count) * math.exp(-v * n))
    return RegularGrowth(v, n_min, n_max, values, min(values), max(values))
