"""Mean distortion of one word metric against another.

Given a validated automaton for the metric d_S and a second generating set
S*, the average of |x|_{S*}/n over the uniform sphere of radius n settles,
as n grows, to the mean distortion tau(S*/S).  This module computes exact
small-sphere expectations, Monte Carlo estimates with a finite-size bias
guard, the growth-ratio inequality tau >= gr(S)/gr(S*), an empirical law
of large numbers, and a heuristic scan for rough similarity between the
two metrics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .automaton import GeodesicAutomaton, enumerate_sphere, sample_uniform_sphere
from .errors import EmptySphere
from .geometry import DEFAULT_BALL_BUDGET, ball_tree, word_length
from .groups import GroupElement, ResolvedGenSet
from .randomness import make_rng

__all__ = [
    "cross_lipschitz",
    "mean_distortion_exact",
    "mean_distortion_mc",
    "McRow",
    "TauEstimate",
    "check_growth_inequality",
    "InequalityVerdict",
    "lln_check",
    "LlnReport",
    "rough_similarity_scan",
    "SimilarityScan",
]

EXACT_BUDGET = 2_000_000  # sphere size and length-search states, exact means
SCAN_TOLERANCE = 0.5      # deviation gain per step still read as bounded


def cross_lipschitz(S: ResolvedGenSet, Sstar: ResolvedGenSet) -> int:
    """max over letters, in both directions, of the word length in the
    other generating set; a bi-Lipschitz constant between the two metrics."""
    lip = 1
    for x in S.elements:
        lip = max(lip, word_length(x, Sstar))
    for x in Sstar.elements:
        lip = max(lip, word_length(x, S))
    return lip


class _ForeignLength:
    """Length in S*, in one of two exact modes chosen from the input.

    ``tiling``: free groups whose S* consists of words of base length at
    most two, including every base letter, admit a linear factorization
    scan.  Some geodesic S*-word multiplies out with no cancellation
    between pieces (any cancelling pair of two-letter pieces can be
    rewritten as at most two shorter pieces), so the length is a minimum
    over tilings of the reduced word.  Every base letter is a piece, so a
    tiling that uses k two-letter pieces has length m - k on a word of
    length m, and the minimum is m minus the most disjoint two-letter
    windows of the word that are pieces.  Those windows all have length
    two, so taking the leftmost one that fits, over and over, is an optimal
    interval schedule: the count is what the non-overlapping leftmost
    matches of one compiled alternation of the two-letter pieces find.

    ``search``: everything else goes to :func:`word_length`, with a cap
    just above the cross-Lipschitz constant times the largest radius asked
    for, which no answer can exceed.
    """

    def __init__(self, S: ResolvedGenSet, Sstar: ResolvedGenSet, n_max: int,
                 budget: int = DEFAULT_BALL_BUDGET):
        self.Sstar = Sstar
        self.lip = cross_lipschitz(S, Sstar)
        self.cap = self.lip * n_max + 4
        self.budget = budget
        self.mode = "search"
        self.pairs = None
        spec = Sstar.group
        base_keys = {x.key for x in spec.resolve(None).elements}
        star_keys = {x.key for x in Sstar.elements}
        if (spec.family == "free" and S.is_base
                and base_keys <= star_keys
                and all(x.length() <= 2 for x in Sstar.elements)):
            # keys are reduced words as bytes, one byte per letter
            pairs = sorted(k for k in star_keys if len(k) == 2)
            if pairs:
                self.pairs = re.compile(b"|".join(map(re.escape, pairs)))
            self.mode = "tiling"

    def __call__(self, x: GroupElement) -> int:
        if self.mode == "tiling":
            key = x.key
            if self.pairs is None:
                return len(key)
            return len(key) - len(self.pairs.findall(key))
        return word_length(x, self.Sstar, self.cap, self.budget)


# ---------------------------------------------------------------------------
# Exact and Monte Carlo expectations
# ---------------------------------------------------------------------------

def mean_distortion_exact(aut: GeodesicAutomaton, Sstar: ResolvedGenSet,
                          n_max: int) -> list[Fraction]:
    """Exact expectation of |x|_{S*} over the uniform sphere of each radius
    n <= n_max, as exact rationals; entry 0 is 0.  Raises EmptySphere when
    one of those spheres has no elements."""
    length = _ForeignLength(aut.genset, Sstar, n_max, EXACT_BUDGET)
    out = [Fraction(0)]
    for n in range(1, n_max + 1):
        total = 0
        count = 0
        for x in enumerate_sphere(aut, n, budget=EXACT_BUDGET):
            total += length(x)
            count += 1
        if count == 0:
            raise EmptySphere(f"no elements at distance {n}")
        out.append(Fraction(total, count))
    return out


@dataclass
class McRow:
    n: int
    mean: float      # of |x|_{S*} / n
    stderr: float
    samples: int


@dataclass
class TauEstimate:
    rows: list
    tau_hat: float
    half_width: float
    seed: int

    def row(self, n: int) -> McRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)


def mean_distortion_mc(aut: GeodesicAutomaton, Sstar: ResolvedGenSet,
                       n_list: Sequence[int], samples: int,
                       seed: int = 0) -> TauEstimate:
    """Sample means of |x|_{S*}/n over uniform spheres.

    tau_hat is the mean at the largest n; its half-width adds three standard
    errors to the spread between the two largest radii, a guard against the
    finite-n bias that no variance estimate can see.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples per radius")
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("sphere radii must be positive")
    length = _ForeignLength(aut.genset, Sstar, n_list[-1])
    rows = []
    for i, n in enumerate(n_list):
        rng = make_rng(seed, stream=1000 + i)
        xs = sample_uniform_sphere(aut, n, rng, count=samples)
        vals = [length(x) / n for x in xs]
        mean = sum(vals) / samples
        var = sum((v - mean) ** 2 for v in vals) / (samples - 1)
        rows.append(McRow(n, mean, math.sqrt(var / samples), samples))
    tau_hat = rows[-1].mean
    spread = abs(rows[-1].mean - rows[-2].mean) if len(rows) >= 2 else 0.0
    return TauEstimate(rows, tau_hat, 3.0 * rows[-1].stderr + spread, seed)


# ---------------------------------------------------------------------------
# Growth inequality
# ---------------------------------------------------------------------------

@dataclass
class InequalityVerdict:
    tau_hat: float
    half_width: float
    gr_s: float
    gr_sstar: float
    ratio: float
    margin: float
    passed: bool


def check_growth_inequality(tau: TauEstimate, gr_s: float,
                            gr_sstar: float) -> InequalityVerdict:
    """tau(S*/S) can never fall below gr(S)/gr(S*); PASS when the estimate
    plus its half-width clears that bar (tolerance 1e-6).  Raises
    EmptySphere when gr(S*) is 0, since the spheres of a finite group run
    out and the bar is undefined."""
    if gr_sstar <= 0.0:
        raise EmptySphere("gr(S*) is 0: the spheres run out and the growth "
                          "ratio is undefined")
    ratio = gr_s / gr_sstar
    margin = tau.tau_hat - ratio
    passed = tau.tau_hat + tau.half_width >= ratio - 1e-6
    return InequalityVerdict(tau.tau_hat, tau.half_width, gr_s, gr_sstar,
                             ratio, margin, passed)


# ---------------------------------------------------------------------------
# Law of large numbers
# ---------------------------------------------------------------------------

@dataclass
class LlnReport:
    n_list: list
    eps_list: list
    samples: int
    fractions: dict            # (n, eps) -> outlier fraction
    monotone: dict             # eps -> bool, nonincreasing within noise
    seed: int


def lln_check(aut: GeodesicAutomaton, Sstar: ResolvedGenSet, tau_hat: float,
              n_list: Sequence[int] = (10, 20, 40),
              eps_list: Sequence[float] = (0.02, 0.05, 0.1),
              samples: int = 10_000, seed: int = 0) -> LlnReport:
    """Fraction of uniform sphere samples with | |x|_{S*} - n tau_hat | > eps n,
    per radius and epsilon, with a per-epsilon trend verdict: nonincreasing
    from each n to the next within twice the combined binomial deviation."""
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("sphere radii must be positive")
    eps_list = list(eps_list)
    length = _ForeignLength(aut.genset, Sstar, n_list[-1])
    fractions = {}
    for i, n in enumerate(n_list):
        rng = make_rng(seed, stream=2000 + i)
        xs = sample_uniform_sphere(aut, n, rng, count=samples)
        devs = [abs(length(x) - n * tau_hat) / n for x in xs]
        for eps in eps_list:
            outliers = sum(1 for d in devs if d > eps)
            fractions[(n, eps)] = outliers / samples
    monotone = {}
    for eps in eps_list:
        ok = True
        for a, b in zip(n_list, n_list[1:]):
            fa, fb = fractions[(a, eps)], fractions[(b, eps)]
            sa = math.sqrt(fa * (1 - fa) / samples)
            sb = math.sqrt(fb * (1 - fb) / samples)
            if fb > fa + 2.0 * math.hypot(sa, sb):
                ok = False
        monotone[eps] = ok
    return LlnReport(list(n_list), eps_list, samples, fractions, monotone, seed)


# ---------------------------------------------------------------------------
# Rough-similarity scan
# ---------------------------------------------------------------------------

@dataclass
class SimilarityScan:
    tau: float
    radii: list
    deviations: list           # max over the sphere of | |x|_{S*} - tau r |
    witnesses: list            # a word attaining each maximum
    verdict: str               # BOUNDED-LOOKING or GROWING
    tolerance: float


def rough_similarity_scan(S: ResolvedGenSet, Sstar: ResolvedGenSet,
                          tau: float, R: int) -> SimilarityScan:
    """Scan all spheres up to radius R for the worst additive deviation
    from |x|_{S*} = tau |x|_S.

    Rough similarity of the metrics would keep the deviations bounded; the
    verdict is BOUNDED-LOOKING when the last third of the sequence gains no
    more than SCAN_TOLERANCE per step, GROWING otherwise.  A heuristic
    read on finite data, not a proof either way.  A finite group's scan
    stops at its last nonempty sphere.
    """
    if R < 1:
        raise ValueError("scan radius must be at least 1")
    length = _ForeignLength(S, Sstar, R)
    tree = ball_tree(S, R)
    last = tree.radius()
    if tree.sphere_size(last) == 0:  # a finite group ran out of spheres
        last -= 1
    R = min(R, last)
    deviations = [0.0] * (R + 1)
    witnesses = [""] * (R + 1)
    for r in range(1, R + 1):
        for i in range(tree.layer_bounds[r], tree.layer_bounds[r + 1]):
            dev = abs(length(GroupElement(S.group, tree.keys[i])) - tau * r)
            if dev > deviations[r]:
                deviations[r] = dev
                witnesses[r] = " ".join(S.letters[li]
                                        for li in tree.tree_word(i))
    deviations = deviations[1:]
    witnesses = witnesses[1:]
    start = max(1, (2 * R) // 3)
    worst_step = 0.0
    for i in range(start, R):
        worst_step = max(worst_step, deviations[i] - deviations[i - 1])
    verdict = "BOUNDED-LOOKING" if worst_step <= SCAN_TOLERANCE else "GROWING"
    return SimilarityScan(tau, list(range(1, R + 1)), deviations, witnesses,
                          verdict, SCAN_TOLERANCE)

