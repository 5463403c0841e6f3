"""Mean distortion of one word metric against another.

Given a validated automaton for the metric d_S and a second generating set
S*, the average of |x|_{S*}/n over the uniform sphere of radius n settles,
as n grows, to the mean distortion tau(S*/S).  This module computes tau
itself from the band product where a band of radius 1 gives exact lengths,
Monte Carlo estimates with a finite-size bias guard, the growth-ratio
inequality tau >= gr(S)/gr(S*), and an empirical law of large numbers.
The exact small-sphere expectations and a heuristic scan for rough
similarity between the two metrics reduce one stream of spheres: the band
product's layers, or the spheres of the breadth-first ball.  Neither reads
the words of an automaton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .automaton import (GeodesicAutomaton, _prefix_key,
                        sample_uniform_sphere, sphere_count)
from .errors import EmptySphere, ResourceLimit
from .geometry import ball_tree, word_length
from .groups import GroupElement, ResolvedGenSet
from .randomness import make_rng
from .sft import Sft, components
from .thermo import (maximal_components, parry_gibbs_measure,
                     word_length_potential)

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

EXACT_BUDGET = 2_000_000  # sphere size, exact means of a search pair
SCAN_TOLERANCE = 0.5      # deviation gain per step still read as bounded


def cross_lipschitz(S: ResolvedGenSet, Sstar: ResolvedGenSet) -> int:
    """max over letters, in both directions, of the word length in the
    other generating set; a bi-Lipschitz constant between the two metrics."""
    lip = 1
    for A, B in ((S, Sstar), (Sstar, S)):
        length = _ForeignLength(A, B)
        lip = max(lip, *(length(x.key) for x in A.elements))
    return lip


class _ForeignLength:
    """Length in S*, in one of two exact modes chosen from the input.

    ``band``: the pair's :class:`_BandProduct`.  Its band of radius 1 is
    exact when S is the base set of a free group, or of a free product of
    finite groups whose nontrivial factor elements are all letters; every
    base letter is an S*-letter; and every S*-letter has base length at
    most 2.  Then Cay(G, S) is a tree of complete pieces, and each interior
    vertex c of the S-geodesic [e, x] separates e from x.  An S*-step spans
    at most two S-edges, so an S*-path passes c: it visits c or steps
    between two neighbours of c.  Between its first and last passage of c
    an S*-geodesic runs from u to w, both within distance 1 of c; if it
    leaves the band there, it takes at least two steps, and at most two
    base letters through c replace them.  So some S*-geodesic passes the
    vertices of [e, x] in order and stays in the band.

    ``search``: every other pair goes to :func:`word_length`, an exact A*
    search.
    """

    def __init__(self, S: ResolvedGenSet, Sstar: ResolvedGenSet):
        self.Sstar = Sstar
        spec = Sstar.group
        star_keys = {x.key for x in Sstar.elements}
        pieces = spec.family == "free" or (spec.family == "free_product"
                                           and spec.engine.unit_syllables)
        if (S.is_base and pieces and {x.key for x in S.elements} <= star_keys
                and all(x.length() <= 2 for x in Sstar.elements)):
            self.mode = "band"
            self.band = _band_product(
                spec, *(tuple(x.key for x in T.elements) for T in (S, Sstar)))
        else:
            self.mode = "search"
            self.band = None

    def __call__(self, key) -> int:
        """Length in S* of the element with this engine key."""
        if self.band is not None:
            return self.band.length(key)
        return word_length(GroupElement(self.Sstar.group, key), self.Sstar)

    def lengths(self, aut: GeodesicAutomaton, words: np.ndarray) -> list:
        """Lengths in S* of the elements the rows of `words` spell: paths
        of `aut`, an automaton of S, as letter indices.  A band pair reads
        the rows themselves, a search pair the key of each."""
        if self.band is not None:
            return self.band.lengths(words)
        key = _prefix_key(aut)
        return [self(key(row)) for row in words.tolist()]

    def layers(self, S: ResolvedGenSet, R: int,
               aut: GeodesicAutomaton | None = None):
        """The spheres of S of radius 1, 2, ... until a finite group runs
        out, as lists of nodes (count, sum of lengths, (-max, word), (min,
        word)) like those of :meth:`_BandProduct.layers`, which a band pair
        returns.  A search pair reads the breadth-first ball of radius R,
        one node per sphere, after checking those spheres against
        EXACT_BUDGET if `aut`, an automaton of S, is given."""
        if self.band is not None:
            return self.band.layers()
        if aut is not None:
            for n in range(1, R + 1):
                if sphere_count(aut, n) > EXACT_BUDGET:
                    raise ResourceLimit(f"sphere of radius {n} exceeds "
                                        f"budget {EXACT_BUDGET}")
        return self._spheres(ball_tree(S, R))

    def _spheres(self, tree):
        # A sphere lists its keys in shortlex order of their tree words, so
        # the first key of an extreme length has the lex-first word.
        for r in range(1, tree.radius() + 1):
            lo, hi = tree.layer_bounds[r:r + 2]
            if lo == hi:  # a finite group ran out of spheres
                return
            lengths = [self(key) for key in tree.keys[lo:hi]]
            top, low = max(lengths), min(lengths)
            yield [(hi - lo, sum(lengths),
                    (-top, tree.tree_word(lo + lengths.index(top))),
                    (low, tree.tree_word(lo + lengths.index(low))))]


class _BandProduct:
    """The band transducer of a pair in step with the acceptor of its keys.

    The transducer reads the key of x, an S-geodesic word, one letter at a
    time.  After a prefix p its row holds, for each d in the radius-1
    S-ball, the shortest S*-path to p.d within S-distance 1 of the
    prefixes, less the row's minimum, whose rise is the step's increment.
    ``steps[q][b]`` is the next row and the increment of row q on letter
    index b, rows numbered breadth-first from the start row 0.  The length
    is the sum of the increments plus ``tails[q]``, the last row's value at
    e.  The acceptor ``follow`` lists per letter a the letters b with
    |ab|_S = 2, then all letters, for the start, and the keys are the paths
    of the product from (start, 0); its nodes are (last letter, row) pairs.
    ``index`` maps the syllables a free product's keys spell to letter
    indices; it is None where keys are bytes of letter indices.
    """

    def __init__(self, group, keys: tuple, stars: tuple):
        eng = group.engine
        mult = eng.mult
        ball = [eng.identity, *keys]

        def relax(g: dict) -> dict:  # shortest S*-paths among g's elements
            changed = True
            while changed:
                changed = False
                for x in g:
                    for y in (mult(x, s) for s in stars):
                        if g[x] + 1 < g.get(y, -1):
                            g[y] = g[x] + 1
                            changed = True
            return g

        far = 1 << 30  # not reached yet
        # each row and its number; every base letter is an S*-letter
        rows = {(0,) + (1,) * len(keys): 0}
        self.steps = []
        while len(self.steps) < len(rows):  # the next row in the order found
            r = list(rows)[len(self.steps)]
            self.steps.append([])
            for a in ball[1:]:
                shifted = [mult(a, d) for d in ball]
                g = relax(dict.fromkeys(shifted, far) | dict(zip(ball, r)))
                low = min(g[y] for y in shifted)
                row = tuple(g[y] - low for y in shifted)
                self.steps[-1].append((rows.setdefault(row, len(rows)), low))
        self.tails = [r[0] for r in rows]
        nxt_inc = np.array(self.steps, dtype=np.intp).reshape(-1, 2).T
        self._flat = (*nxt_inc, np.array(self.tails))  # at row*letters+letter
        letters = range(len(keys))
        self.follow = [[b for b in letters
                        if eng.length(mult(a, keys[b])) == 2]
                       for a in keys] + [letters]
        spelled = [k[0] for k in keys]
        self.index = (None if spelled == list(letters)
                      else dict(zip(spelled, letters)))

    @classmethod
    def of(cls, S: ResolvedGenSet, Sstar: ResolvedGenSet) -> _BandProduct:
        """The pair's band product; raises ValueError on a search pair."""
        band = _ForeignLength(S, Sstar).band
        if band is None:
            raise ValueError(f"no band product from {S.name} to {Sstar.name}")
        return band

    def length(self, key) -> int:
        """Length in S* of the element with this engine key."""
        steps, index = self.steps, self.index
        q = total = 0
        for c in key if index is None else map(index.__getitem__, key):
            q, inc = steps[q][c]
            total += inc
        return total + self.tails[q]

    def lengths(self, words: np.ndarray) -> list:
        """:meth:`length` of the element each row of `words`, an S-path of
        letter indices, spells: the transducer walked a column at a time.
        On a band pair S is the base set of a free group, or of a free
        product with unit syllables, so a path, a subword of an accepted
        word, is a geodesic: its key is its own letters (a free group), or
        one syllable per letter that ``index`` maps back to that letter."""
        nxt, inc, tails = self._flat
        q = total = np.zeros(len(words), dtype=np.intp)
        for c in words.T:
            at = q * len(self.steps[0]) + c
            total = total + inc[at]
            q = nxt[at]
        return (total + tails[q]).tolist()

    @cached_property
    def graph(self) -> list:
        """The nodes (last letter, row) the keys reach, numbered in the
        order found from the start node 0: per node, its out-edges as
        (letter, target, increment, rise), where the rise of the length is
        the increment plus the change of the tail."""
        steps, follow, tails = self.steps, self.follow, self.tails
        nodes = [(len(follow) - 1, 0)]  # grows as nodes are found
        number = {nodes[0]: 0}
        graph = []
        for a, q in nodes:
            graph.append([])
            for b in follow[a]:
                r, inc = steps[q][b]
                j = number.setdefault((b, r), len(nodes))
                if j == len(nodes):
                    nodes.append((b, r))
                graph[-1].append((b, j, inc, inc + tails[r] - tails[q]))
        return graph

    def layers(self):
        """The spheres of radius 1, 2, ... until a finite group runs out.
        Each is the nodes of :attr:`graph` its keys reach, with the number
        of those keys, the sum of their lengths, and (-length, word) and
        (length, word) for the longest and the shortest, each with its
        lex-first word: |L - tau r| peaks at an extreme of L."""
        graph = self.graph
        empty = (math.inf,)  # the extremes of a node no key reached yet
        layer = {0: (1, 0, (0, ()), (0, ()))}
        while True:
            nxt: dict = {}
            for i, (count, total, (hi, hw), (lo, lw)) in layer.items():
                for b, j, _, rise in graph[i]:
                    old = nxt.get(j, (0, 0, empty, empty))
                    nxt[j] = (old[0] + count, old[1] + total + count * rise,
                              min(old[2], (hi - rise, hw + (b,))),
                              min(old[3], (lo + rise, lw + (b,))))
            if not nxt:
                return
            layer = nxt
            yield layer.values()

    @cached_property
    def shift(self) -> tuple:
        """The one maximal component of :attr:`graph` as an edge shift, its
        pressure, and the increment of each edge of the shift as an int
        array.  Raises ValueError unless there is exactly one."""
        graph = self.graph
        edges = np.array([(i, b, j, inc) for i, out in enumerate(graph)
                          for b, j, inc, _ in out], dtype=np.intp)
        dec = components(Sft(edges[:, :3], len(graph)))
        top = maximal_components(dec)
        if len(top.maximal) != 1:
            raise ValueError(f"{len(top.maximal)} maximal components")
        return dec.components[top.maximal[0]], top.max_pressure, edges[:, 3]

    @cached_property
    def tau(self) -> float:
        """tau(S*/S), the limit of the sphere means of |x|_{S*}/n: the mean
        increment of the product's Parry chain (Calegari-Fujiwara 2010).
        Raises ValueError unless it has exactly one maximal component."""
        C, v, increment = self.shift
        m = parry_gibbs_measure(C, word_length_potential(v))
        return float(sum(m.pi * increment[m.nodes]))  # in the edges' order


_band_product = lru_cache(maxsize=16)(_BandProduct)  # callers resolve afresh


# ---------------------------------------------------------------------------
# Exact and Monte Carlo expectations
# ---------------------------------------------------------------------------

def mean_distortion_exact(aut: GeodesicAutomaton, Sstar: ResolvedGenSet,
                          n_max: int) -> list[Fraction]:
    """Exact expectation of |x|_{S*} over the uniform sphere of each radius
    n <= n_max, as exact rationals; entry 0 is 0.  Raises EmptySphere when
    one of those spheres has no elements.  The spheres come from
    :meth:`_ForeignLength.layers`: the band product's walk over the group's
    keys, or the breadth-first ball, whose spheres are first checked
    against EXACT_BUDGET.  The automaton's words are never read."""
    length = _ForeignLength(aut.genset, Sstar)
    out = [Fraction(0)]
    for _, layer in zip(range(n_max), length.layers(aut.genset, n_max, aut)):
        out.append(Fraction(sum(total for _, total, *_ in layer),
                            sum(count for count, *_ in layer)))
    if len(out) <= n_max:
        raise EmptySphere(f"no elements at distance {len(out)}")
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


def _sphere_lengths(aut: GeodesicAutomaton, Sstar: ResolvedGenSet,
                    n_list: Sequence[int], samples: int, seed: int,
                    stream: int) -> list:
    """(n, S*-lengths of `samples` uniform draws from the sphere of radius
    n) for each distinct radius in increasing order; the i-th radius draws
    from stream `stream` + i."""
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("sphere radii must be positive")
    length = _ForeignLength(aut.genset, Sstar)
    return [(n, length.lengths(aut, sample_uniform_sphere(
                aut, n, make_rng(seed, stream=stream + i),
                count=samples).letters))
            for i, n in enumerate(n_list)]


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
    rows = []
    for n, lengths in _sphere_lengths(aut, Sstar, n_list, samples, seed, 1000):
        vals = [L / n for L in lengths]
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
    if samples < 1:
        raise ValueError("need at least one sample per radius")
    eps_list = list(eps_list)
    rows = _sphere_lengths(aut, Sstar, n_list, samples, seed, 2000)
    n_list = [n for n, _ in rows]
    fractions = {}
    for n, lengths in rows:
        devs = np.abs(np.asarray(lengths) - n * tau_hat) / n
        for eps in eps_list:
            outliers = int(np.count_nonzero(devs > eps))
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
    return LlnReport(n_list, eps_list, samples, fractions, monotone, seed)


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
    length = _ForeignLength(S, Sstar)
    worst = []  # per radius, the deviation and the letters of a first word
    for r, layer in zip(range(1, R + 1), length.layers(S, R)):
        dev, word = min((-abs(L - tau * r), w)
                        for *_, (hi, hw), (lo, lw) in layer
                        for L, w in ((-hi, hw), (lo, lw)))
        worst.append((-dev, word))
    deviations = [dev for dev, _ in worst]
    witnesses = [" ".join(S.letters[b] for b in word) if dev else ""
                 for dev, word in worst]
    R = len(deviations)
    start = max(1, (2 * R) // 3)
    worst_step = 0.0
    for i in range(start, R):
        worst_step = max(worst_step, deviations[i] - deviations[i - 1])
    verdict = "BOUNDED-LOOKING" if worst_step <= SCAN_TOLERANCE else "GROWING"
    return SimilarityScan(tau, list(range(1, R + 1)), deviations, witnesses,
                          verdict, SCAN_TOLERANCE)

