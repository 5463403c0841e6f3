"""Metric computations in Cayley graphs: balls, lengths, Gromov products.

Distances are exact integers throughout.  Gromov products are half-integers
and are returned as :class:`fractions.Fraction`; internal scans keep them
doubled so all comparisons stay in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappush, heappop

import numpy as np

from .errors import CapExceeded, ResourceLimit
from .groups import GroupElement, GroupSpec, ResolvedGenSet

__all__ = [
    "ball_tree",
    "BallTree",
    "word_length",
    "gromov_product",
    "estimate_delta",
    "HyperbolicityEstimate",
]

DEFAULT_LENGTH_CAP = 64
DEFAULT_BALL_BUDGET = 5_000_000
DELTA_BUDGET = 700  # ball elements for the cubic four-point scan


@dataclass
class BallTree:
    """Breadth-first spanning tree of a ball, in discovery order.

    ``keys[i]`` was first reached from ``keys[parent[i]]`` by the letter with
    index ``letter[i]``; letters are tried in index order, so the tree word of
    each element is its shortlex-least geodesic word.  ``index`` maps each
    key to its position and ``depth[i]`` is the distance of ``keys[i]``.
    """

    keys: list
    depth: list[int]
    parent: list[int]
    letter: list[int]
    index: dict
    layer_bounds: list[int]  # keys[layer_bounds[n]:layer_bounds[n+1]] is sphere n

    def tree_word(self, i: int) -> tuple[int, ...]:
        out = []
        while i > 0:
            out.append(self.letter[i])
            i = self.parent[i]
        return tuple(reversed(out))

    def radius(self) -> int:
        return len(self.layer_bounds) - 2

    def sphere_size(self, n: int) -> int:
        return self.layer_bounds[n + 1] - self.layer_bounds[n]


def ball_tree(T: ResolvedGenSet, radius: int,
              budget: int = DEFAULT_BALL_BUDGET) -> BallTree:
    """Breadth-first tree of the ball of the given radius around the identity.

    Raises ResourceLimit once more than `budget` elements are found, which
    is checked after each element's products, so at most
    budget + len(T) elements are built.
    """
    eng = T.group.engine
    tkeys = [e.key for e in T.elements]
    keys = [eng.identity]
    depths = [0]
    parent = [-1]
    letter = [-1]
    index = {eng.identity: 0}
    layer_bounds = [0, 1]
    lo, hi = 0, 1
    for depth in range(radius):
        for i in range(lo, hi):
            g = keys[i]
            for li, tk in enumerate(tkeys):
                h = eng.mult(g, tk)
                if h in index:
                    continue
                index[h] = len(keys)
                keys.append(h)
                depths.append(depth + 1)
                parent.append(i)
                letter.append(li)
            if len(keys) > budget:
                raise ResourceLimit(
                    f"ball enumeration exceeded budget {budget} at radius "
                    f"{depth + 1} of {radius}")
        lo, hi = hi, len(keys)
        layer_bounds.append(hi)
        if lo == hi:
            break
    return BallTree(keys, depths, parent, letter, index, layer_bounds)


def _astar_length(T: ResolvedGenSet, x: GroupElement, cap: int,
                  budget: int) -> int:
    """Exact foreign length by A* over left quotients.

    The state is g = z^-1 x where z is the partial product; the remaining
    distance is at least ceil(|g|_S / L) with L the largest base length of a
    letter, which is an admissible and consistent heuristic.
    """
    eng = T.group.engine
    lip = T.max_letter_length
    inv_keys = [T.elements[T.inverse_index[i]].key for i in range(len(T))]
    start = x.key
    if start == eng.identity:
        return 0
    h0 = -(-eng.length(start) // lip)
    heap = [(h0, 0, start)]
    best = {start: 0}
    popped = 0
    while heap:
        f, g_cost, gk = heappop(heap)
        if g_cost > best.get(gk, -1):
            continue
        if gk == eng.identity:
            return g_cost
        popped += 1
        if popped > budget:
            raise ResourceLimit(f"length search exceeded budget {budget}")
        if g_cost >= cap:
            continue
        for ik in inv_keys:
            nk = eng.mult(ik, gk)
            nc = g_cost + 1
            if nc < best.get(nk, nc + 1):
                best[nk] = nc
                h = -(-eng.length(nk) // lip)
                if nc + h <= cap:
                    heappush(heap, (nc + h, nc, nk))
    raise CapExceeded(f"word length exceeds cap {cap}")


def word_length(x: GroupElement, T: ResolvedGenSet,
                cap: int = DEFAULT_LENGTH_CAP,
                budget: int = DEFAULT_BALL_BUDGET) -> int:
    """Geodesic length of x with respect to the generating set T.

    For the base set this is the engine's normal-form length.  For any
    other set it is an A* search whose heuristic, the base length divided
    by the longest letter, never overestimates, so the answer is exact.
    Raises CapExceeded when the length is provably above ``cap`` and
    ResourceLimit when the search pops more than ``budget`` states.
    """
    if T.is_base:
        n = x.length()
        if n > cap:
            raise CapExceeded(f"word length {n} exceeds cap {cap}")
        return n
    # Lower bound from the Lipschitz comparison of the two metrics.
    if -(-x.length() // T.max_letter_length) > cap:
        raise CapExceeded(f"word length exceeds cap {cap}")
    return _astar_length(T, x, cap, budget)


def gromov_product(x: GroupElement, y: GroupElement, T: ResolvedGenSet,
                   cap: int = DEFAULT_LENGTH_CAP) -> Fraction:
    """Gromov product (x|y) at the identity: (|x| + |y| - |x^-1 y|) / 2."""
    lx = word_length(x, T, cap)
    ly = word_length(y, T, cap)
    lxy = word_length(x.inverse() * y, T, cap)
    return Fraction(lx + ly - lxy, 2)


@dataclass(frozen=True)
class HyperbolicityEstimate:
    """Smallest half-integer delta passing the four-point condition on a ball."""

    delta: Fraction
    radius: int
    basepoint: GroupElement

    def __post_init__(self):
        if self.delta < 0 or self.delta.denominator not in (1, 2):
            raise ValueError("delta must be a nonnegative half-integer")


def estimate_delta(spec: GroupSpec, T: ResolvedGenSet, radius: int
                   ) -> HyperbolicityEstimate:
    """Exhaustive four-point scan over the ball of the given radius.

    Returns the least half-integer delta with
    (x|y) >= min((x|z), (z|y)) - delta for all triples in the ball, the
    Gromov products being taken at the identity.  The scan is quadratic in
    the ball size for distances and cubic (vectorized) for the triple test,
    so balls of more than DELTA_BUDGET elements are refused.
    """
    tree = ball_tree(T, radius)
    n = len(tree.keys)
    if n > DELTA_BUDGET:
        raise ResourceLimit(
            f"ball has {n} elements, above the pairwise budget {DELTA_BUDGET}")
    eng = spec.engine
    tkeys = [e.key for e in T.elements]
    lengths = np.array(tree.depth, dtype=np.int64)
    # Pairwise distances d(x, y) = |x^-1 y|: walk the tree once per row so
    # each entry costs one letter multiplication.
    dmat = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        xinv = eng.invert(tree.keys[i])
        row_keys = [None] * n
        row_keys[0] = xinv
        dmat[i, 0] = eng.length(xinv)
        for j in range(1, n):
            z = eng.mult(row_keys[tree.parent[j]], tkeys[tree.letter[j]])
            row_keys[j] = z
            dmat[i, j] = eng.length(z)
    # Doubled Gromov products stay integral.
    g2 = lengths[:, None] + lengths[None, :] - dmat
    worst = 0
    for z in range(n):
        defect = np.minimum.outer(g2[:, z], g2[z, :]) - g2
        m = int(defect.max())
        if m > worst:
            worst = m
    return HyperbolicityEstimate(Fraction(max(worst, 0), 2), radius, spec.identity())

