"""Metric computations in Cayley graphs: balls and word lengths.

Distances are exact integers throughout: a breadth-first ball tree for the
base metric, and an exact A* search for the length in any other
generating set.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from .errors import ResourceLimit
from .groups import GroupElement, ResolvedGenSet

__all__ = [
    "ball_tree",
    "BallTree",
    "word_length",
]

DEFAULT_BALL_BUDGET = 5_000_000


@dataclass
class BallTree:
    """Breadth-first spanning tree of a ball, in discovery order.

    ``keys[i]`` was first reached from ``keys[parent[i]]`` by the letter with
    index ``letter[i]``; letters are tried in index order, so the tree word of
    each element is its shortlex-least geodesic word.
    ``parent`` and ``letter`` are compact ``array('i')``s: a list would hold
    one int object per distinct position.

    ``nbr`` is the neighbour table the enumeration fills as it goes, a
    compact ``array('i')`` that array passes can view without a copy
    (``np.frombuffer``): ``nbr[i * len(T) + li]`` is the position of
    ``keys[i] * T[li]``, for every expanded position i, that is every i
    below ``layer_bounds[radius()]`` (all but the last sphere).  Walks that
    stay below the last sphere read products from it instead of
    multiplying.

    A free group on its free basis has a tree for its Cayley graph, so
    there every position but the identity has exactly one neighbour in the
    previous sphere (its parent, by the back edge) and its other products
    are new elements of the next sphere.  The layout of such a ball is
    fixed by counting alone, which is how :func:`ball_tree` lays it out.
    Its ``keys`` are then a read-only sequence that spells them, one
    product per position, only when they are first read.
    """

    keys: Sequence
    parent: array
    letter: array
    layer_bounds: list[int]  # keys[layer_bounds[n]:layer_bounds[n+1]] is sphere n
    nbr: array

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

    The back edge needs no product: ``keys[i] * T[inv(letter[i])]`` is
    ``keys[parent[i]]``.  Raises ValueError for a negative radius, and
    ResourceLimit once more than `budget` elements are found, which is
    checked after each element's products, so at most budget + len(T)
    elements are built.

    Every other group and generating set needs a dictionary from key to
    position, since a product may be an element found before.  On a free
    basis none is: each product other than the back edge is new, so
    :func:`_free_basis_ball` places the sphere by counting and spells the
    keys only when they are read.
    """
    if radius < 0:
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    if T.group.family == "free" and T.is_base:
        return _free_basis_ball(T, radius, budget)
    eng = T.group.engine
    mult = eng.mult
    tkeys = list(enumerate(e.key for e in T.elements))
    inv = T.inverse_index
    keys = [eng.identity]
    parent = array("i", [-1])
    letter = array("i", [-1])
    index = {eng.identity: 0}
    setdefault = index.setdefault
    nbr = array("i")
    layer_bounds = [0, 1]
    lo, hi = 0, 1
    size = 1  # len(keys)
    for depth in range(radius):
        for i in range(lo, hi):
            g = keys[i]
            back = inv[letter[i]] if i else -1
            for li, tk in tkeys:
                if li == back:
                    nbr.append(parent[i])
                    continue
                h = mult(g, tk)
                j = setdefault(h, size)
                if j == size:  # h is new: it takes the next position
                    size += 1
                    keys.append(h)
                    parent.append(i)
                    letter.append(li)
                nbr.append(j)
            if size > budget:
                raise _budget_exceeded(budget, depth + 1, radius)
        lo, hi = hi, size
        layer_bounds.append(hi)
        if lo == hi:
            break
    return BallTree(keys, parent, letter, layer_bounds, nbr)


def _budget_exceeded(budget: int, depth: int, radius: int) -> ResourceLimit:
    return ResourceLimit(f"ball enumeration exceeded budget {budget} at "
                         f"radius {depth} of {radius}")


def _free_basis_ball(T: ResolvedGenSet, radius: int, budget: int) -> BallTree:
    """:func:`ball_tree` for a free group on its free basis, one sphere at a
    time with no index of keys and no product.

    The Cayley graph is a tree, so the children of sphere n are the
    products of its positions, in order, by every letter but the inverse of
    their own, in letter order; they take the next positions in that order,
    and the back edge leads to the parent.  The layout takes no product:
    the keys are a :class:`_Spelled` list that multiplies each position's
    parent key by its letter's key when they are first read.  A sphere that
    would take the ball past `budget` raises before it is built: the
    element-by-element loop raises at the same radius, since its count only
    grows within a sphere.
    """
    nt = len(T)
    inv = np.array(T.inverse_index, dtype=np.intc)
    letters = np.arange(nt, dtype=np.intc)
    parent = array("i", [-1])
    letter = array("i", [-1])
    nbr = array("i")
    layer_bounds = [0, 1]
    lo, hi = 0, 1
    # parent and back-edge letter of each position of the sphere lo:hi
    up = np.array([-1], dtype=np.intc)
    back = np.array([-1], dtype=np.intc)
    for depth in range(radius):
        forward = letters != back[:, None]
        children = np.count_nonzero(forward, axis=1)
        new = int(children.sum())
        if hi + new > budget:
            raise _budget_exceeded(budget, depth + 1, radius)
        block = np.repeat(up[:, None], nt, axis=1)
        block[forward] = np.arange(hi, hi + new, dtype=np.intc)
        nbr.frombytes(block.tobytes())
        up = np.repeat(np.arange(lo, hi, dtype=np.intc), children)
        parent.frombytes(up.tobytes())
        lets = np.broadcast_to(letters, forward.shape)[forward]
        back = inv[lets]
        letter.frombytes(lets.tobytes())
        lo, hi = hi, hi + new
        layer_bounds.append(hi)
    keys = _Spelled(hi, lambda: _spell_keys(T, parent, letter, layer_bounds))
    return BallTree(keys, parent, letter, layer_bounds, nbr)


class _Spelled(Sequence):
    """A read-only list of `size` items, spelled by ``spell()`` on first
    read: ``len`` answers without them, and the first item access,
    iteration, slice or comparison builds the list and keeps it."""

    def __init__(self, size: int, spell):
        self._size, self._spell, self._items = size, spell, None

    def _read(self) -> list:
        if self._items is None:
            self._items = self._spell()
        return self._items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other) -> bool:
        return self._read() == other


def _spell_keys(T: ResolvedGenSet, parent: array, letter: array,
                layer_bounds: list[int]) -> list:
    """The keys of a free-basis ball: in position order, each position's
    parent key times its letter's key."""
    mult = T.group.engine.mult
    tkeys = [e.key for e in T.elements]
    keys = [T.group.engine.identity]
    for lo, hi in zip(layer_bounds[1:], layer_bounds[2:]):
        keys += map(mult, map(keys.__getitem__, parent[lo:hi]),
                    map(tkeys.__getitem__, letter[lo:hi]))
    return keys


def word_length(x: GroupElement, T: ResolvedGenSet,
                budget: int = DEFAULT_BALL_BUDGET) -> int:
    """Geodesic length of x with respect to the generating set T.

    For the base set this is the engine's normal-form length.  For any
    other set it is an A* search over left quotients.  The state is
    g = z^-1 x where z is the partial product; the remaining distance is at
    least ceil(|g|_S / L) with L the largest base length of a letter, a
    heuristic that never overestimates and is consistent, so the answer is
    exact.  Nodes pop in order of their bound, so the identity pops before
    any node whose bound exceeds the length, and the search needs no limit
    on the length.  Raises ResourceLimit when the search pops more than
    ``budget`` states.
    """
    if T.is_base:
        return x.length()
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
    while True:
        f, g_cost, gk = heappop(heap)
        if g_cost > best.get(gk, -1):
            continue
        if gk == eng.identity:
            return g_cost
        popped += 1
        if popped > budget:
            raise ResourceLimit(f"length search exceeded budget {budget}")
        for ik in inv_keys:
            nk = eng.mult(ik, gk)
            nc = g_cost + 1
            if nc < best.get(nk, nc + 1):
                best[nk] = nc
                h = -(-eng.length(nk) // lip)
                heappush(heap, (nc + h, nc, nk))
