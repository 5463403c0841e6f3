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
from typing import Optional

import numpy as np

from .errors import ResourceLimit
from .groups import GroupElement, ResolvedGenSet, _FreeEngine

__all__ = [
    "ball_tree",
    "BallTree",
    "word_length",
]

DEFAULT_BALL_BUDGET = 5_000_000
# products per block of rows in the coded layout
_CODED_BLOCK = 1 << 18


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

    :func:`ball_tree` has three layouts with one result.  The word layout
    serves a free or Dehn group on its base set, whose keys are
    shortlex-least geodesic words over the base letters: a key is its
    parent's key followed by its letter, so a product that contains no
    rewrite word of the engine is a new element of the next sphere and its
    position follows by counting.  The coded layout serves a free group on
    any other set: it codes reduced words as integers and finds each
    product among the codes of three spheres.  The dictionary loop serves
    the rest.  The first two lay a ball out one sphere at a time, and their
    ``keys`` are a read-only sequence that spells them, one product per
    position, only when they are first read.
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
    ResourceLimit, with one message in every layout, at the first radius
    whose ball has more than `budget` elements.

    Three layouts give the same tree, tried in this order:

    - :func:`_word_ball`, for an engine whose keys are the shortlex-least
      geodesic words over the base letters (the free and Dehn families)
      on its base set: one sphere at a time, where only the products that
      meet a rewrite word go to the engine and the rest take their
      positions by counting.  It raises before the engine products of a
      sphere whose other products already pass the budget, and otherwise
      once that sphere's positions are counted: it holds the ball before
      that sphere and a boolean mask of the sphere's products.
    - :func:`_coded_ball`, for a free group on any other set, while
      B ** (radius * max_letter_length) < 2 ** 63, with B the number of
      base letters plus one: reduced words as integer codes, one sphere at
      a time in blocks of rows, each product found by ``searchsorted``
      among the codes of three spheres.  It makes no engine product, and
      raises after the block that passes the budget: it holds the ball
      before that sphere and the codes found in it so far, at most
      budget + ``_CODED_BLOCK`` (2 ** 18) elements in all, and one block's
      products.
    - :func:`_dictionary_ball`, for every other group and generating set,
      and for a word ball whose engine answers break the word layout or a
      coded ball past 63 bits: it multiplies each product and looks it up
      among the keys found, since it may be an element found before.  The
      budget is checked after each element's products, so it holds at
      most budget + len(T) keys when it raises.
    """
    if radius < 0:
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    tree = _word_ball(T, radius, budget)
    if tree is None:
        tree = _coded_ball(T, radius, budget)
    return tree if tree is not None else _dictionary_ball(T, radius, budget)


def _dictionary_ball(T: ResolvedGenSet, radius: int, budget: int) -> BallTree:
    """:func:`ball_tree` by a dictionary from key to position: every product
    but the back edge is multiplied and looked up."""
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


def _word_ball(T: ResolvedGenSet, radius: int,
               budget: int) -> Optional[BallTree]:
    """:func:`ball_tree` for an engine whose keys are shortlex-least
    geodesic words over the base letters, on its base set, one sphere at a
    time; None where that does not apply or where the engine's answers
    break the layout.

    Such words are prefix-closed (Cannon 1984; Epstein et al., *Word
    Processing in Groups*, 1992), so a key is its parent's key followed by
    its letter.  The keys of a sphere are then in lex order by position,
    and the products of its keys g by the letters t other than the back
    edge come in the dictionary loop's order, the lex order of the words
    g + t.  The engine returns g + t unchanged unless it contains one of
    the engine's rewrite words (``_rewrite_words``, none for a free
    group): either g contains one, a flag kept per position, or g + t ends
    in one, which the base-nt code of each position's last letters tells.
    Every other product is a new element and takes the next position by
    counting; only the rows that meet a rewrite word go to the engine.
    A result h equal to g + t is new as well.  Any other h must be an
    earlier key, found by walking its letters from the identity along the
    positions' own letters: shorter than g + t, or as long and lex smaller,
    where the dictionary loop placed it first.  If it is not, the layout
    gives up and returns None.

    The budget is checked twice per sphere, with the dictionary loop's
    message at the same radius: before any engine product against the
    rows that need none, a lower bound on the sphere, then against the
    exact count.  The keys are a :class:`_Spelled` list that multiplies
    each position's parent key by its letter's key when they are first
    read.
    """
    eng = T.group.engine
    words = getattr(eng, "_rewrite_words", None)
    nt = len(T)
    tkeys = [e.key for e in T.elements]
    if (words is None or not T.is_base
            or tkeys != [bytes((li,)) for li in range(nt)]):
        return None
    tables = _rewrite_tables(words, nt)
    if tables is None:
        return None
    mult = eng.mult
    inv = np.array(T.inverse_index, dtype=np.intc)
    letters = np.arange(nt, dtype=np.intc)
    parent = array("i", [-1])
    letter = array("i", [-1])
    nbr = array("i")
    layer_bounds = [0, 1]
    lo, hi = 0, 1
    # per position of the sphere lo:hi: its parent, its back-edge letter,
    # the code of its last letters and whether its key has a rewrite word
    up = np.array([-1], dtype=np.intc)
    back = np.array([-1], dtype=np.intc)
    code = np.zeros(1, dtype=np.int64)
    flag = np.zeros(1, dtype=bool)
    wrap = nt ** (max(map(len, words), default=1) - 1)

    def spell(p: int) -> bytes:
        out = bytearray()
        while p > 0:
            out.append(letter[p])
            p = parent[p]
        out.reverse()
        return bytes(out)

    def find(h: bytes, block: np.ndarray) -> int:
        # the position whose key is h, or -1; a word as long as the next
        # sphere's keys takes its last step in the block being laid out
        p = 0
        for c in h:
            q = nbr[p * nt + c] if p < lo else int(block[p - lo, c])
            if q < 0 or parent[q] != p or letter[q] != c:
                return -1
            p = q
        return p

    for depth in range(radius):
        forward = letters != back[:, None]
        new = forward
        if tables:
            rewrite = np.repeat(flag[:, None], nt, axis=1)
            for k, prefixes, masks, bits in tables:
                if k > depth + 1:
                    break
                tail = code % nt ** (k - 1)
                at = np.searchsorted(prefixes, tail).clip(max=len(prefixes) - 1)
                hit = np.where(prefixes[at] == tail, masks[at], 0)
                rewrite |= (hit[:, None] & bits) != 0
            rewrite &= forward
            new = forward & ~rewrite
        if hi + int(np.count_nonzero(new)) > budget:
            raise _budget_exceeded(budget, depth + 1, radius)
        pending = []
        if tables:
            last = -1
            for r, t in zip(*(a.tolist() for a in np.nonzero(rewrite))):
                if r != last:
                    g, last = spell(lo + r), r
                w = g + tkeys[t]
                h = mult(g, tkeys[t])
                if h == w:
                    new[r, t] = True
                elif len(h) > len(w):
                    return None
                else:
                    pending.append((r, t, w, h))
        children = np.count_nonzero(new, axis=1)
        count = int(children.sum())
        if hi + count > budget:
            raise _budget_exceeded(budget, depth + 1, radius)
        block = np.repeat(up[:, None], nt, axis=1)
        block[new] = np.arange(hi, hi + count, dtype=np.intc)
        up = np.repeat(np.arange(lo, hi, dtype=np.intc), children)
        parent.frombytes(up.tobytes())
        lets = np.broadcast_to(letters, new.shape)[new]
        letter.frombytes(lets.tobytes())
        # a row still waiting here holds its parent, which fails the walk
        for r, t, w, h in pending:
            q = find(h, block)
            if q < 0 or (len(h) == len(w) and h > w):
                return None
            block[r, t] = q
        nbr.frombytes(block.tobytes())
        back = inv[lets]
        if tables:
            code = (code[up - lo] * nt + lets) % wrap
            flag = rewrite[new]
        lo, hi = hi, hi + count
        layer_bounds.append(hi)
        if lo == hi:
            break

    return _spelled_tree(eng, tkeys, parent, letter, layer_bounds, nbr)


def _spelled_tree(eng, tkeys: list, parent: array, letter: array,
                  layer_bounds: list[int], nbr: array) -> BallTree:
    """A ball tree whose keys are a :class:`_Spelled` list: each position's
    key is its parent's key times its letter's key, multiplied in position
    order on first read."""

    def spell_keys() -> list:
        mult = eng.mult
        keys = [eng.identity]
        for a, b in zip(layer_bounds[1:], layer_bounds[2:]):
            keys += map(mult, map(keys.__getitem__, parent[a:b]),
                        map(tkeys.__getitem__, letter[a:b]))
        return keys

    return BallTree(_Spelled(layer_bounds[-1], spell_keys), parent, letter,
                    layer_bounds, nbr)


def _coded_ball(T: ResolvedGenSet, radius: int,
                budget: int) -> Optional[BallTree]:
    """:func:`ball_tree` for a free group on any generating set, one sphere
    at a time in blocks of rows; None for any other engine, or where a code
    of the ball would not fit in 63 bits.

    A freely reduced word over the base letters is coded as an integer in
    base B = (number of base letters) + 1, with digits letter + 1: the
    identity is 0, and appending letter c takes a code to code * B + c + 1.
    A letter of T is a reduced word, so a product cancels only at the
    junction: each base letter c of the letter takes the code to code // B
    where its last digit is inv(c) + 1, and appends c elsewhere.  The words
    of the radius-R ball have at most R * max_letter_length letters, so
    every code, the partial products' too, stays below
    B ** (R * max_letter_length), which must be below 2 ** 63.

    The products of sphere k lie in spheres k - 1, k and k + 1.  Each is
    looked up in the sorted codes of spheres k - 1 and k and among the new
    codes of the sphere's earlier blocks; the rest are numbered in order of
    first occurrence, row by row and letter by letter, which is the order
    in which the dictionary loop finds them.  The budget is checked after
    each block, with the dictionary loop's message at the same radius.
    The keys are a :class:`_Spelled` list.
    """
    eng = T.group.engine
    if not isinstance(eng, _FreeEngine):
        return None
    base = len(eng.inv) + 1
    if base ** (radius * T.max_letter_length) >= 1 << 63:
        return None
    nt = len(T)
    tkeys = [e.key for e in T.elements]
    cancel = [c + 1 for c in eng.inv]  # the last digit letter c cancels
    rows = max(1, _CODED_BLOCK // nt)
    parent = array("i", [-1])
    letter = array("i", [-1])
    nbr = array("i")
    layer_bounds = [0, 1]
    lo, hi = 0, 1
    codes = np.zeros(1, dtype=np.int64)  # of the sphere lo:hi, by position
    # the sorted codes of the spheres before and at lo:hi, with positions
    before = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intc))
    at = (codes, np.zeros(1, dtype=np.intc))
    for depth in range(radius):
        # the codes of the next sphere found so far, sorted, with positions
        seen = np.zeros(0, dtype=np.int64)
        seen_at = np.zeros(0, dtype=np.intc)
        for start in range(0, hi - lo, rows):
            block = codes[start:start + rows]
            prod = np.empty((len(block), nt), dtype=np.int64)
            for li, key in enumerate(tkeys):
                col = block
                for c in key:
                    q, r = np.divmod(col, base)
                    col = np.where(r == cancel[c], q, col * base + (c + 1))
                prod[:, li] = col
            # sorted, the products look up fast and group equal codes
            order = np.argsort(prod, axis=None)
            prod = prod.ravel()[order]
            pos = np.full(len(prod), -1, dtype=np.intc)
            _find(*before, prod, pos)
            _find(*at, prod, pos)
            _find(seen, seen_at, prod, pos)
            miss = np.flatnonzero(pos < 0)
            fresh = prod[miss]
            head = np.empty(len(fresh), dtype=bool)
            head[:1] = True
            np.not_equal(fresh[1:], fresh[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            uniq = fresh[starts]
            first = (np.minimum.reduceat(order[miss], starts) if len(starts)
                     else starts)
            rank = np.empty(len(uniq), dtype=np.intc)
            by_first = np.argsort(first)
            rank[by_first] = np.arange(len(uniq), dtype=np.intc)
            where = rank + (hi + len(seen))
            pos[miss] = where[np.cumsum(head) - 1]
            out = np.empty_like(pos)
            out[order] = pos
            nbr.frombytes(out.tobytes())
            # each new code's parent row and letter, where it was first found
            row, lets = np.divmod(first[by_first], nt)
            parent.frombytes((row + (lo + start)).astype(np.intc).tobytes())
            letter.frombytes(lets.astype(np.intc).tobytes())
            ins = np.searchsorted(seen, uniq)
            seen = np.insert(seen, ins, uniq)
            seen_at = np.insert(seen_at, ins, where)
            if hi + len(seen) > budget:
                raise _budget_exceeded(budget, depth + 1, radius)
        codes = np.empty(len(seen), dtype=np.int64)
        codes[seen_at - hi] = seen
        before, at = at, (seen, seen_at)
        lo, hi = hi, hi + len(seen)
        layer_bounds.append(hi)
    return _spelled_tree(eng, tkeys, parent, letter, layer_bounds, nbr)


def _find(keys: np.ndarray, values: np.ndarray, items: np.ndarray,
          out: np.ndarray) -> None:
    """Set out[i] to values[j] wherever items[i] is keys[j], for keys
    sorted."""
    if len(keys):
        j = np.searchsorted(keys, items).clip(max=len(keys) - 1)
        hit = keys[j] == items
        out[hit] = values[j[hit]]


def _rewrite_tables(words, nt: int) -> Optional[list]:
    """For each length k of the rewrite words, shortest first: the sorted
    base-nt codes of their first k - 1 letters, for each code the bitmask
    of the last letters that complete a rewrite word, and the bit of each
    letter.  [] when there are no words; None when a code of the longest
    word times nt, or a mask, would not fit in 64 bits."""
    if not words:
        return []
    if nt > 64 or nt ** max(map(len, words)) >= 1 << 63:
        return None
    by_length: dict[int, dict[int, int]] = {}
    for w in set(words):
        prefix = 0
        for c in w[:-1]:
            prefix = prefix * nt + c
        masks = by_length.setdefault(len(w), {})
        masks[prefix] = masks.get(prefix, 0) | 1 << w[-1]
    dtype = np.min_scalar_type((1 << nt) - 1)
    bits = (np.ones(nt, dtype=dtype) << np.arange(nt, dtype=dtype))
    return [(k, np.array(sorted(masks), dtype=np.int64),
             np.array([masks[c] for c in sorted(masks)], dtype=dtype), bits)
            for k, masks in sorted(by_length.items())]


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
