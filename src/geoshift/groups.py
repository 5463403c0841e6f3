"""Group presentations with decidable word problems and canonical normal forms.

Four families are supported:

* ``free``          -- finitely generated free groups; normal form is the
                       freely reduced word.
* ``finite_table``  -- a finite group given by its multiplication table;
                       normal form is the table index.
* ``free_product``  -- a free product of finite-table factors; normal form is
                       the alternating syllable sequence.
* ``dehn``          -- a small-cancellation presentation processed with greedy
                       relator replacement plus a bounded rewriting search;
                       normal form is the shortlex-minimal geodesic word found.

Elements are immutable and safe to share; all operations are pure functions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Mapping, Optional, Sequence
import itertools
import re
import warnings

from .errors import FormatError, ResourceLimit, UnknownLetter

__all__ = [
    "GeneratingSet",
    "GroupSpec",
    "GroupElement",
    "ResolvedGenSet",
    "free_group",
    "finite_table_group",
    "free_product_group",
    "dehn_group",
]

# Rewriting-search states per Dehn normalisation.
DEHN_BUDGET = 200_000


@dataclass(frozen=True)
class GeneratingSet:
    """A finite symmetric generating set.

    ``letters`` are display names; ``inverses`` pairs each letter with its
    inverse letter (a letter may be paired with itself).  For a set that is
    foreign to the group's base alphabet, ``words`` spells each letter as a
    word over the base letters.
    """

    letters: tuple[str, ...]
    inverses: Mapping[str, str]
    words: Optional[Mapping[str, tuple[str, ...]]] = None
    name: str = "S"

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise FormatError("generating set letters must be distinct")
        if not self.letters:
            raise FormatError("generating set must be nonempty")
        inv = dict(self.inverses)
        for a, b in list(inv.items()):
            inv.setdefault(b, a)
        for a, b in inv.items():
            if a not in self.letters or b not in self.letters:
                raise FormatError(f"inverse pairing uses unknown letter {a!r} or {b!r}")
            if inv.get(b) != a:
                raise FormatError(f"inverse pairing is not an involution at {a!r}")
        for a in self.letters:
            if a not in inv:
                raise FormatError(f"letter {a!r} has no inverse assigned")
        object.__setattr__(self, "inverses", inv)
        if self.words is not None:
            object.__setattr__(
                self, "words", {k: tuple(v) for k, v in dict(self.words).items()}
            )

    def inverse_index(self) -> tuple[int, ...]:
        """Index-level involution: position of each letter's inverse."""
        pos = {a: i for i, a in enumerate(self.letters)}
        return tuple(pos[self.inverses[a]] for a in self.letters)


def _free_reduce_bytes(word: bytes, inv: tuple[int, ...]) -> bytes:
    out = bytearray()
    for c in word:
        if out and out[-1] == inv[c]:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


def _invert_bytes(word: bytes, inv: tuple[int, ...]) -> bytes:
    return bytes(inv[c] for c in reversed(word))


class _FreeEngine:
    """Word problem for a free group: free reduction over letter indices."""

    family = "free"
    # A product of a freely reduced word by a letter other than the inverse
    # of its last one never cancels, so no word makes it rewrite: see
    # _DehnEngine._rewrite_words.
    _rewrite_words: tuple[bytes, ...] = ()

    def __init__(self, inv: tuple[int, ...]):
        self.inv = inv
        self.identity = b""
        # Matches wherever a letter meets its inverse: a word it misses is
        # freely reduced already.
        self._cancels = _any_of(bytes((a, b)) for a, b in enumerate(inv))

    def from_word(self, ids: Iterable[int]) -> bytes:
        w = bytes(ids)
        if self._cancels.search(w):
            return _free_reduce_bytes(w, self.inv)
        return w

    def mult(self, a: bytes, b: bytes) -> bytes:
        ia = len(a)
        jb = 0
        while ia > 0 and jb < len(b) and a[ia - 1] == self.inv[b[jb]]:
            ia -= 1
            jb += 1
        return a[:ia] + b[jb:]

    def invert(self, a: bytes) -> bytes:
        return _invert_bytes(a, self.inv)

    def length(self, a: bytes) -> int:
        return len(a)

    def to_word(self, a: bytes) -> tuple[int, ...]:
        return tuple(a)


def _table_geodesics(table, letters: list[tuple[int, int]]) -> tuple[dict, dict]:
    """Breadth-first search of a multiplication table from the identity 0.

    ``letters`` lists (letter index, table element) pairs, tried in order.
    Returns the distance of every element reached and its tree parent
    (previous element, letter index), so the tree word is shortlex-least.
    """
    dist = {0: 0}
    parent: dict[int, tuple[int, int]] = {}
    queue = deque([0])
    while queue:
        g = queue.popleft()
        for li, le in letters:
            h = table[g][le]
            if h not in dist:
                dist[h] = dist[g] + 1
                parent[h] = (g, li)
                queue.append(h)
    return dist, parent


class _FiniteEngine:
    """Word problem for a finite group given by its multiplication table."""

    family = "finite_table"

    def __init__(self, table, letter_elements: tuple[int, ...], inv: tuple[int, ...]):
        self.table = table
        self.letter_elements = letter_elements
        self.inv = inv
        self.identity = 0
        self.order = len(table)
        self._element_inverse = [row.index(0) for row in table]
        # The letters actually supplied must generate the whole group.
        self._dist, self._parent = _table_geodesics(
            table, list(enumerate(letter_elements)))
        if len(self._dist) != self.order:
            raise FormatError("the supplied letters do not generate the group")

    def from_word(self, ids: Iterable[int]) -> int:
        g = 0
        for li in ids:
            g = self.table[g][self.letter_elements[li]]
        return g

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def invert(self, a: int) -> int:
        return self._element_inverse[a]

    def length(self, a: int) -> int:
        return self._dist[a]

    def to_word(self, a: int) -> tuple[int, ...]:
        out = []
        while a != 0:
            a, li = self._parent[a]
            out.append(li)
        return tuple(reversed(out))


class _FreeProductEngine:
    """Word problem for a free product of finite-table factors.

    Element keys are alternating syllable tuples ``((factor, element), ...)``
    with nontrivial elements and adjacent syllables in distinct factors.
    Two such keys can only combine where they meet, so a product costs its
    junction (the syllable pairs that cancel, plus at most one merge) and
    one tuple concatenation, not a push per syllable of the right operand.
    """

    family = "free_product"

    def __init__(self, tables, letter_syllables, inv: tuple[int, ...]):
        self.tables = tables
        self.letter_syllables = letter_syllables  # letter index -> (factor, element)
        self.inv = inv
        self.identity = ()
        self._factor_inverse = [[row.index(0) for row in tbl] for tbl in tables]
        # Per-factor geodesic data over the letters assigned to that factor.
        self._dist = []
        self._parent = []
        for f, tbl in enumerate(tables):
            letters = [
                (li, syl[1]) for li, syl in enumerate(letter_syllables) if syl[0] == f
            ]
            if not letters:
                raise FormatError(f"factor {f} has no letters assigned")
            dist, parent = _table_geodesics(tbl, letters)
            if len(dist) != len(tbl):
                raise FormatError(f"letters assigned to factor {f} do not generate it")
            self._dist.append(dist)
            self._parent.append(parent)
        # When every nontrivial factor element is a letter (as in PSL2Z =
        # Z/2 * Z/3 on its standard letters), each syllable has length 1.
        self.unit_syllables = all(d <= 1 for dist in self._dist
                                  for d in dist.values())

    def from_word(self, ids: Iterable[int]) -> tuple:
        # One pass over a stack of syllables, not a product per letter: a
        # letter of the top syllable's factor merges with it or cancels it.
        out: list[tuple[int, int]] = []
        tables, syllables = self.tables, self.letter_syllables
        for li in ids:
            f, e = syllables[li]
            if out and out[-1][0] == f:
                e = tables[f][out.pop()[1]][e]
            if e:  # 0: the letter names the identity, or cancelled the top
                out.append((f, e))
        return tuple(out)

    def mult(self, a: tuple, b: tuple) -> tuple:
        # Cancel syllable pairs across the junction a[i-1] | b[j] while they
        # share a factor; the first nonzero product is the one merge, after
        # which the neighbours lie in other factors than it.
        i, j, nb = len(a), 0, len(b)
        while i and j < nb:
            f, x = a[i - 1]
            g, y = b[j]
            if f != g:
                break
            prod = self.tables[f][x][y]
            if prod:
                return a[:i - 1] + ((f, prod),) + b[j + 1:]
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def invert(self, a: tuple) -> tuple:
        return tuple((f, self._factor_inverse[f][e]) for f, e in reversed(a))

    def length(self, a: tuple) -> int:
        if self.unit_syllables:
            return len(a)
        return sum(self._dist[f][e] for f, e in a)

    def to_word(self, a: tuple) -> tuple[int, ...]:
        out: list[int] = []
        for f, e in a:
            chunk = []
            g = e
            while g != 0:
                g, li = self._parent[f][g]
                chunk.append(li)
            out.extend(reversed(chunk))
        return tuple(out)


def _any_of(words: Iterable[bytes]) -> "re.Pattern[bytes]":
    """A byte pattern that matches wherever one of the words occurs.  With
    no words it matches everywhere, so the loops it guards still decide."""
    return re.compile(b"|".join(re.escape(w) for w in words))


class _DehnEngine:
    """Word problem via greedy relator replacement plus a rewriting search.

    Words with a subword covering more than half of a (symmetrized) relator
    are shortened greedily.  A bounded search over length-preserving
    half-relator exchanges then canonicalizes the geodesic representative to
    the lexicographically least word, restarting whenever an exchange exposes
    a further shortening.  This decides the word problem for presentations
    where greedy replacement is complete (small-cancellation presentations);
    a warning is emitted when the metric C'(1/6) condition fails.

    Normal forms of single letters are cached; longer words, such as
    sampled ones, would fill the cache with elements seen once.  A product
    of two normal forms needs no cache: both are freely reduced, so it
    cancels only at the junction, and most products match no relator
    prefix and are returned after one search.

    The rewrite words, ``_rewrite_words``, are the prefixes r[:len(r)//2 + 1]
    of the symmetrized relators longer than 2, which every subword that
    greedy shortening replaces begins with, and the halves r[:len(r)//2] of
    the even-length ones, which every half swap replaces.  A freely reduced
    word that contains none of them is left as it is by both loops, so it
    is its own normal form: the product of a normal form g by a letter t
    other than the inverse of g's last letter is the word g + t, with no
    search, unless g + t contains a rewrite word.  The breadth-first ball
    on the base letters relies on this to send only those products here.
    """

    family = "dehn"

    def __init__(self, inv: tuple[int, ...], relators):
        self.inv = inv
        sym: set[bytes] = set()
        for rel in relators:
            r = _free_reduce_bytes(bytes(rel), inv)
            if not r:
                raise FormatError("a relator is freely trivial")
            while len(r) >= 2 and r[0] == inv[r[-1]]:
                r = r[1:-1]
                if not r:
                    raise FormatError("a relator is trivial after cyclic reduction")
            for w in (r, _invert_bytes(r, inv)):
                for i in range(len(w)):
                    sym.add(w[i:] + w[:i])
        self.symmetrized = sorted(sym)
        self._check_small_cancellation()
        # Greedy shortening looks for prefixes r[:k], len(r)//2 < k < len(r),
        # and each begins with r[:len(r)//2 + 1] (relators of length <= 2
        # have none); half swaps look for r[:len(r)//2] of even-length r.
        # So one search for these words tells exactly whether either loop
        # can change w.  The ordered loops stay the only code that picks a
        # replacement.
        long_prefixes = [r[:len(r) // 2 + 1] for r in self.symmetrized
                         if len(r) > 2]
        # each prefix r[:k] and the inverse of its complement, in the order
        # greedy shortening tries them: by relator, then longest first
        self._shortenings = [(r[:k], _invert_bytes(r[k:], inv))
                             for r in self.symmetrized
                             for k in range(len(r) - 1, len(r) // 2, -1)]
        halves = [r[:len(r) // 2] for r in self.symmetrized if len(r) % 2 == 0]
        self._long_prefixes = _any_of(long_prefixes)
        self._halves = _any_of(halves)
        # _rewritable asks for both at once.  An empty list leaves its loop a
        # no-op, so the joined pattern of the other list still decides.
        self._rewrite_words = tuple(long_prefixes + halves)
        self._rewritable = _any_of(self._rewrite_words)
        self.identity = b""
        self._nf_cache: dict[bytes, bytes] = {}

    def _check_small_cancellation(self):
        pieces = 0
        min_len = min(len(r) for r in self.symmetrized)
        for r1, r2 in itertools.combinations(self.symmetrized, 2):
            k = 0
            while k < min(len(r1), len(r2)) and r1[k] == r2[k]:
                k += 1
            pieces = max(pieces, k)
        if pieces * 6 >= min_len:
            warnings.warn(
                "presentation fails the metric small-cancellation condition; "
                "normal forms may not be canonical",
                stacklevel=4,
            )

    def _greedy_shorten(self, w: bytes) -> bytes:
        # Replace any subword longer than half a relator by the inverse of
        # the relator's complement, the first of _shortenings found each
        # time, until none remains.
        while self._long_prefixes.search(w):
            for prefix, repl in self._shortenings:
                i = w.find(prefix)
                if i >= 0:
                    w = _free_reduce_bytes(w[:i] + repl + w[i + len(prefix):],
                                           self.inv)
                    break
            else:
                return w
        return w

    def _half_swaps(self, w: bytes):
        # Length-preserving exchanges: replace an exact half of an
        # even-length relator by the inverse of the other half.
        if not self._halves.search(w):
            return
        n = len(w)
        for r in self.symmetrized:
            m = len(r)
            if m % 2:
                continue
            k = m // 2
            if k > n:
                continue
            prefix = r[:k]
            start = 0
            while True:
                i = w.find(prefix, start)
                if i < 0:
                    break
                repl = _invert_bytes(r[k:], self.inv)
                yield _free_reduce_bytes(w[:i] + repl + w[i + k:], self.inv)
                start = i + 1

    def _normalize(self, word: bytes) -> bytes:
        return self._normalize_reduced(_free_reduce_bytes(word, self.inv))

    def _normalize_reduced(self, w: bytes) -> bytes:
        if not self._rewritable.search(w):
            return w
        while True:
            w = self._greedy_shorten(w)
            if not w:
                return w
            seen = {w}
            queue = deque([w])
            best = w
            shorter = None
            while queue:
                u = queue.popleft()
                for v in self._half_swaps(u):
                    if len(v) < len(u):
                        shorter = v
                        break
                    v2 = self._greedy_shorten(v)
                    if len(v2) < len(u):
                        shorter = v2
                        break
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
                        if v < best:
                            best = v
                if shorter is not None:
                    break
                if len(seen) > DEHN_BUDGET:
                    raise ResourceLimit("rewriting search exceeded its budget")
            if shorter is None:
                return best
            w = shorter

    def from_word(self, ids: Iterable[int]) -> bytes:
        w = bytes(ids)
        if len(w) != 1:
            return self._normalize(w)
        cached = self._nf_cache.get(w)
        if cached is None:
            cached = self._nf_cache[w] = self._normalize(w)
        return cached

    def mult(self, a: bytes, b: bytes) -> bytes:
        # Keys are freely reduced, so free reduction of a + b only cancels
        # where a ends and b begins.
        ia = len(a)
        jb = 0
        while ia > 0 and jb < len(b) and a[ia - 1] == self.inv[b[jb]]:
            ia -= 1
            jb += 1
        return self._normalize_reduced(a[:ia] + b[jb:])

    def invert(self, a: bytes) -> bytes:
        return self.from_word(_invert_bytes(a, self.inv))

    def length(self, a: bytes) -> int:
        return len(a)

    def to_word(self, a: bytes) -> tuple[int, ...]:
        return tuple(a)


class GroupSpec:
    """A group presentation together with its word-problem engine."""

    def __init__(self, family: str, base: GeneratingSet, engine, payload: dict,
                 gensets: Optional[Mapping[str, GeneratingSet]] = None,
                 name: str = "G"):
        self.family = family
        self.base = base
        self.engine = engine
        self.payload = payload
        self.gensets = dict(gensets or {})
        self.name = name
        self._letter_pos = {a: i for i, a in enumerate(base.letters)}

    def __repr__(self):
        return f"GroupSpec({self.name!r}, family={self.family!r})"

    def identity(self) -> "GroupElement":
        return GroupElement(self, self.engine.identity)

    def letter_ids(self, word: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self._letter_pos[a] for a in word)
        except KeyError as exc:
            raise UnknownLetter(f"unknown letter {exc.args[0]!r}") from None

    def element(self, word: Sequence[str]) -> "GroupElement":
        """The element represented by a word over the base letters."""
        return GroupElement(self, self.engine.from_word(self.letter_ids(word)))

    def resolve(self, genset=None) -> "ResolvedGenSet":
        """Resolve a generating set (by object, by name, or the base set)."""
        if genset is None or (isinstance(genset, str) and genset == self.base.name):
            return ResolvedGenSet._from_base(self)
        if isinstance(genset, str):
            if genset not in self.gensets:
                raise FormatError(f"no generating set named {genset!r}")
            genset = self.gensets[genset]
        return ResolvedGenSet._from_foreign(self, genset)


@dataclass(frozen=True)
class GroupElement:
    """An immutable group element in canonical form."""

    group: GroupSpec
    key: object

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise ValueError("elements from different groups")
        return GroupElement(self.group, self.group.engine.mult(self.key, other.key))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group.engine.invert(self.key))

    def length(self) -> int:
        """Geodesic length with respect to the base generating set."""
        return self.group.engine.length(self.key)

    def word(self) -> tuple[str, ...]:
        """A geodesic word over the base letters spelling this element."""
        letters = self.group.base.letters
        return tuple(letters[i] for i in self.group.engine.to_word(self.key))

    def is_identity(self) -> bool:
        return self.key == self.group.engine.identity

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.group is self.group
            and other.key == self.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.is_identity():
            return "<e>"
        if self.group.family == "finite_table":
            return f"<g{self.key}>"
        return "<" + " ".join(self.word()) + ">"


class ResolvedGenSet:
    """A generating set bound to a group: letters resolved to elements."""

    def __init__(self, group: GroupSpec, genset: GeneratingSet,
                 elements: tuple[GroupElement, ...], is_base: bool):
        self.group = group
        self.genset = genset
        self.elements = elements
        self.is_base = is_base
        self.inverse_index = genset.inverse_index()
        for i, x in enumerate(elements):
            if x.is_identity():
                raise FormatError(
                    f"letter {genset.letters[i]!r} resolves to the identity"
                )
            if x.inverse() != elements[self.inverse_index[i]]:
                raise FormatError(
                    f"letters {genset.letters[i]!r} and "
                    f"{genset.letters[self.inverse_index[i]]!r} are not inverse"
                )
        if len(set(elements)) != len(elements):
            raise FormatError("two letters resolve to the same element")
        # Largest base length of a letter: a Lipschitz constant between the
        # two word metrics.
        self.max_letter_length = max(x.length() for x in elements)

    @property
    def letters(self) -> tuple[str, ...]:
        return self.genset.letters

    @property
    def name(self) -> str:
        return self.genset.name

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"ResolvedGenSet({self.name!r}, {len(self)} letters)"

    @classmethod
    def _from_base(cls, group: GroupSpec) -> "ResolvedGenSet":
        elements = tuple(
            GroupElement(group, group.engine.from_word((i,)))
            for i in range(len(group.base.letters))
        )
        return cls(group, group.base, elements, True)

    @classmethod
    def _from_foreign(cls, group: GroupSpec, genset: GeneratingSet) -> "ResolvedGenSet":
        elements = []
        for a in genset.letters:
            if genset.words and a in genset.words:
                elements.append(group.element(genset.words[a]))
            elif a in group._letter_pos:
                elements.append(group.element((a,)))
            else:
                raise UnknownLetter(
                    f"letter {a!r} is not a base letter and has no word assigned"
                )
        return cls(group, genset, tuple(elements), False)


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _letter_values(values, letters: Sequence[str], what: str) -> tuple:
    """The value assigned to each letter, in letter order."""
    if not isinstance(values, Mapping):
        raise FormatError(f"{what}s must be given as a mapping from letters")
    for a in letters:
        if a not in values:
            raise FormatError(f"letter {a!r} has no {what} assigned")
    return tuple(values[a] for a in letters)


def _validate_table(table) -> tuple[tuple[int, ...], ...]:
    try:
        tbl = tuple(tuple(row) for row in table)
    except TypeError:
        raise FormatError("multiplication table must be a list of rows") from None
    n = len(tbl)
    if n == 0:
        raise FormatError("empty multiplication table")
    for row in tbl:
        if len(row) != n or any(not (_is_int(v) and 0 <= v < n) for v in row):
            raise FormatError("multiplication table is not square over 0..n-1")
    for i in range(n):
        if tbl[0][i] != i or tbl[i][0] != i:
            raise FormatError("element 0 must act as the identity")
    for i in range(n):
        if 0 not in tbl[i]:
            raise FormatError(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            tij = tbl[i][j]
            for k in range(n):
                if tbl[tij][k] != tbl[i][tbl[j][k]]:
                    raise FormatError("multiplication table is not associative")
    return tbl


def free_group(rank: int, letters: Optional[Sequence[str]] = None,
               inverses: Optional[Mapping[str, str]] = None,
               name: str = "F") -> GroupSpec:
    """Free group of the given rank.

    Default letters are a, a^-1, b, b^-1, ... in pairs.
    """
    if not _is_int(rank) or rank < 1:
        raise FormatError("rank must be an integer of at least 1")
    if letters is None:
        names = "abcdefghijklmnopqrstuvwxyz"
        if rank > len(names):
            raise FormatError("rank too large for default letter names")
        letters = []
        inverses = {}
        for i in range(rank):
            letters += [names[i], names[i] + "^-1"]
            inverses[names[i]] = names[i] + "^-1"
    base = GeneratingSet(tuple(letters), dict(inverses), name="S")
    if len(base.letters) != 2 * rank:
        raise FormatError("a free group of rank r needs exactly 2r letters")
    inv = base.inverse_index()
    if any(inv[i] == i for i in range(len(inv))):
        raise FormatError("free group letters cannot be self-inverse")
    engine = _FreeEngine(inv)
    return GroupSpec("free", base, engine, {"rank": rank}, name=name)


def finite_table_group(table, letters: Sequence[str],
                       letter_elements: Mapping[str, int],
                       inverses: Mapping[str, str], name: str = "G") -> GroupSpec:
    """Finite group from a multiplication table (identity must be index 0)."""
    tbl = _validate_table(table)
    base = GeneratingSet(tuple(letters), dict(inverses), name="S")
    elems = _letter_values(letter_elements, base.letters, "table element")
    if any(not (_is_int(e) and 0 < e < len(tbl)) for e in elems):
        raise FormatError("letters must name nontrivial table elements")
    inv = base.inverse_index()
    for i, e in enumerate(elems):
        if tbl[e][elems[inv[i]]] != 0:
            raise FormatError("letter inverse pairing disagrees with the table")
    engine = _FiniteEngine(tbl, elems, inv)
    return GroupSpec("finite_table", base, engine, {"table": tbl}, name=name)


def free_product_group(tables, letters: Sequence[str],
                       letter_syllables: Mapping[str, tuple[int, int]],
                       inverses: Mapping[str, str], name: str = "G") -> GroupSpec:
    """Free product of finite-table factors.

    ``letter_syllables`` maps each letter to ``(factor index, element index)``.
    """
    try:
        tables = tuple(tables)
    except TypeError:
        raise FormatError("factors must be a list of multiplication tables") from None
    if len(tables) < 2:
        raise FormatError("a free product needs at least two factors")
    tbls = tuple(_validate_table(t) for t in tables)
    base = GeneratingSet(tuple(letters), dict(inverses), name="S")
    syls = _letter_values(letter_syllables, base.letters, "factor syllable")
    if any(not (isinstance(syl, Sequence) and len(syl) == 2
                and all(_is_int(v) for v in syl)) for syl in syls):
        raise FormatError("each letter must name a [factor, element] pair")
    syls = tuple(tuple(syl) for syl in syls)
    for f, e in syls:
        if not (0 <= f < len(tbls)):
            raise FormatError("letter assigned to a factor that does not exist")
        if not (0 < e < len(tbls[f])):
            raise FormatError("letters must name nontrivial factor elements")
    inv = base.inverse_index()
    for i, (f, e) in enumerate(syls):
        fi, ei = syls[inv[i]]
        if fi != f or tbls[f][e][ei] != 0:
            raise FormatError("letter inverse pairing disagrees with a factor table")
    engine = _FreeProductEngine(tbls, syls, inv)
    return GroupSpec("free_product", base, engine, {"tables": tbls}, name=name)


def dehn_group(relators: Sequence[Sequence[str]], letters: Sequence[str],
               inverses: Mapping[str, str], name: str = "G") -> GroupSpec:
    """Group presented by relators, processed with greedy replacement."""
    base = GeneratingSet(tuple(letters), dict(inverses), name="S")
    inv = base.inverse_index()
    pos = {a: i for i, a in enumerate(base.letters)}
    rel_ids = []
    for rel in relators:
        try:
            rel_ids.append(tuple(pos[a] for a in rel))
        except KeyError as exc:
            raise UnknownLetter(f"relator uses unknown letter {exc.args[0]!r}") from None
    if not rel_ids:
        raise FormatError("dehn family needs at least one relator")
    engine = _DehnEngine(inv, rel_ids)
    return GroupSpec("dehn", base, engine, {"relators": tuple(rel_ids)}, name=name)

