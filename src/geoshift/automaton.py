"""Finite automata whose paths enumerate a group sphere by sphere.

States are local isometry types: two elements are merged when the length
increments of all ball-of-radius-L translates agree and the trailing letters
of their first-found geodesic words agree.  The accepted language is the set
of breadth-first tree words (shortlex-least geodesics), so paths from the
start state of length n are in bijection with the sphere of radius n.

Construction is empirical: a candidate automaton is built from a finite ball
and then validated against an independent breadth-first oracle (path counts
per radius, geodesity, and injectivity).  If validation fails the
neighbourhood depth L is raised, up to a fixed maximum.  Both read only the
ball: products come from its neighbour table and lengths from its spheres,
so neither multiplies with the engine nor searches for a length.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import EmptySphere, FormatError, ResourceLimit, StabilizationFailure
from .geometry import BallTree, ball_tree, DEFAULT_BALL_BUDGET, _Spelled
from .groups import GroupElement, GroupSpec, ResolvedGenSet
from .randomness import ExactSampler, make_rng, scalar_draws

__all__ = [
    "GeodesicAutomaton",
    "ValidationReport",
    "build_geodesic_automaton",
    "validate_automaton",
    "sphere_count",
    "enumerate_sphere",
    "sample_uniform_sphere",
    "serialize_automaton",
    "deserialize_automaton",
]

LEVEL_MIN = 1     # first neighbourhood depth tried
LEVEL_MAX = 4     # last neighbourhood depth tried before giving up
SPOT_SAMPLES = 300  # random interior paths checked for geodesity
SAMPLE_BLOCK = 4096  # sphere samples and rays drawn and walked together


@dataclass
class GeodesicAutomaton:
    """Deterministic partial automaton over the letters of one generating set."""

    group: GroupSpec
    genset: ResolvedGenSet
    n_states: int
    initial: int
    transitions: dict  # (state, letter index) -> state
    level_used: int
    tail_used: int
    validated_to: int
    conflicts: int = 0
    _table: Optional[np.ndarray] = field(default=None, repr=False,
                                         compare=False)
    _succ: Optional[list] = field(default=None, repr=False, compare=False)
    _path_counts: Optional[list] = field(default=None, repr=False,
                                         compare=False)

    @property
    def table(self) -> np.ndarray:
        """(state, letter) -> target as intc, -1 for no edge, which counting,
        validation and sampling read; from ``transitions`` if not given."""
        if self._table is None:
            edges = np.array(list(self.transitions), np.intp).reshape(-1, 2)
            self._table = np.full((self.n_states, len(self.genset)), -1,
                                  dtype=np.intc)
            self._table[tuple(edges.T)] = list(self.transitions.values())
        return self._table

    def successors(self, state: int) -> tuple:
        """Outgoing (letter index, target) pairs, in letter order."""
        if self._succ is None:
            src, li = np.nonzero(self.table >= 0)
            pairs = list(zip(li.tolist(), self.table[src, li].tolist()))
            ends = np.searchsorted(src, range(self.n_states + 1)).tolist()
            self._succ = [tuple(pairs[a:b]) for a, b in zip(ends, ends[1:])]
        return self._succ[state]

    def path_counts(self, n: int) -> list[list[int]]:
        """counts[k][s] = number of length-k paths starting at state s:
        one gather-and-sum over :attr:`table` per radius, in int64 while
        the largest count times the largest out-degree is below 2^63."""
        if self._path_counts is None:
            self._path_counts = [[1] * self.n_states]
        counts, table = self._path_counts, self.table
        if len(counts) <= n:
            degree = int(np.count_nonzero(table >= 0, axis=1).max(initial=0))
        while len(counts) <= n:
            big = max(counts[-1]) * degree >= 1 << 63
            prev = np.array(counts[-1] + [0], object if big else np.int64)
            counts.append(prev[table].sum(axis=1).tolist())  # -1 reads 0
        return counts


def _first_rows(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each distinct value of `code`, in increasing order, the first
    row that holds it; and the rank of each row's value among them.

    ``return_index`` makes numpy sort stably, as the ordering of first rows
    below does: one sort routine is loaded instead of two, and its code
    counts towards the peak resident memory."""
    _, first, rank = np.unique(code, return_index=True, return_inverse=True)
    return first, rank


def _breadth_first(winner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States reachable from state 0 of a target table (-1, -2: none) in the
    order a first-in, first-out queue reading targets in (state, letter)
    order finds them: per level, its targets not yet numbered, in order of
    first appearance; and their rows, renumbered so, -1 for none."""
    renumber = np.full(len(winner) + 2, -1, dtype=np.intc)
    renumber[0] = 0
    order = wave = np.zeros(1, dtype=np.intc)
    while len(wave):
        targets = winner[wave].ravel()
        first = np.zeros(len(targets), dtype=bool)
        first[_first_rows(targets)[0]] = True
        wave = targets[first & (targets >= 0) & (renumber[targets] < 0)]
        renumber[wave] = np.arange(len(order), len(order) + len(wave))
        order = np.concatenate([order, wave])
    return order, renumber[winner[order]]


def _candidate(spec: GroupSpec, T: ResolvedGenSet, tree: BallTree, level: int,
               tail_len: int):
    """One construction attempt at a fixed neighbourhood depth.

    The signature of an element within the voting horizon is its row of
    its sphere's small-integer signature matrix.  The first `tail_len`
    columns hold the last letters of its tree word as letter index + 1,
    padded on the left with 0: its parent's, shifted left by one, then its
    own letter.  The rest hold level plus the length increments of all
    translates x*w with 1 <= |w| <= level, in breadth-first order of w:
    the products from the ball's neighbour table (every element this reads
    it for lies within distance radius - 1, so it was expanded), their
    distances from ``layer_bounds``.  Two rows are equal exactly when the
    tails and the increments are.

    States are numbered by first occurrence in the ball, as a dictionary
    from signature to state filled in position order would number them.
    A sphere's rows are ranked column by column into one int64 code,
    re-ranked whenever the next column could overflow it; one ``np.unique``
    then gives each distinct code its first row, and only the bytes of
    that row are looked up among the signatures of earlier spheres.

    Each element votes for the transitions out of its state, one vote per
    letter, and the first vote of each (state, letter) in position order
    wins; votes that differ from it count as conflicts.  In a sphere, a
    state's first votes are all cast by its first row there.
    """
    nt = len(T)
    vote_horizon = tree.radius() - level
    if vote_horizon < 1:
        raise ResourceLimit("validation horizon too small for this level")
    bounds = tree.layer_bounds
    edges = np.array(bounds, dtype=np.intc)
    nbr = np.frombuffer(tree.nbr, dtype=np.intc).reshape(-1, nt)
    parent = np.frombuffer(tree.parent, dtype=np.intc)
    letter = np.frombuffer(tree.letter, dtype=np.intc)
    inner = sum(nt ** k for k in range(level))  # words of length < level
    width = 2 * level + 1        # increments lie in [-level, level]
    bases = [nt + 1] * tail_len + [width] * (inner * nt)
    dtype = np.min_scalar_type(max(nt + 1, width))
    row_bytes = np.dtype((np.void, len(bases) * dtype.itemsize))

    sig_state: dict = {}
    # First vote of each state by each letter, and the number of votes that
    # disagree with it.  Only tree edges carry a target: x*T[li] must have
    # been found from x by li.
    unset = -2
    winner = np.empty((0, nt), dtype=np.intc)
    conflicts = 0
    for d in range(vote_horizon + 1):
        lo, hi = bounds[d], bounds[d + 1]
        sig = np.zeros((hi - lo, len(bases)), dtype=dtype)
        if d:
            up = parent[lo:hi] - bounds[d - 1]
            last = letter[lo:hi]
            sig[:, :tail_len - 1] = prev_sig[up, 1:tail_len]
            sig[:, tail_len - 1] = last + 1
        prods = [slice(lo, hi)]  # of the words of length < level, in order
        for p in range(inner):
            for li in range(nt):
                prod = nbr[prods[p], li]
                if len(prods) < inner:
                    prods.append(prod)
                # the sphere of each product, less d, plus level
                sig[:, tail_len + p * nt + li] = np.searchsorted(
                    edges, prod, side="right") - (d + 1 - level)
        code, codes = np.zeros(hi - lo, dtype=np.int64), 1
        for column, base in zip(sig.T, bases):
            if codes * base > 1 << 63:
                first, code = _first_rows(code)
                codes = len(first)
            code = code * base + column
            codes *= base
        first, rank = _first_rows(code)
        by_row = np.argsort(first, kind="stable")
        ids = np.empty(len(first), dtype=np.intc)
        ids[by_row] = [sig_state.setdefault(key, len(sig_state)) for key in
                       sig[first[by_row]].view(row_bytes).ravel().tolist()]
        states = ids[rank]
        if d:
            # votes of sphere d - 1: each child is the target of its tree
            # edge (parent, letter)
            out = np.full((len(prev_states), nt), -1, dtype=np.intc)
            out[up, last] = states
            if len(winner) < len(sig_state):
                winner = np.concatenate([winner, np.full(
                    (len(sig_state) - len(winner), nt), unset, dtype=np.intc)])
            fresh = winner[prev_ids, 0] == unset
            winner[prev_ids[fresh]] = out[prev_first[fresh]]
            conflicts += int(np.count_nonzero(winner[prev_states] != out))
        prev_states, prev_sig = states, sig
        prev_first, prev_ids = first, ids

    # Renumber states in breadth-first order from the start state, the
    # identity's, so equal inputs give byte-identical automata.
    order, table = _breadth_first(winner)
    src, li = np.nonzero(table >= 0)
    transitions = dict(zip(zip(src.tolist(), li.tolist()),
                           table[src, li].tolist()))
    return GeodesicAutomaton(
        group=spec,
        genset=T,
        n_states=len(order),
        initial=0,
        transitions=transitions,
        level_used=level,
        tail_used=tail_len,
        validated_to=0,
        conflicts=conflicts,
        _table=table,
    )


@dataclass
class ValidationReport:
    """Outcome of checking an automaton against the breadth-first oracle."""

    rows: list  # (n, path count, oracle count)
    first_mismatch: Optional[int]
    geodesic_failures: int
    injectivity_failures: int
    checked_to: int
    ok: bool

    def summary(self) -> str:
        lines = ["n  paths  oracle"]
        for n, a, b in self.rows:
            mark = "" if a == b else "   <- mismatch"
            lines.append(f"{n}  {a}  {b}{mark}")
        lines.append(
            f"geodesic failures: {self.geodesic_failures}, "
            f"injectivity failures: {self.injectivity_failures}"
        )
        return "\n".join(lines)


def _validate_against_tree(aut: GeodesicAutomaton, tree: BallTree,
                           seed: int = 0) -> ValidationReport:
    """Check path counts, geodesity and injectivity against the ball alone:
    products from its neighbour table, lengths from its spheres.

    Once the counts match, the automaton runs down the ball tree.  If it
    accepts every tree word, its words of each length are the tree words:
    as many, distinct, each at its own position at its exact distance, so
    none fails.  Only a rejected tree word calls :func:`_sweep`."""
    horizon = tree.radius()
    counts = aut.path_counts(horizon)
    rows = [(n, counts[n][aut.initial], tree.sphere_size(n))
            for n in range(horizon + 1)]
    first_mismatch = next((n for n, a, b in rows if a != b), None)

    geodesic_failures = injectivity_failures = 0
    if first_mismatch is None:
        bounds = tree.layer_bounds
        parent, letter = (np.frombuffer(a, dtype=np.intc)
                          for a in (tree.parent, tree.letter))
        states = np.array([aut.initial], dtype=np.intc)  # of the tree words
        for up, lo, hi in zip(bounds, bounds[1:], bounds[2:]):
            states = aut.table[states[parent[lo:hi] - up], letter[lo:hi]]
            if states.min(initial=0) < 0:  # a tree word is rejected
                geodesic_failures, injectivity_failures = _sweep(aut, tree)
                break
        # Spot checks from interior states: every path, wherever it starts,
        # must spell a geodesic word.  A walk of k <= horizon letters from
        # the identity steps only from positions within distance k - 1, so
        # through the neighbour table, and its length in T is the sphere
        # its end position lies in.  Draws replay ``rng.integers``.
        nt = len(aut.genset)
        draws = scalar_draws(make_rng(seed, stream=977))
        for _ in range(SPOT_SAMPLES):
            s = draws(aut.n_states)
            p = length = 0
            for _ in range(1 + draws(horizon)):
                succ = aut.successors(s)
                if not succ:
                    break
                li, s = succ[draws(len(succ))]
                p = tree.nbr[p * nt + li]
                length += 1
            if bisect_right(bounds, p) - 1 != length:
                geodesic_failures += 1

    ok = (first_mismatch is None and geodesic_failures == 0
          and injectivity_failures == 0)
    return ValidationReport(rows, first_mismatch, geodesic_failures,
                            injectivity_failures, horizon, ok)


def _sweep(aut: GeodesicAutomaton, tree: BallTree) -> tuple[int, int]:
    """Geodesic and injectivity failures of the accepted words, one length
    at a time: a word of d letters fails unless its position lies in
    sphere d, and so does a later copy of a position of its length.  Each
    level lists its (state, position) pairs in depth-first order, parents
    in order and letters last-first, read from ``table`` and ``nbr`` with
    their columns reversed: the copy kept and extended is the one a
    depth-first sweep would mark.  Only words shorter than the radius are
    extended, so every product is in the neighbour table."""
    horizon = tree.radius()
    nt = len(aut.genset)
    nbr = np.frombuffer(tree.nbr, dtype=np.intc).reshape(-1, nt)[:, ::-1]
    table = aut.table[:, ::-1]
    states = np.array([aut.initial], dtype=np.intc)
    pos = np.zeros(1, dtype=np.intc)
    geodesic_failures = injectivity_failures = 0
    for d in range(horizon + 1):
        lo, hi = tree.layer_bounds[d], tree.layer_bounds[d + 1]
        geodesic = (pos >= lo) & (pos < hi)
        geodesic_failures += len(pos) - int(np.count_nonzero(geodesic))
        states, pos = states[geodesic], pos[geodesic]
        # a copy is fresh when no earlier pair of the level holds it
        order = np.arange(len(pos), dtype=np.intc)
        first = np.full(hi - lo, len(pos), dtype=np.intc)
        np.minimum.at(first, pos - lo, order)
        fresh = first[pos - lo] == order
        injectivity_failures += len(pos) - int(np.count_nonzero(fresh))
        if d == horizon:
            break
        out = table[states[fresh]].ravel()
        at = np.flatnonzero(out >= 0)
        states = out[at]
        pos = nbr[pos[fresh]].ravel()[at]
    return geodesic_failures, injectivity_failures


def build_geodesic_automaton(spec: GroupSpec, T: Optional[ResolvedGenSet] = None,
                             n_check: int = 8, seed: int = 0
                             ) -> GeodesicAutomaton:
    """Build and validate an automaton for Cay(G, T).

    Starts at neighbourhood depth LEVEL_MIN and retries with the next depth
    when validation against the breadth-first oracle fails, up to
    LEVEL_MAX.  Raises StabilizationFailure carrying the last validation
    report when no level works; the report's first mismatch row names the
    failing radius.
    """
    return _build_with_report(spec, T, n_check, seed)[0]


def _build_with_report(spec: GroupSpec, T: Optional[ResolvedGenSet],
                       n_check: int, seed: int
                       ) -> tuple[GeodesicAutomaton, ValidationReport]:
    """The level loop of :func:`build_geodesic_automaton`; also hands back
    the accepting validation report, which is what re-validating the
    automaton against a fresh radius-n_check ball with the same seed gives."""
    if T is None:
        T = spec.resolve()
    tree = ball_tree(T, n_check)
    tail = LEVEL_MIN
    if spec.family == "dehn":
        longest = max(len(r) for r in spec.payload["relators"])
        tail = max(tail, longest // 2)
    last = None
    for lv in range(LEVEL_MIN, LEVEL_MAX + 1):
        try:
            aut = _candidate(spec, T, tree, lv, max(tail, lv))
        except ResourceLimit:
            break
        report = _validate_against_tree(aut, tree, seed=seed)
        if report.ok:
            aut.validated_to = n_check
            return aut, report
        last = report
    detail = ""
    if last is not None and last.first_mismatch is not None:
        detail = f"; first count mismatch at radius {last.first_mismatch}"
    raise StabilizationFailure(
        f"no level in [{LEVEL_MIN}, {LEVEL_MAX}] produced a valid automaton"
        f"{detail}",
        report=last,
    )


def validate_automaton(aut: GeodesicAutomaton, n: int,
                       seed: int = 0) -> ValidationReport:
    """Re-validate an automaton against a freshly computed oracle ball.

    Raises ValueError when the radius n is below 1: the spot checks walk
    between 1 and n letters."""
    if n < 1:
        raise ValueError(f"validation radius must be at least 1, got {n}")
    tree = ball_tree(aut.genset, n)
    return _validate_against_tree(aut, tree, seed=seed)


def sphere_count(aut: GeodesicAutomaton, n: int) -> int:
    """Number of elements at distance exactly n (exact integer)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return aut.path_counts(n)[n][aut.initial]


def enumerate_sphere(aut: GeodesicAutomaton, n: int) -> Iterator[GroupElement]:
    """Stream the sphere of radius n in shortlex order of accepted words."""
    spec = aut.group
    eng = spec.engine
    tkeys = [e.key for e in aut.genset.elements]
    if sphere_count(aut, n) > DEFAULT_BALL_BUDGET:
        raise ResourceLimit(f"sphere of radius {n} exceeds budget "
                            f"{DEFAULT_BALL_BUDGET}")

    # depth first; successors are pushed last letter first, to pop in order
    stack = [(aut.initial, eng.identity, 0)]
    while stack:
        state, gk, depth = stack.pop()
        if depth == n:
            yield GroupElement(spec, gk)
            continue
        for li, t in reversed(aut.successors(state)):
            stack.append((t, eng.mult(gk, tkeys[li]), depth + 1))


def _prefix_key(aut: GeodesicAutomaton):
    """The engine key of the element a list of letter indices spells: one
    ``engine.from_word`` of their base spellings.  That equals the fold of
    ``engine.mult`` over the letters on every engine, because each
    engine's key is the normal form of the element a word spells, whatever
    order it was put together in: the freely reduced word, the table
    element, the reduced syllable sequence, or the Dehn normal form."""
    eng = aut.group.engine
    spelled = [eng.to_word(e.key) for e in aut.genset.elements]
    return lambda letters: eng.from_word(
        [c for li in letters for c in spelled[li]])


def sample_uniform_sphere(aut: GeodesicAutomaton, n: int,
                          rng: np.random.Generator, count: int = 1
                          ) -> Sequence[GroupElement]:
    """Exactly uniform samples from the sphere of radius n.

    Each sample is one exact draw r below the size of the sphere,
    ``counts[n][initial]``, unranked into the r-th accepted word in
    shortlex order, the order of :func:`enumerate_sphere`.  Per radius k,
    a dense (state, letter) table of the running totals of ``counts[k - 1]``
    over the successors of s (zero where s has no edge) splits
    ``[0, counts[k][s])`` into one block per successor, as large as the
    number of words that go on through it.  A step takes the number of
    totals <= r as the letter, subtracts its block's start from r and moves
    to its target.  So r goes to a word one to one, and every element of
    the sphere has identical probability.

    Samples are drawn SAMPLE_BLOCK at a time, by one
    :meth:`ExactSampler.draws` each, and unranked with one array step per
    radius: in Python integers while ``max(counts[k]) >= 2**63``, in int64
    from there on.  A step compares r with the totals a letter column at a
    time, all but the last, which exceeds r, and reads block start and
    target at the flat index ``s * letters + letter``.  The result is a
    read-only sequence of GroupElements, their keys spelled on first read
    (one :func:`_prefix_key` each), and its ``letters`` is the (count, n)
    letter matrix.  Raises EmptySphere when the sphere has no elements,
    ValueError on a negative n or count.
    """
    if n < 0 or count < 0:
        raise ValueError("n and count must be nonnegative")
    counts = aut.path_counts(n)
    size = counts[n][aut.initial]
    if size == 0:
        raise EmptySphere(f"no elements at distance {n}")
    nt, target = len(aut.genset), aut.table.astype(np.intp)
    steps = []  # per radius n, ..., 1: (letter columns of totals, starts)
    for k in range(n, 0, -1):
        width = np.array(counts[k - 1], dtype=object)[target] * (target >= 0)
        ends = np.cumsum(width, axis=1)
        if max(counts[k]) < 1 << 63:
            ends, width = ends.astype(np.int64), width.astype(np.int64)
        steps.append((ends.T[:-1].copy(), (ends - width).ravel()))
    letters = np.empty((n, count), dtype=np.min_scalar_type(nt)).T
    with ExactSampler(rng) as sampler:
        for lo in range(0, count, SAMPLE_BLOCK):
            hi = min(lo + SAMPLE_BLOCK, count)
            r = sampler.draws(size, hi - lo)
            s = np.full(hi - lo, aut.initial, dtype=np.intp)
            for i, (ends, starts) in enumerate(steps):
                # uint64 draws against int64 totals would compare in float64
                r = r.astype(ends.dtype, copy=False)
                li = sum(column[s] <= r for column in ends)
                at = s * nt + li
                r = r - starts[at]
                s = target.ravel()[at]
                letters[lo:hi, i] = li
    spec, key = aut.group, _prefix_key(aut)
    out = _Spelled(count, lambda: [  # rows listed a block at a time
        GroupElement(spec, key(row)) for lo in range(0, count, SAMPLE_BLOCK)
        for row in letters[lo:lo + SAMPLE_BLOCK].tolist()])
    out.letters = letters
    return out


def serialize_automaton(aut: GeodesicAutomaton) -> str:
    """Flat text form; stable under round-trips."""
    lines = [
        "geodesic-automaton v1",
        f"genset {aut.genset.name}",
        "letters " + " ".join(aut.genset.letters),
        f"states {aut.n_states}",
        f"initial {aut.initial}",
        f"level {aut.level_used}",
        f"tail {aut.tail_used}",
        f"validated {aut.validated_to}",
        f"conflicts {aut.conflicts}",
    ]
    for (s, li), t in sorted(aut.transitions.items()):
        lines.append(f"edge {s} {li} {t}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _int_field(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{what} is not an integer: {text!r}") from None


def deserialize_automaton(text: str, spec: GroupSpec,
                          T: Optional[ResolvedGenSet] = None) -> GeodesicAutomaton:
    """Rebuild an automaton serialized by :func:`serialize_automaton`.

    Raises FormatError on a non-integer field, a state outside
    [0, states), a letter index outside the generating set or a second
    edge for one state and letter.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "geodesic-automaton v1":
        raise FormatError("not a serialized automaton")
    fields: dict[str, str] = {}
    edge_rows: list[str] = []
    for ln in lines[1:]:
        if ln == "end":
            break
        head, _, rest = ln.partition(" ")
        if head == "edge":
            edge_rows.append(rest)
        else:
            fields[head] = rest
    required = {"genset", "letters", "states", "initial", "level", "tail",
                "validated", "conflicts"}
    if not required <= set(fields):
        raise FormatError("serialized automaton is missing fields")
    if T is None:
        T = spec.resolve(fields["genset"] if fields["genset"] != spec.base.name
                         else None)
    if list(T.letters) != fields["letters"].split():
        raise FormatError("letters in the serialized automaton do not match")
    n_states, initial, level, tail, validated, conflicts = (
        _int_field(fields[k], k) for k in
        ("states", "initial", "level", "tail", "validated", "conflicts"))
    if not 0 <= initial < n_states:
        raise FormatError(f"initial state {initial} is not one of the "
                          f"{n_states} states")
    transitions: dict = {}
    for row in edge_rows:
        parts = row.split()
        if len(parts) != 3:
            raise FormatError(f"edge {row!r} needs source, letter and target")
        s, li, t = (_int_field(v, "edge field") for v in parts)
        if not (0 <= s < n_states and 0 <= t < n_states):
            raise FormatError(f"edge {row!r} leaves the {n_states} states")
        if not 0 <= li < len(T):
            raise FormatError(f"edge {row!r} uses a letter outside the "
                              f"{len(T)} of {T.name}")
        if (s, li) in transitions:
            raise FormatError(f"edge {row!r} repeats a state and letter")
        transitions[(s, li)] = t
    return GeodesicAutomaton(
        group=spec,
        genset=T,
        n_states=n_states,
        initial=initial,
        transitions=transitions,
        level_used=level,
        tail_used=tail,
        validated_to=validated,
        conflicts=conflicts,
    )
