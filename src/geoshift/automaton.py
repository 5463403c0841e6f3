"""Finite automata whose paths enumerate a group sphere by sphere.

States are local isometry types: two elements are merged when the length
increments of all ball-of-radius-L translates agree and the trailing letters
of their first-found geodesic words agree.  The accepted language is the set
of breadth-first tree words (shortlex-least geodesics), so paths from the
start state of length n are in bijection with the sphere of radius n.  An
automaton is its (state, letter) -> target table and nothing besides.

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


@dataclass(eq=False)
class GeodesicAutomaton:
    """Deterministic partial automaton over the letters of one generating
    set: ``table[state, letter]`` is a C int target, -1 for no edge."""

    group: GroupSpec
    genset: ResolvedGenSet
    table: np.ndarray
    initial: int
    level_used: int
    tail_used: int
    validated_to: int
    conflicts: int = 0
    _path_counts: Optional[list] = field(default=None, repr=False)
    _steps: list = field(default_factory=list, repr=False)  # radius k at k - 1

    @property
    def n_states(self) -> int:
        return len(self.table)

    @property
    def transitions(self) -> dict:
        """(state, letter index) -> target of each edge, in that order."""
        src, li = np.nonzero(self.table >= 0)
        return dict(zip(zip(src.tolist(), li.tolist()),
                        self.table[src, li].tolist()))

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
    _, table = _breadth_first(winner)
    return GeodesicAutomaton(
        group=spec,
        genset=T,
        table=table,
        initial=0,
        level_used=level,
        tail_used=tail_len,
        validated_to=0,
        conflicts=conflicts,
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
        src, col = np.nonzero(aut.table >= 0)  # in (state, letter) order
        edges = list(zip(col.tolist(), aut.table[src, col].tolist()))
        start = np.searchsorted(src, range(aut.n_states + 1)).tolist()
        draws = scalar_draws(make_rng(seed, stream=977))
        for _ in range(SPOT_SAMPLES):
            s = draws(aut.n_states)
            p = length = 0
            for _ in range(1 + draws(horizon)):
                lo, hi = start[s], start[s + 1]  # the edges out of s
                if lo == hi:
                    break
                li, s = edges[lo + draws(hi - lo)]
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
    """Stream the sphere of radius n in shortlex order of accepted words:
    ranks 0, 1, ... unranked SAMPLE_BLOCK at a time as the sampler's draws
    are, each word spelled by :func:`_prefix_key`, with no engine product.
    Raises ResourceLimit past DEFAULT_BALL_BUDGET elements."""
    size = sphere_count(aut, n)
    if size > DEFAULT_BALL_BUDGET:
        raise ResourceLimit(f"sphere of radius {n} exceeds budget "
                            f"{DEFAULT_BALL_BUDGET}")
    spec, key = aut.group, _prefix_key(aut)
    letters = np.empty((n, min(size, SAMPLE_BLOCK)),
                       dtype=np.min_scalar_type(len(aut.genset))).T
    for lo in range(0, size, SAMPLE_BLOCK):
        r = np.arange(lo, min(lo + SAMPLE_BLOCK, size), dtype=np.uint64)
        _unrank(aut, n, r, letters[:len(r)])
        for row in letters[:len(r)].tolist():
            yield GroupElement(spec, key(row))


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


def _unrank_steps(aut: GeodesicAutomaton, n: int) -> list:
    """Unranking tables of radii n, ..., 1, kept and extended like the path
    counts.  Radius k's running totals of ``counts[k - 1]`` over the edges
    out of s split ``[0, counts[k][s])`` into one block per edge: all their
    letter columns but the last, and each block's flat start."""
    counts, steps, target = aut.path_counts(n), aut._steps, aut.table
    for k in range(len(steps) + 1, n + 1):
        width = np.array(counts[k - 1], dtype=object)[target] * (target >= 0)
        ends = np.cumsum(width, axis=1)
        if max(counts[k]) < 1 << 63:
            ends, width = ends.astype(np.int64), width.astype(np.int64)
        steps.append((ends.T[:-1].copy(), (ends - width).ravel()))
    return steps[:n][::-1]


def _unrank(aut: GeodesicAutomaton, n: int, r: np.ndarray,
            letters: np.ndarray) -> None:
    """Write the accepted word of length n of each rank in r into its row
    of `letters`.  A step per radius takes the number of totals <= r as the
    letter, a letter column at a time, subtracts its block's start from r
    and moves to its target, both read at the flat index ``s * nt + li``."""
    nt, target = len(aut.genset), aut.table.astype(np.intp).ravel()
    s = np.full(len(r), aut.initial, dtype=np.intp)
    for i, (ends, starts) in enumerate(_unrank_steps(aut, n)):
        # uint64 ranks against int64 totals would compare in float64
        r = r.astype(ends.dtype, copy=False)
        li = sum(column[s] <= r for column in ends)
        at = s * nt + li
        r = r - starts[at]
        s = target[at]
        letters[:, i] = li


def sample_uniform_sphere(aut: GeodesicAutomaton, n: int,
                          rng: np.random.Generator, count: int = 1
                          ) -> Sequence[GroupElement]:
    """Exactly uniform samples from the sphere of radius n.

    Each sample is one exact draw r below the size of the sphere, taken
    SAMPLE_BLOCK at a time by :meth:`ExactSampler.draws`, unranked into the
    r-th accepted word in the order of :func:`enumerate_sphere`.  The
    result is a read-only sequence of GroupElements, spelled on first read
    (one :func:`_prefix_key` each); its ``letters`` is the (count, n)
    letter matrix.  Raises EmptySphere when the sphere has no elements,
    ValueError on a negative n or count.
    """
    if n < 0 or count < 0:
        raise ValueError("n and count must be nonnegative")
    size = sphere_count(aut, n)
    if size == 0:
        raise EmptySphere(f"no elements at distance {n}")
    letters = np.empty((n, count),
                       dtype=np.min_scalar_type(len(aut.genset))).T
    with ExactSampler(rng) as sampler:
        for lo in range(0, count, SAMPLE_BLOCK):
            hi = min(lo + SAMPLE_BLOCK, count)
            _unrank(aut, n, sampler.draws(size, hi - lo), letters[lo:hi])
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
    for (s, li), t in aut.transitions.items():
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
    table = np.full((n_states, len(T)), -1, dtype=np.intc)
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
        if table[s, li] >= 0:
            raise FormatError(f"edge {row!r} repeats a state and letter")
        table[s, li] = t
    return GeodesicAutomaton(
        group=spec,
        genset=T,
        table=table,
        initial=initial,
        level_used=level,
        tail_used=tail,
        validated_to=validated,
        conflicts=conflicts,
    )
