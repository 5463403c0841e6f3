"""Finite automata whose paths enumerate a group sphere by sphere.

States are local isometry types: two elements are merged when the length
increments of all ball-of-radius-L translates agree and the trailing letters
of their first-found geodesic words agree.  The accepted language is the set
of breadth-first tree words (shortlex-least geodesics), so paths from the
start state of length n are in bijection with the sphere of radius n.

Construction is empirical: a candidate automaton is built from a finite ball
and then validated against an independent breadth-first oracle (path counts
per radius, geodesity, and injectivity).  If validation fails the
neighbourhood depth L is raised, up to a fixed maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import EmptySphere, FormatError, ResourceLimit, StabilizationFailure
from .geometry import BallTree, ball_tree, word_length, DEFAULT_BALL_BUDGET
from .groups import GroupElement, GroupSpec, ResolvedGenSet
from .randomness import ExactSampler, make_rng

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
    _succ: Optional[list] = field(default=None, repr=False)
    _path_counts: Optional[list] = field(default=None, repr=False)

    def successors(self, state: int) -> tuple:
        """Outgoing (letter index, target) pairs, in letter order."""
        if self._succ is None:
            succ: list[list] = [[] for _ in range(self.n_states)]
            for (s, li), t in sorted(self.transitions.items()):
                succ[s].append((li, t))
            self._succ = [tuple(v) for v in succ]
        return self._succ[state]

    def edges(self) -> list[tuple[int, int, int]]:
        """All transitions as (source, letter index, target), sorted."""
        return [(s, li, t) for (s, li), t in sorted(self.transitions.items())]

    def path_counts(self, n: int) -> list[list[int]]:
        """counts[k][s] = number of length-k paths starting at state s."""
        if self._path_counts is None:
            self._path_counts = [[1] * self.n_states]
        counts = self._path_counts
        while len(counts) <= n:
            prev = counts[-1]
            row = []
            for s in range(self.n_states):
                row.append(sum(prev[t] for _, t in self.successors(s)))
            counts.append(row)
        return counts


def _word_trie(n_letters: int, depth: int) -> list[tuple[int, int]]:
    """Prefix tree of all nonempty words of length <= depth; node = (parent, letter)."""
    nodes: list[tuple[int, int]] = [(-1, -1)]
    level = [0]
    for _ in range(depth):
        nxt = []
        for p in level:
            for li in range(n_letters):
                nxt.append(len(nodes))
                nodes.append((p, li))
        level = nxt
    return nodes


def _candidate(spec: GroupSpec, T: ResolvedGenSet, tree: BallTree, level: int,
               tail_len: int):
    """One construction attempt at a fixed neighbourhood depth."""
    eng = spec.engine
    tkeys = [e.key for e in T.elements]
    nt = len(tkeys)
    trie = _word_trie(nt, level)
    vote_horizon = tree.radius() - level
    if vote_horizon < 1:
        raise ResourceLimit("validation horizon too small for this level")
    top = tree.layer_bounds[vote_horizon + 1]
    depth, index = tree.depth, tree.index

    # Signature of each element within the voting horizon: length increments
    # of all translates x*w with |w| <= L, plus the trailing letters of the
    # breadth-first tree word.
    state_of = np.empty(top, dtype=np.int64)
    sig_state: dict = {}
    tails: list[tuple] = [()] * top
    prods: list = [None] * len(trie)
    for i in range(top):
        xk = tree.keys[i]
        d = depth[i]
        if i > 0:
            tails[i] = (tails[tree.parent[i]] + (tree.letter[i],))[-tail_len:]
        prods[0] = xk
        deltas = []
        for nid in range(1, len(trie)):
            p, li = trie[nid]
            k = eng.mult(prods[p], tkeys[li])
            prods[nid] = k
            deltas.append(depth[index[k]] - d)
        sig = (tuple(deltas), tails[i])
        sid = sig_state.get(sig)
        if sid is None:
            sid = len(sig_state)
            sig_state[sig] = sid
        state_of[i] = sid

    # Transitions, voted by every element that can see its children's
    # signatures; the first representative wins, disagreements are counted.
    vote_top = tree.layer_bounds[vote_horizon]
    trans_raw: dict = {}
    conflicts = 0
    for i in range(vote_top):
        s = int(state_of[i])
        xk = tree.keys[i]
        d = depth[i]
        for li in range(nt):
            ck = eng.mult(xk, tkeys[li])
            ci = index.get(ck)
            allowed = (
                ci is not None
                and ci < top
                and depth[ci] == d + 1
                and tree.parent[ci] == i
                and tree.letter[ci] == li
            )
            out = int(state_of[ci]) if allowed else -1
            prev = trans_raw.setdefault((s, li), out)
            if prev != out:
                conflicts += 1

    # Renumber states in breadth-first order from the start state and drop
    # anything unreachable, so equal inputs give byte-identical automata.
    initial_raw = int(state_of[0])
    remap = {initial_raw: 0}
    order = [initial_raw]
    qi = 0
    while qi < len(order):
        s = order[qi]
        qi += 1
        for li in range(nt):
            t = trans_raw.get((s, li), -1)
            if t >= 0 and t not in remap:
                remap[t] = len(remap)
                order.append(t)
    transitions = {
        (remap[s], li): remap[t]
        for (s, li), t in trans_raw.items()
        if t >= 0 and s in remap
    }
    return GeodesicAutomaton(
        group=spec,
        genset=T,
        n_states=len(remap),
        initial=0,
        transitions=transitions,
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
    spec = aut.group
    eng = spec.engine
    T = aut.genset
    tkeys = [e.key for e in T.elements]
    horizon = tree.radius()
    counts = aut.path_counts(horizon)
    rows = []
    first_mismatch = None
    for n in range(horizon + 1):
        a = counts[n][aut.initial]
        b = tree.sphere_size(n)
        rows.append((n, a, b))
        if a != b and first_mismatch is None:
            first_mismatch = n

    geodesic_failures = 0
    injectivity_failures = 0
    if first_mismatch is None:
        # Depth-first sweep: every accepted word must spell a fresh element
        # at its exact distance.
        index, depth = tree.index, tree.depth
        seen = bytearray(len(tree.keys))
        stack = [(aut.initial, eng.identity, 0)]
        while stack:
            s, gk, d = stack.pop()
            i = index.get(gk)
            if i is None or depth[i] != d:
                geodesic_failures += 1
                continue
            if seen[i]:
                injectivity_failures += 1
                continue
            seen[i] = 1
            if d < horizon:
                for li, t in aut.successors(s):
                    stack.append((t, eng.mult(gk, tkeys[li]), d + 1))
        # Spot checks from interior states: every path, wherever it starts,
        # must spell a geodesic word.
        rng = make_rng(seed, stream=977)
        for _ in range(SPOT_SAMPLES):
            s = int(rng.integers(aut.n_states))
            gk = eng.identity
            length = 0
            budget = int(rng.integers(1, horizon + 1))
            for _ in range(budget):
                succ = aut.successors(s)
                if not succ:
                    break
                li, s = succ[int(rng.integers(len(succ)))]
                gk = eng.mult(gk, tkeys[li])
                length += 1
            if length == 0:
                continue
            x = GroupElement(spec, gk)
            if word_length(x, T, cap=length) != length:
                geodesic_failures += 1

    ok = (first_mismatch is None and geodesic_failures == 0
          and injectivity_failures == 0)
    return ValidationReport(rows, first_mismatch, geodesic_failures,
                            injectivity_failures, horizon, ok)


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
            return aut
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
    """Re-validate an automaton against a freshly computed oracle ball."""
    tree = ball_tree(aut.genset, n)
    return _validate_against_tree(aut, tree, seed=seed)


def sphere_count(aut: GeodesicAutomaton, n: int) -> int:
    """Number of elements at distance exactly n (exact integer)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return aut.path_counts(n)[n][aut.initial]


def enumerate_sphere(aut: GeodesicAutomaton, n: int,
                     budget: int = DEFAULT_BALL_BUDGET) -> Iterator[GroupElement]:
    """Stream the sphere of radius n in shortlex order of accepted words."""
    spec = aut.group
    eng = spec.engine
    tkeys = [e.key for e in aut.genset.elements]
    if sphere_count(aut, n) > budget:
        raise ResourceLimit(f"sphere of radius {n} exceeds budget {budget}")

    def rec(state: int, gk, depth: int):
        if depth == n:
            yield GroupElement(spec, gk)
            return
        for li, t in aut.successors(state):
            yield from rec(t, eng.mult(gk, tkeys[li]), depth + 1)

    yield from rec(aut.initial, eng.identity, 0)


def sample_uniform_sphere(aut: GeodesicAutomaton, n: int,
                          rng: np.random.Generator, count: int = 1
                          ) -> list[GroupElement]:
    """Exactly uniform samples from the sphere of radius n.

    Walks the automaton with steps weighted by exact backward path counts,
    so every element of the sphere has identical probability.  Raises
    EmptySphere when the sphere has no elements.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    spec = aut.group
    eng = spec.engine
    mult = eng.mult
    tkeys = [e.key for e in aut.genset.elements]
    succ = [tuple((tkeys[li], t) for li, t in aut.successors(s))
            for s in range(aut.n_states)]
    counts = aut.path_counts(n)
    total = counts[n][aut.initial]
    if total == 0:
        raise EmptySphere(f"no elements at distance {n}")
    out = []
    with ExactSampler(rng) as sampler:
        randbelow = sampler.randbelow
        for _ in range(count):
            s = aut.initial
            gk = eng.identity
            for k in range(n, 0, -1):
                r = randbelow(counts[k][s])
                below = counts[k - 1]
                for key, t in succ[s]:
                    w = below[t]
                    if r < w:
                        s = t
                        gk = mult(gk, key)
                        break
                    r -= w
                else:  # pragma: no cover - counts guarantee a branch is taken
                    raise AssertionError("path count bookkeeping is "
                                         "inconsistent")
            out.append(GroupElement(spec, gk))
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
