"""Geodesic machines: construction, counting, validation, serialization."""

import dataclasses

import numpy as np
import pytest

from conftest import automaton_from_edges, ball_depths, successors
from geoshift import (
    EmptySphere,
    FormatError,
    build_geodesic_automaton,
    enumerate_sphere,
    make_rng,
    sample_uniform_sphere,
    serialize_automaton,
    sphere_count,
    validate_automaton,
)
from geoshift import automaton
from geoshift.automaton import (SPOT_SAMPLES, GeodesicAutomaton,
                                ValidationReport, _breadth_first, _candidate,
                                _validate_against_tree, deserialize_automaton)
from geoshift.errors import ResourceLimit
from geoshift.geometry import ball_tree, word_length
from geoshift.groups import (GroupElement, dehn_group, finite_table_group,
                             free_group)


def test_free_group_machine_shape(f2_aut):
    assert f2_aut.n_states == 5
    assert len(f2_aut.transitions) == 16
    assert f2_aut.conflicts == 0
    assert f2_aut.validated_to == 10


def test_free_group_sphere_counts(f2_aut):
    assert sphere_count(f2_aut, 0) == 1
    for n in range(1, 16):
        assert sphere_count(f2_aut, n) == 4 * 3 ** (n - 1)


def test_counts_agree_with_breadth_first_search(f2, f2_aut):
    # the ball tree is an independent walk of the group itself
    t = ball_tree(f2.resolve(None), 7)
    for n in range(8):
        assert sphere_count(f2_aut, n) == t.layer_bounds[n + 1] - t.layer_bounds[n]


def test_validation_report(f2_aut):
    rep = validate_automaton(f2_aut, 9)
    assert rep.ok
    assert rep.checked_to == 9
    assert rep.first_mismatch is None
    assert all(count == bfs for (_, count, bfs) in rep.rows)


def test_validation_radius_must_be_positive(f2_aut):
    with pytest.raises(ValueError, match="radius must be at least 1, got 0"):
        validate_automaton(f2_aut, 0)


def test_enumerate_sphere_lists_distinct_geodesics(f2, f2_aut):
    seen = set(enumerate_sphere(f2_aut, 4))
    assert len(seen) == sphere_count(f2_aut, 4) == 108
    assert all(x.length() == 4 for x in seen)


def test_enumerate_identity_sphere(f2, f2_aut):
    assert list(enumerate_sphere(f2_aut, 0)) == [f2.identity()]


def test_enumerate_sphere_needs_no_stack_frame_per_letter():
    # the two elements a^1500 and a^-1500, in letter order; a recursion per
    # letter would pass the interpreter's depth limit
    Z = free_group(1)
    aut = build_geodesic_automaton(Z, n_check=4)
    got = [x.key for x in enumerate_sphere(aut, 1500)]
    assert got == [bytes([0]) * 1500, bytes([1]) * 1500]


def test_uniform_sampler_stays_on_the_sphere(f2_aut):
    rng = make_rng(7)
    for x in sample_uniform_sphere(f2_aut, 9, rng, count=50):
        assert x.length() == 9


def test_uniform_sampler_is_seeded(f2_aut):
    a = sample_uniform_sphere(f2_aut, 6, make_rng(3), count=20)
    b = sample_uniform_sphere(f2_aut, 6, make_rng(3), count=20)
    assert a == b
    c = sample_uniform_sphere(f2_aut, 6, make_rng(4), count=20)
    assert a != c


def test_sampling_an_empty_sphere_fails(s3):
    aut = build_geodesic_automaton(s3, n_check=5)
    with pytest.raises(EmptySphere):
        sample_uniform_sphere(aut, 4, make_rng(0))


def test_sampling_a_negative_radius_fails(f2_aut):
    # a negative radius used to read path_counts from the end of the list
    with pytest.raises(ValueError, match="nonnegative"):
        sample_uniform_sphere(f2_aut, -4, make_rng(0))


def test_sampling_a_negative_count_fails(f2_aut):
    # a negative count used to give an empty list
    with pytest.raises(ValueError, match="nonnegative"):
        sample_uniform_sphere(f2_aut, 4, make_rng(0), count=-1)
    assert len(sample_uniform_sphere(f2_aut, 4, make_rng(0), count=0)) == 0


def test_sphere_samples_are_spelled_on_first_read(f2_aut, monkeypatch):
    eng = f2_aut.group.engine
    spelled = []
    from_word = eng.from_word
    monkeypatch.setattr(eng, "from_word",
                        lambda ids: spelled.append(1) or from_word(ids))
    xs = sample_uniform_sphere(f2_aut, 9, make_rng(7), count=50)
    assert len(xs) == 50 and xs.letters.shape == (50, 9)
    assert not spelled
    assert xs[3].length() == 9
    assert len(spelled) == 50
    assert [x.key for x in xs] == [from_word(row)
                                   for row in xs.letters.tolist()]
    assert len(spelled) == 50


def test_serialization_round_trip(f2, f2_aut):
    text = serialize_automaton(f2_aut)
    back = deserialize_automaton(text, f2)
    assert back.n_states == f2_aut.n_states
    assert back.transitions == f2_aut.transitions
    assert back.initial == f2_aut.initial
    for n in range(12):
        assert sphere_count(back, n) == sphere_count(f2_aut, n)


@pytest.mark.parametrize("group", ["f2", "psl2z", "s3"])
def test_an_automaton_equals_its_round_trip_with_its_caches_filled(request,
                                                                  group):
    spec = request.getfixturevalue(group)
    aut = build_geodesic_automaton(spec, n_check=6)
    aut.path_counts(8)
    automaton._unrank_steps(aut, 8)
    assert aut._path_counts is not None and len(aut._steps) == 8
    back = deserialize_automaton(serialize_automaton(aut), spec, aut.genset)
    for f in dataclasses.fields(GeodesicAutomaton):
        if f.name == "table":
            assert back.table.dtype == aut.table.dtype == np.intc
            assert np.array_equal(back.table, aut.table)
        elif not f.name.startswith("_"):
            assert getattr(back, f.name) == getattr(aut, f.name), f.name


@pytest.mark.parametrize("old,new", [
    ("end", "edge 1 9 2\nend"),       # letter 9 of a 4-letter set
    ("end", "edge 0 1 99\nend"),      # target outside the 5 states
    ("end", "edge -1 1 2\nend"),      # negative source
    ("initial 0", "initial 7"),
    ("states 5", "states x"),
    ("level 1", "level one"),
    ("end", "edge 1 2\nend"),         # no target
    ("end", "edge 1 b 2\nend"),
    ("end", "edge 0 0 2\nend"),       # a second target for state 0, letter 0
    ("end", "edge 1 1 0\nedge 1 1 3\nend"),  # a second edge after one to 0
])
def test_malformed_serialized_automaton(f2, old, new):
    text = serialize_automaton(build_geodesic_automaton(f2, n_check=4))
    assert deserialize_automaton(text, f2).n_states == 5
    assert old in text
    with pytest.raises(FormatError):
        deserialize_automaton(text.replace(old, new, 1), f2)


def test_modular_group_machine(psl_aut):
    assert psl_aut.n_states == 4
    assert len(psl_aut.transitions) == 7
    counts = [sphere_count(psl_aut, n) for n in range(9)]
    assert counts == [1, 3, 4, 6, 8, 12, 16, 24, 32]
    # doubling every two steps, once past the seam
    for n in range(2, 7):
        assert sphere_count(psl_aut, n + 2) == 2 * sphere_count(psl_aut, n)


def test_finite_group_spheres_die_out(s3):
    aut = build_geodesic_automaton(s3, n_check=5)
    counts = [sphere_count(aut, n) for n in range(6)]
    assert counts == [1, 3, 2, 0, 0, 0]
    assert sum(counts) == 6


def test_surface_group_machine(genus2_aut):
    aut = genus2_aut
    assert aut.tail_used == 4
    assert aut.n_states == 3193
    assert [sphere_count(aut, n) for n in range(7)] == [
        1, 8, 56, 392, 2736, 19096, 133288]
    assert validate_automaton(aut, 5).ok


def test_alternative_generators_get_their_own_machine(f2, f2_star_ab):
    aut = build_geodesic_automaton(f2, f2_star_ab, n_check=6)
    # six letters now, and bigger spheres
    assert sphere_count(aut, 1) == 6
    ball = ball_tree(f2_star_ab, 5)
    for n in range(6):
        assert sphere_count(aut, n) == ball.layer_bounds[n + 1] - ball.layer_bounds[n]


# ---------------------------------------------------------------------------
# Key-based reference: the construction, the validation sweep and the spot
# walks as they were before they read products from the ball's neighbour
# table.  Each one multiplies keys with the engine and looks every product
# up in the index; the spot walks take each length from word_length, an A*
# search on a foreign set.
# ---------------------------------------------------------------------------

def reference_word_trie(n_letters, depth):
    nodes = [(-1, -1)]
    level = [0]
    for _ in range(depth):
        nxt = []
        for p in level:
            for li in range(n_letters):
                nxt.append(len(nodes))
                nodes.append((p, li))
        level = nxt
    return nodes


def reference_candidate(spec, T, tree, level, tail_len):
    eng = spec.engine
    tkeys = [e.key for e in T.elements]
    nt = len(tkeys)
    trie = reference_word_trie(nt, level)
    vote_horizon = tree.radius() - level
    if vote_horizon < 1:
        raise ResourceLimit("validation horizon too small for this level")
    top = tree.layer_bounds[vote_horizon + 1]
    depth = ball_depths(tree)
    index = {k: i for i, k in enumerate(tree.keys)}
    state_of = np.empty(top, dtype=np.int64)
    sig_state = {}
    tails = [()] * top
    prods = [None] * len(trie)
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
    vote_top = tree.layer_bounds[vote_horizon]
    trans_raw = {}
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
    return automaton_from_edges(spec, T, len(remap), transitions,
                                level_used=level, tail_used=tail_len,
                                conflicts=conflicts)


def reference_validate(aut, tree, seed=0):
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
        index = {k: i for i, k in enumerate(tree.keys)}
        depth = ball_depths(tree)
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
                for li, t in successors(aut, s):
                    stack.append((t, eng.mult(gk, tkeys[li]), d + 1))
        rng = make_rng(seed, stream=977)
        for _ in range(SPOT_SAMPLES):
            s = int(rng.integers(aut.n_states))
            gk = eng.identity
            length = 0
            budget = int(rng.integers(1, horizon + 1))
            for _ in range(budget):
                succ = successors(aut, s)
                if not succ:
                    break
                li, s = succ[int(rng.integers(len(succ)))]
                gk = eng.mult(gk, tkeys[li])
                length += 1
            if length == 0:
                continue
            x = GroupElement(spec, gk)
            if word_length(x, T) != length:
                geodesic_failures += 1
    ok = (first_mismatch is None and geodesic_failures == 0
          and injectivity_failures == 0)
    return ValidationReport(rows, first_mismatch, geodesic_failures,
                            injectivity_failures, horizon, ok)


def with_transitions(aut, transitions):
    return automaton_from_edges(
        aut.group, aut.genset, aut.n_states, transitions,
        initial=aut.initial, level_used=aut.level_used,
        tail_used=aut.tail_used, conflicts=aut.conflicts)


def cyclic_group(n):
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return finite_table_group(table, letters=("t", "t^-1"),
                              letter_elements={"t": 1, "t^-1": n - 1},
                              inverses={"t": "t^-1"}, name=f"Z{n}")


@pytest.fixture(scope="module")
def z6():
    return cyclic_group(6)


@pytest.fixture(scope="module")
def z7():
    return cyclic_group(7)


@pytest.fixture(scope="module")
def long_relator():
    # one small-cancellation relator of 56 letters: tails keep 28 letters,
    # and 5^28 base-5 tail codes would not fit in int64
    relator = "aaaBAbbbABBBBabAbbbbaBaBAbbbbaaabbbbAbAbbbbaabAbAbABaabb"
    return dehn_group([list(relator)], letters=("a", "A", "b", "B"),
                      inverses={"a": "A", "b": "B"})


@pytest.fixture(scope="module")
def free64():
    # 128 letters: letter index + 1 reaches 128, past the largest int8
    letters = [f"x{i}{s}" for i in range(64) for s in ("", "^-1")]
    return free_group(64, letters=letters,
                      inverses={f"x{i}": f"x{i}^-1" for i in range(64)})


@pytest.mark.parametrize("group,radius,levels", [
    ("f2", 7, (1, 2, 3, 4)),
    ("psl2z", 10, (1, 2, 3, 4)),
    ("s3", 5, (1, 2, 3, 4)),    # levels 3 and 4 leave no voting horizon
    ("genus2", 5, (1, 3)),      # level 3: 8 + 64 + 512 = 584 columns
    ("f2:Sstar_ab", 5, (1, 2)),
    ("f2:Sstar_a2", 5, (1, 2)),
    ("psl2z:Sstar_st", 8, (1, 2, 3)),
    ("z6", 5, (1,)),
    ("z7", 5, (1,)),
    ("long_relator", 6, (1, 2)),
    ("genus2", 6, (1,)),        # as structure and the CLI build it
    ("free64", 2, (1,)),
])
def test_candidate_matches_the_key_based_reference(group, radius, levels,
                                                   request):
    name, _, genset = group.partition(":")
    spec = request.getfixturevalue(name)
    T = spec.resolve(genset or None)
    tree = ball_tree(T, radius)
    for lv in levels:
        tail = lv
        if spec.family == "dehn":
            tail = max(tail, max(map(len, spec.payload["relators"])) // 2)
        try:
            want = reference_candidate(spec, T, tree, lv, tail)
        except ResourceLimit:
            with pytest.raises(ResourceLimit):
                _candidate(spec, T, tree, lv, tail)
            continue
        got = _candidate(spec, T, tree, lv, tail)
        assert got.transitions == want.transitions
        assert got.conflicts == want.conflicts
        assert got.n_states == want.n_states
        # a cycle closes up at half its length: on each side, the last two
        # elements before it share a signature but not a successor
        assert got.conflicts == (2 if name in ("z6", "z7") else 0)


def reference_breadth_first(winner):
    """A first-in, first-out queue over the targets of a (state, letter)
    table, -1 and -2 for none: states in the order it finds them, and the
    table of those states renumbered so."""
    renumber = [0] + [-1] * (len(winner) + 1)
    order, targets = [0], winner.tolist()
    for s in order:  # order grows as states are found
        for t in targets[s]:
            if t >= 0 and renumber[t] < 0:
                renumber[t] = len(order)
                order.append(t)
    return order, np.array(renumber, dtype=np.intc)[winner[order]]


@pytest.mark.parametrize("seed", range(8))
def test_breadth_first_numbering_is_the_queue_order(seed):
    # random tables revisit states within and across levels, and the
    # sparser ones leave states unreachable
    rng = np.random.default_rng(seed)
    n, nt = int(rng.integers(1, 80)), int(rng.integers(1, 7))
    winner = rng.integers(-2, n, size=(n, nt)).astype(np.intc)
    winner[rng.random((n, nt)) < seed / 10] = -1
    order, table = _breadth_first(winner)
    want_order, want_table = reference_breadth_first(winner)
    assert order.tolist() == want_order
    assert table.dtype == np.intc
    assert table.tolist() == want_table.tolist()


@pytest.mark.parametrize("group,aut_fixture,radius", [
    ("f2", "f2_aut", 8),
    ("psl2z", "psl_aut", 10),
    ("s3", None, 5),
    ("genus2", "genus2_aut", 5),
])
def test_validation_matches_the_key_based_reference(group, aut_fixture,
                                                    radius, request):
    spec = request.getfixturevalue(group)
    aut = (request.getfixturevalue(aut_fixture) if aut_fixture
           else build_geodesic_automaton(spec, n_check=5))
    tree = ball_tree(aut.genset, radius)
    for seed in (0, 5):
        got = _validate_against_tree(aut, tree, seed=seed)
        assert got.ok
        assert got == reference_validate(aut, tree, seed=seed)


def test_mutants_fail_validation_like_the_reference(f2_aut):
    tree = ball_tree(f2_aut.genset, 8)
    edges = dict(f2_aut.transitions)
    (s, li), t = next((k, v) for k, v in sorted(edges.items()) if k[0] > 0)
    other = next(u for u in range(1, f2_aut.n_states) if u != t)
    missing = next((q, lj) for q in range(1, f2_aut.n_states)
                   for lj in range(len(f2_aut.genset))
                   if (q, lj) not in edges)
    redirected = with_transitions(f2_aut, {**edges, (s, li): other})
    deleted = with_transitions(
        f2_aut, {k: v for k, v in edges.items() if k != (s, li)})
    added = with_transitions(f2_aut, {**edges, missing: t})
    for mutant in (redirected, deleted, added):
        got = _validate_against_tree(mutant, tree)
        assert not got.ok
        assert got == reference_validate(mutant, tree)
    # equal counts: only the sweep can catch the redirected edge
    redirected_report = _validate_against_tree(redirected, tree)
    assert redirected_report.first_mismatch is None
    assert redirected_report.geodesic_failures > 0


def test_repeated_geodesics_fail_injectivity_like_the_reference():
    # Z2^3 on its three involutions a, b, c has spheres of sizes 1, 3, 3, 1.
    # The machine accepts a, b, c, ab, ba, ca and baa: the counts agree,
    # but ab and ba spell one element, so sphere 2 is hit twice there and
    # never at bc.  A depth-first sweep visits ba before ab and extends ba,
    # whose successor baa is not geodesic; had it kept ab, which has no
    # successor, its sweep would find no geodesic failure.
    z2_cubed = finite_table_group(
        [[i ^ j for j in range(8)] for i in range(8)], ("a", "b", "c"),
        {"a": 1, "b": 2, "c": 4}, {"a": "a", "b": "b", "c": "c"})
    T = z2_cubed.resolve(None)
    mutant = automaton_from_edges(
        z2_cubed, T, 8,
        {(0, 0): 1, (0, 1): 2, (0, 2): 3, (1, 1): 4, (2, 0): 5, (3, 0): 6,
         (5, 0): 7})
    tree = ball_tree(T, 3)
    assert [sphere_count(mutant, n) for n in range(4)] == [1, 3, 3, 1]
    for seed in (0, 5):
        got = _validate_against_tree(mutant, tree, seed=seed)
        assert got == reference_validate(mutant, tree, seed=seed)
        assert got.first_mismatch is None
        assert got.injectivity_failures == 1
        assert got.geodesic_failures >= 1
        assert not got.ok


def test_rejected_tree_words_send_a_valid_machine_to_the_sweep(
        monkeypatch):
    # The reversed-order shortlex machine on Z2^3: it accepts a, b, c, ba,
    # ca, cb and cba, one geodesic word per element, so it is valid; but it
    # rejects the tree words ab, ac, bc and abc.  Only the sweep can tell
    # that its words are geodesic and distinct.
    z2_cubed = finite_table_group(
        [[i ^ j for j in range(8)] for i in range(8)], ("a", "b", "c"),
        {"a": 1, "b": 2, "c": 4}, {"a": "a", "b": "b", "c": "c"})
    T = z2_cubed.resolve(None)
    reversed_order = automaton_from_edges(
        z2_cubed, T, 8,
        {(0, 0): 1, (0, 1): 2, (0, 2): 3, (2, 0): 4, (3, 0): 5, (3, 1): 6,
         (6, 0): 7})
    tree = ball_tree(T, 3)
    assert [sphere_count(reversed_order, n) for n in range(4)] == [1, 3, 3, 1]
    assert [tree.tree_word(i) for i in range(4, 8)] == [
        (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    sweeps = []
    sweep = automaton._sweep
    monkeypatch.setattr(automaton, "_sweep",
                        lambda *a: sweeps.append(1) or sweep(*a))
    for seed in (0, 5):
        got = _validate_against_tree(reversed_order, tree, seed=seed)
        assert got == reference_validate(reversed_order, tree, seed=seed)
        assert got.ok
        assert (got.geodesic_failures, got.injectivity_failures) == (0, 0)
    assert len(sweeps) == 2


def _no_sweep(*args):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("group,genset,n_check", [
    ("f2", None, 10), ("psl2z", None, 16), ("s3", None, 8),
    ("genus2", None, 6), ("f2", "Sstar_ab", 8)])
def test_stock_machines_accept_every_tree_word(group, genset, n_check,
                                               request, monkeypatch):
    # the path counts and the run down the ball tree prove these machines
    # geodesic and injective, so the sweep never runs
    spec = request.getfixturevalue(group)
    want = build_geodesic_automaton(spec, spec.resolve(genset),
                                    n_check=n_check)
    monkeypatch.setattr(automaton, "_sweep", _no_sweep)
    got = build_geodesic_automaton(spec, spec.resolve(genset),
                                   n_check=n_check)
    assert serialize_automaton(got) == serialize_automaton(want)


def test_revalidation_past_the_build_radius_skips_the_sweep(f2_aut,
                                                            monkeypatch):
    monkeypatch.setattr(automaton, "_sweep", _no_sweep)
    report = validate_automaton(f2_aut, 11)
    assert report.ok and report.checked_to == 11


@pytest.mark.parametrize("group,radius", [("f2", 8), ("psl2z", 10),
                                          ("s3", 5)])
def test_construction_and_sweep_do_not_multiply(group, radius, request,
                                                monkeypatch):
    spec = request.getfixturevalue(group)
    T = spec.resolve(None)
    tree = ball_tree(T, radius)
    calls = []
    mult = spec.engine.mult

    def counted(a, b):
        calls.append(1)
        return mult(a, b)

    monkeypatch.setattr(spec.engine, "mult", counted)
    for lv in (1, 2):
        aut = _candidate(spec, T, tree, lv, lv)
        assert calls == []
        rep = _validate_against_tree(aut, tree)
        assert calls == []
        if rep.ok:
            break
    assert rep.ok


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"validation read engine.{name}")


@pytest.mark.parametrize("group,genset,radius", [
    ("f2", None, 8), ("f2", "Sstar_ab", 6), ("psl2z", "Sstar_st", 8)])
def test_validation_reads_only_its_ball(group, genset, radius, request,
                                        monkeypatch):
    # no engine method, so no product and no length search either
    spec = request.getfixturevalue(group)
    T = spec.resolve(genset)
    aut = build_geodesic_automaton(spec, T, n_check=radius)
    tree = ball_tree(T, radius)
    want = reference_validate(aut, tree)
    monkeypatch.setattr(spec, "engine", _Untouchable())
    assert _validate_against_tree(aut, tree) == want


def letter_swaps(aut):
    """Every mutant that swaps the targets of two edges out of one state.
    Each keeps every state's multiset of targets, so every path count: only
    the sweep and the spot walks can catch them."""
    out = []
    for s in range(aut.n_states):
        succ = successors(aut, s)
        for i, (a, t) in enumerate(succ):
            for b, u in succ[i + 1:]:
                if t != u:
                    out.append(with_transitions(
                        aut, {**aut.transitions, (s, a): u, (s, b): t}))
    return out


def rejects_a_tree_word(aut, tree):
    """Whether some tree word of the ball leaves the automaton, each word
    walked along ``transitions`` from the start state."""
    edges = aut.transitions
    for i in range(tree.layer_bounds[-1]):
        s = aut.initial
        for li in tree.tree_word(i):
            s = edges.get((s, li))
            if s is None:
                return True
    return False


@pytest.mark.parametrize("group,genset,radius", [
    ("f2", None, 7), ("f2", "Sstar_ab", 5), ("psl2z", None, 9),
    ("psl2z", "Sstar_st", 7), ("s3", None, 4)])
def test_letter_swaps_fail_validation_like_the_spot_walk_oracle(
        group, genset, radius, request, monkeypatch):
    spec = request.getfixturevalue(group)
    T = spec.resolve(genset)
    aut = build_geodesic_automaton(spec, T, n_check=radius)
    tree = ball_tree(T, radius)
    caught = swept = 0
    sweeps = []
    sweep = automaton._sweep
    monkeypatch.setattr(automaton, "_sweep",
                        lambda *a: sweeps.append(1) or sweep(*a))
    for seed, mutant in enumerate(letter_swaps(aut)):
        got = _validate_against_tree(mutant, tree, seed=seed)
        assert got.first_mismatch is None
        assert got == reference_validate(mutant, tree, seed=seed)
        caught += got.geodesic_failures > 0
        # the sweep runs exactly for the mutants that reject a tree word
        assert len(sweeps) == swept + rejects_a_tree_word(mutant, tree)
        swept = len(sweeps)
    assert caught and swept


def reference_path_counts(aut, n):
    """The per-state loop over the transitions themselves: counts[k][s]
    sums counts[k - 1] over the targets of s, in Python integers."""
    targets = [[] for _ in range(aut.n_states)]
    for (s, _), t in aut.transitions.items():
        targets[s].append(t)
    counts = [[1] * aut.n_states]
    for _ in range(n):
        prev = counts[-1]
        counts.append([sum(prev[t] for t in ts) for ts in targets])
    return counts


@pytest.mark.parametrize("group,genset,n_check", [
    ("f2", None, 8), ("psl2z", None, 10), ("s3", None, 5),
    ("genus2", None, 6), ("f2", "Sstar_ab", 6)])
def test_path_counts_match_the_per_state_loop(group, genset, n_check,
                                              request):
    spec = request.getfixturevalue(group)
    aut = build_geodesic_automaton(spec, spec.resolve(genset),
                                   n_check=n_check)
    # genus 2's counts pass 2^63 at radius 23, F2 on Sstar_ab's at 32
    want = reference_path_counts(aut, 40)
    rebuilt = with_transitions(aut, aut.transitions)
    assert rebuilt.path_counts(40) == want
    assert aut.path_counts(40) == want  # its table came from _candidate
    assert aut.table.dtype == rebuilt.table.dtype == np.intc
    assert np.array_equal(aut.table, rebuilt.table)
    assert all(type(c) is int for row in want for c in row)


def test_path_counts_leave_int64_at_the_first_radius_that_could_overflow(
        f2_aut, monkeypatch):
    want = reference_path_counts(f2_aut, 700)
    aut = with_transitions(f2_aut, f2_aut.transitions)
    assert aut.table is aut.table  # built once, before the spy below
    dtypes = []

    class Spy:
        """numpy, noting the dtype of each array made: one per radius."""

        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, obj, dtype=None):
            dtypes.append(dtype)
            return np.array(obj, dtype)

    monkeypatch.setattr(automaton, "np", Spy())
    for n in range(38, 46):
        assert aut.path_counts(n) == want[:n + 1]
    # radius k reads counts[k - 1], at most 4 * 3^(k - 2) at the start
    # state, which has 4 successors: 16 * 3^37 < 2^63 <= 16 * 3^38, and
    # 4 * 3^39, the count at radius 40, overflows int64
    assert 16 * 3 ** 37 < 2 ** 63 <= 16 * 3 ** 38 and 4 * 3 ** 39 >= 2 ** 63
    assert dtypes[:39] == [np.int64] * 39
    assert dtypes[39:] == [object] * 6
    assert aut.path_counts(700) == want
    assert want[700][0] == 4 * 3 ** 699


@pytest.mark.parametrize("transitions", [
    {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 3): 2},  # state 2 is a dead end
    {}])
def test_path_counts_read_no_edge_as_zero(f2, transitions):
    aut = automaton_from_edges(f2, f2.resolve(None), 3, transitions)
    want = reference_path_counts(aut, 12)
    assert aut.path_counts(12) == want
    assert [row[0] for row in want] == ([1] + [2] * 12 if transitions
                                        else [1] + [0] * 12)
