"""Word-problem engines: free groups, free products, finite tables, Dehn."""

import hashlib
import itertools
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ball_depths
from geoshift import (
    FormatError,
    UnknownLetter,
    free_group,
    free_product_group,
    make_rng,
    parse_group_file,
    sample_uniform_sphere,
)
from geoshift.geometry import ball_tree
from geoshift.groups import (_free_reduce_bytes, _invert_bytes, dehn_group,
                             finite_table_group)

F = free_group(2)
A, AI, B, BI = "a", "a^-1", "b", "b^-1"
LETTERS = (A, AI, B, BI)


def test_identity():
    e = F.identity()
    assert e.is_identity()
    assert e.length() == 0
    assert e.word() == ()


def test_free_reduction():
    assert F.element([A, AI]).is_identity()
    assert F.element([A, B, BI, AI]).is_identity()
    assert F.element([A, B, BI]).word() == (A,)
    assert F.element([A, A, AI, B]).word() == (A, B)


def test_multiplication_and_inverse():
    x = F.element([A, B])
    y = F.element([BI, A])
    assert (x * y).word() == (A, A)
    assert x.inverse().word() == (BI, AI)
    assert (x * x.inverse()).is_identity()


def test_length_is_reduced_length():
    assert F.element([A, B, A, BI]).length() == 4
    assert F.element([A, AI, A]).length() == 1


def test_unknown_letter():
    with pytest.raises(UnknownLetter):
        F.element(["c"])


words = st.lists(st.sampled_from(LETTERS), max_size=12)


@given(words, words)
def test_free_group_is_a_group(u, v):
    x, y = F.element(u), F.element(v)
    assert (x * y) * y.inverse() == x
    assert (x * y).inverse() == y.inverse() * x.inverse()
    assert x.length() <= len(u)


@given(words, words, words)
def test_associativity(u, v, w):
    x, y, z = F.element(u), F.element(v), F.element(w)
    assert (x * y) * z == x * (y * z)


# --- free products ---

Z2 = ((0, 1), (1, 0))
Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@pytest.fixture(scope="module")
def modular():
    return free_product_group(
        (Z2, Z3),
        letters=("s", "t", "t^-1"),
        letter_syllables={"s": (0, 1), "t": (1, 1), "t^-1": (1, 2)},
        inverses={"s": "s", "t": "t^-1", "t^-1": "t"},
        name="PSL2Z",
    )


def test_free_product_torsion(modular):
    s = modular.element(["s"])
    t = modular.element(["t"])
    assert (s * s).is_identity()
    assert (t * t * t).is_identity()
    assert (t * t) == t.inverse()
    assert not (s * t).is_identity()


def test_free_product_normal_form(modular):
    # alternating syllables never collapse
    st_ = modular.element(["s", "t"])
    assert (st_ * st_ * st_).length() == 6
    assert modular.element(["t", "t"]).length() == 1  # t^2 = t^-1
    assert modular.element(["s", "t", "t", "t", "s"]).is_identity()


def test_free_product_lengths(modular):
    # |s t s t^-1 s| mixes both factors
    x = modular.element(["s", "t", "s", "t^-1", "s"])
    assert x.length() == 5
    assert x.inverse().length() == 5


def _fold_mult(eng, a, b):
    """The syllable-by-syllable product: push each syllable of b onto a,
    merging with or cancelling against the last one in the same factor."""
    out = list(a)
    for f, e in b:
        if out and out[-1][0] == f:
            prod = eng.tables[f][out[-1][1]][e]
            out.pop()
            if prod != 0:
                out.append((f, prod))
        else:
            out.append((f, e))
    return tuple(out)


@pytest.fixture(scope="module")
def s3_star_z2(s3):
    # S3 is nonabelian, so products within its factor merge in both orders
    return free_product_group(
        (s3.engine.table, Z2),
        letters=("r", "r^-1", "f", "s"),
        letter_syllables={"r": (0, 1), "r^-1": (0, 2), "f": (0, 3),
                          "s": (1, 1)},
        inverses={"r": "r^-1", "r^-1": "r", "f": "f", "s": "s"},
    )


letter_ids = st.lists(st.integers(0, 3), max_size=10)


@pytest.mark.parametrize("which", ["psl2z", "s3_star_z2"])
@given(u=letter_ids, c=letter_ids, w=letter_ids, v=letter_ids)
@settings(max_examples=300, deadline=None)
def test_junction_product_matches_the_syllable_fold(request, which, u, c, w, v):
    eng = request.getfixturevalue(which).engine
    k = len(eng.letter_syllables)
    u, c, w, v = ([i % k for i in ids] for ids in (u, c, w, v))
    # b opens with the inverse of a's tail c, so the junction cancels all
    # of c and then meets u against w: cascades, merges or a clean join
    c_inv = [eng.inv[i] for i in reversed(c)]
    a, b = eng.from_word(u + c), eng.from_word(c_inv + w)
    assert eng.mult(a, b) == _fold_mult(eng, a, b) == eng.from_word(u + w)
    x = eng.from_word(v)
    assert eng.mult(a, x) == _fold_mult(eng, a, x)
    assert eng.mult(eng.mult(a, b), x) == eng.mult(a, eng.mult(b, x))
    assert eng.mult(a, eng.identity) == eng.mult(eng.identity, a) == a
    assert eng.mult(a, eng.invert(a)) == eng.identity


Z5 = tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5))


@pytest.mark.parametrize("unit", [True, False])
def test_free_product_length_is_the_ball_depth(psl2z, unit):
    # psl2z's letters are all its nontrivial factor elements, so every
    # syllable has length 1.  In Z/5 * Z/2 with only t, t^-1 for Z/5 the
    # syllables t^2 and t^3 have length 2, so lengths must be summed.
    if unit:
        G, radius = psl2z, 10
    else:
        G = free_product_group(
            (Z5, Z2), letters=("t", "t^-1", "s"),
            letter_syllables={"t": (0, 1), "t^-1": (0, 4), "s": (1, 1)},
            inverses={"t": "t^-1", "t^-1": "t", "s": "s"})
        radius = 9
        assert G.element(["t", "t"]).length() == 2
    eng = G.engine
    assert eng.unit_syllables is unit
    tree = ball_tree(G.resolve(None), radius)
    depths = ball_depths(tree)
    assert depths[-1] == radius
    assert [eng.length(k) for k in tree.keys] == depths


# --- finite multiplication tables ---

def test_table_validation_rejects_non_group():
    # row 1 repeats an entry, so it is not a Latin square
    bad = [[0, 1], [1, 1]]
    with pytest.raises(FormatError):
        finite_table_group(bad, letters=("x",), letter_elements={"x": 1},
                          inverses={"x": "x"})


def test_symmetric_group_table(s3):
    r = s3.element(["r"])
    f = s3.element(["f"])
    assert (r * r * r).is_identity()
    assert (f * f).is_identity()
    # dihedral relation f r f = r^-1
    assert f * r * f == r.inverse()
    ball = {s3.identity()}
    frontier = [s3.identity()]
    gens = [r, r.inverse(), f]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in ball:
                    ball.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(ball) == 6


# --- small cancellation ---

def test_surface_group_relator_is_trivial():
    letters = ("a", "a^-1", "b", "b^-1", "c", "c^-1", "d", "d^-1")
    inv = {x: x + "^-1" for x in "abcd"}
    inv.update({v: k for k, v in inv.items()})
    rel = ("a", "b", "a^-1", "b^-1", "c", "d", "c^-1", "d^-1")
    G = dehn_group([rel], letters, inv, name="Genus2")
    assert G.element(rel).is_identity()
    # half the relator is geodesic; anything longer gets replaced by the
    # shorter complementary side
    assert G.element(rel[:4]).length() == 4
    assert G.element(rel[:5]).length() == 3
    assert G.element(rel[:5]) == G.element(rel[5:]).inverse()
    x = G.element(["a", "b"])
    assert (x * x.inverse()).is_identity()


# F's letter ids 0-3; cancelling pairs at the start, in the middle, at the
# end, or all through the word
@given(st.lists(st.integers(0, 3), max_size=10),
       st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.sampled_from(("start", "middle", "end", "everywhere")))
@settings(max_examples=200, deadline=None)
def test_free_from_word_is_free_reduction(body, pairs, where):
    eng = F.engine
    cancel = [c for a in pairs for c in (a, eng.inv[a])]
    half = len(body) // 2
    word = {"start": cancel + body,
            "middle": body[:half] + cancel + body[half:],
            "end": body + cancel, "everywhere": cancel}[where]
    assert eng.from_word(word) == _free_reduce_bytes(bytes(word), eng.inv)


# genus 2: letter ids 0-7, and 16 symmetrized relators of length 8
@given(st.lists(st.integers(0, 7), max_size=16), st.integers(0, 15),
       st.integers(0, 8), st.integers(0, 16))
@settings(max_examples=300, deadline=None)
def test_dehn_normal_forms_are_canonical(genus2, ids, which, cut, at):
    eng = genus2.engine
    nf = eng.from_word(ids)
    folded = eng.identity
    for a in ids:
        folded = eng.mult(folded, eng.from_word([a]))
    assert nf == folded
    assert all(eng.inv[a] != b for a, b in zip(nf, nf[1:]))
    # no subword longer than half a relator survives
    assert not any(r[:len(r) // 2 + 1] in nf for r in eng.symmetrized)
    assert eng.from_word(nf) == nf
    # a relator uv gives u = v^-1, so either side, put into the same
    # word, must give the same normal form
    rel = eng.symmetrized[which]
    u, v_inv = rel[:cut], bytes(eng.inv[a] for a in reversed(rel[cut:]))
    head, tail = bytes(ids[:at]), bytes(ids[at:])
    assert eng.from_word(head + u + tail) == eng.from_word(head + v_inv + tail)


def test_commutator_relator_warns():
    letters = ("a", "a^-1", "b", "b^-1")
    inv = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}
    with pytest.warns(UserWarning):
        dehn_group([("a", "b", "a^-1", "b^-1")], letters, inv)


def reference_greedy_shorten(eng, w):
    """Greedy shortening as a flag-and-break ladder over the relators and
    their prefixes, longest first, restarting after each replacement."""
    changed = True
    while changed:
        if not eng._long_prefixes.search(w):
            return w
        changed = False
        n = len(w)
        for r in eng.symmetrized:
            m = len(r)
            half = m // 2
            for k in range(m - 1, half, -1):
                if k > n:
                    continue
                prefix = r[:k]
                i = w.find(prefix)
                while i >= 0:
                    repl = _invert_bytes(r[k:], eng.inv)
                    w = _free_reduce_bytes(w[:i] + repl + w[i + k:], eng.inv)
                    changed = True
                    break
                if changed:
                    break
            if changed:
                break
    return w


def reference_product(eng, a, b, shorten=None):
    """The product as a full normalisation of a + b: free reduction of the
    whole word, then the greedy-shortening (the engine's, or `shorten`) and
    half-swap search with no pre-check."""
    shorten = shorten or eng._greedy_shorten
    w = _free_reduce_bytes(a + b, eng.inv)
    while True:
        w = shorten(w)
        if not w:
            return w
        seen, queue, best, shorter = {w}, deque([w]), w, None
        while queue and shorter is None:
            u = queue.popleft()
            for v in eng._half_swaps(u):
                if len(v) < len(u):
                    shorter = v
                    break
                v2 = shorten(v)
                if len(v2) < len(u):
                    shorter = v2
                    break
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
                    best = min(best, v)
        if shorter is None:
            return best
        w = shorter


def test_junction_product_is_the_full_normalisation(genus2):
    eng = genus2.engine
    T = genus2.resolve(None)
    big, small = ball_tree(T, 3), ball_tree(T, 2)
    assert (len(big.keys), len(small.keys)) == (457, 65)
    cancelled = {}
    long_prefix = halves = rewritten = identities = 0
    for a in big.keys:
        for b in small.keys:
            got = eng.mult(a, b)
            assert got == reference_product(eng, a, b)
            w = _free_reduce_bytes(a + b, eng.inv)
            pairs = (len(a) + len(b) - len(w)) // 2
            cancelled[pairs] = cancelled.get(pairs, 0) + 1
            long_prefix += bool(eng._long_prefixes.search(w))
            halves += bool(eng._halves.search(w))
            rewritten += got != w
            identities += got == b""
    # the inputs reach every branch: all 65 inverse pairs, cancellations of
    # two letter pairs, greedy shortening and half swaps
    assert cancelled == {0: 26057, 1: 3200, 2: 448}
    assert identities == 65
    assert (long_prefix, halves, rewritten) == (16, 240, 128)


nf_words = st.lists(st.integers(0, 7), max_size=8)


@given(nf_words, nf_words)
@settings(max_examples=300, deadline=None)
def test_junction_product_on_random_normal_forms(genus2, u, v):
    eng = genus2.engine
    a, b = eng.from_word(u), eng.from_word(v)
    assert eng.mult(a, b) == reference_product(eng, a, b)


# up to three pieces of relators, each up to a whole relator, with a few
# letters before each; the examples shorten differently if the relators,
# or one relator's prefixes, are tried in another order
relator_pieces = st.lists(st.tuples(st.lists(st.integers(0, 7), max_size=3),
                                    st.integers(0, 15), st.integers(0, 8)),
                          min_size=1, max_size=3)


@given(relator_pieces)
@example([([6, 0, 2, 1, 3, 4, 6, 4, 7, 5, 2], 0, 0)])
@example([([5, 3, 1, 6, 4, 7, 5, 1, 6, 4, 7, 5, 2, 0, 0, 3, 1, 6, 4], 0, 0)])
@settings(max_examples=300, deadline=None)
def test_greedy_shortening_is_the_flag_and_break_ladder(genus2, pieces):
    eng = genus2.engine
    ids = b"".join(bytes(head) + eng.symmetrized[which][:k]
                   for head, which, k in pieces)
    w = _free_reduce_bytes(ids, eng.inv)
    assert eng._greedy_shorten(w) == reference_greedy_shorten(eng, w)
    old = reference_product(
        eng, ids, b"", lambda v: reference_greedy_shorten(eng, v))
    assert eng.from_word(ids) == old


# sha256 of the genus-2 radius-6 ball (each key with its length, then the
# neighbour table) as the flag-and-break greedy shortening built it
GENUS2_BALL_6 = ("03046b3ca3617966dec2074fa20fb602"
                 "f1a9e15287c244c95da90989a8730b43")


def test_greedy_shortening_keeps_the_genus2_ball(genus2, monkeypatch):
    def digest():
        tree = ball_tree(genus2.resolve(None), 6)
        assert len(tree.keys) == 155_577
        h = hashlib.sha256()
        for key in tree.keys:
            h.update(bytes([len(key)]) + key)
        h.update(tree.nbr.tobytes())
        return h.hexdigest()

    eng = genus2.engine
    assert digest() == GENUS2_BALL_6
    calls = []

    def oracle(w):
        calls.append(w)
        return reference_greedy_shorten(eng, w)

    monkeypatch.setattr(eng, "_greedy_shorten", oracle)
    assert digest() == GENUS2_BALL_6
    # the ball's products reach the shortening, and some are shortened
    assert len(calls) > 1000
    assert any(reference_greedy_shorten(eng, w) != w for w in calls)


def test_junction_product_with_an_odd_relator():
    # every symmetrized relator has odd length, so there are no half swaps
    # and the pre-check is the long-prefix pattern alone
    letters = ("a", "a^-1", "b", "b^-1")
    inv = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}
    with pytest.warns(UserWarning):
        G = dehn_group([("a", "a", "b", "a", "b")], letters, inv)
    eng = G.engine
    assert all(len(r) % 2 for r in eng.symmetrized)
    forms = sorted({eng.from_word(w) for n in range(4)
                    for w in itertools.product(range(4), repeat=n)})
    shortened = 0
    for a in forms:
        for b in forms:
            assert eng.mult(a, b) == reference_product(eng, a, b)
            w = _free_reduce_bytes(a + b, eng.inv)
            shortened += bool(eng._long_prefixes.search(w))
    assert shortened > 0


def test_dehn_normal_forms_are_the_ball_geodesics():
    # Cannon's growth series of the genus-2 surface group in the standard
    # generators: (1+2z+2z^2+2z^3+z^4) / (1-6z-6z^2-6z^3+z^4)
    num, den = (1, 2, 2, 2, 1), (1, -6, -6, -6, 1)
    radius = 6
    series = []
    for n in range(radius + 1):
        c = num[n] if n < len(num) else 0
        c -= sum(den[k] * series[n - k] for k in range(1, min(n, 4) + 1))
        series.append(c)
    tree = ball_tree(parse_group_file("groups/genus2.grp").resolve(None), radius)
    assert [tree.sphere_size(n) for n in range(radius + 1)] == series
    # letters are tried in index order, so the tree word is the shortlex-least
    # geodesic, which the normal form must spell
    depths = ball_depths(tree)
    for i, key in enumerate(tree.keys):
        assert key == bytes(tree.tree_word(i))
        assert len(key) == depths[i]


def test_genus2_radius_7_ball_follows_cannon_series(genus2):
    # the same series to radius 7, 1,085,905 elements: counts only, read
    # from the layer bounds
    num, den = (1, 2, 2, 2, 1), (1, -6, -6, -6, 1)
    series = []
    for n in range(8):
        c = num[n] if n < len(num) else 0
        c -= sum(den[k] * series[n - k] for k in range(1, min(n, 4) + 1))
        series.append(c)
    tree = ball_tree(genus2.resolve(None), 7)
    assert [tree.sphere_size(n) for n in range(8)] == series
    assert series[7] == 930_328 and len(tree.keys) == 1_085_905


def test_ball_products_bypass_the_normal_form_cache(monkeypatch):
    G = parse_group_file("groups/genus2.grp")
    eng = G.engine
    T = G.resolve(None)
    cached = dict(eng._nf_cache)
    calls = []

    def counted(name):
        fn = getattr(eng, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("from_word", "_normalize"):
        monkeypatch.setattr(eng, name, counted(name))
    tree = ball_tree(T, 5)
    assert len(tree.keys) == 22_289
    assert calls == []
    assert eng._nf_cache == cached


def test_sphere_samples_bypass_the_normal_form_cache(genus2, genus2_aut,
                                                     monkeypatch):
    eng = genus2.engine
    cached = dict(eng._nf_cache)
    assert sorted(cached) == [bytes([i]) for i in range(8)]  # the letters
    words = []
    from_word = eng.from_word

    def counted(ids):
        words.append(ids)
        return from_word(ids)

    monkeypatch.setattr(eng, "from_word", counted)
    for n in range(7):
        xs = sample_uniform_sphere(genus2_aut, n, make_rng(4, stream=n),
                                   count=40)
        assert [x.length() for x in xs] == [n] * 40
    assert len(words) == 7 * 40  # one normal form per sample
    assert eng._nf_cache == cached



@pytest.mark.parametrize("path", ["groups/f2.grp", "groups/psl2z.grp",
                                  "groups/s3.grp", "groups/genus2.grp"])
def test_resolved_inverse_index_pairs_inverse_letters(path):
    G = parse_group_file(path)
    for name in [None, *G.gensets]:
        T = G.resolve(name)
        inv = T.inverse_index
        assert all(inv[inv[i]] == i for i in range(len(T)))
        assert [T.letters[j] for j in inv] == [
            T.genset.inverses[a] for a in T.letters]
        assert [T.elements[j] for j in inv] == [
            x.inverse() for x in T.elements]
