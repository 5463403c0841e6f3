"""Word-problem engines: free groups, free products, finite tables, Dehn."""

import pytest
from hypothesis import given, settings, strategies as st

from geoshift import (
    FormatError,
    UnknownLetter,
    free_group,
    free_product_group,
    parse_group_file,
)
from geoshift.geometry import ball_tree
from geoshift.groups import dehn_group, finite_table_group

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
    assert tree.depth[-1] == radius
    assert [eng.length(k) for k in tree.keys] == tree.depth


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


@pytest.fixture(scope="module")
def genus2():
    return parse_group_file("groups/genus2.grp")


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
