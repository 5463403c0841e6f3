"""Balls and word metrics for alternative generating sets."""

import warnings

import pytest

from conftest import ball_depths, reference_ball_tree
from geoshift import parse_group_file
from geoshift.distortion import cross_lipschitz
from geoshift.errors import ResourceLimit
from geoshift import geometry
from geoshift.geometry import (_coded_ball, _dictionary_ball, _word_ball,
                               ball_tree, word_length)
from geoshift.groups import (GeneratingSet, GroupElement, dehn_group,
                             free_group)


def test_ball_layers_match_sphere_sizes(f2):
    t = ball_tree(f2.resolve(None), 4)
    layers = [t.layer_bounds[i + 1] - t.layer_bounds[i] for i in range(5)]
    assert layers == [1, 4, 12, 36, 108]


def test_tree_words_spell_their_elements(f2):
    S = f2.resolve(None)
    t = ball_tree(S, 3)
    depths = ball_depths(t)
    index = {k: i for i, k in enumerate(t.keys)}
    assert len(index) == len(t.keys)
    for i in range(len(t.keys)):
        word = [S.letters[li] for li in t.tree_word(i)]
        x = f2.element(word)
        assert x.key == t.keys[i]
        assert depths[index[x.key]] == len(word) == x.length()


@pytest.mark.parametrize("group,genset,radius", [
    ("f2", None, 5),
    ("f2", "Sstar_ab", 4),
    ("f2", "Sstar_a2", 4),
    ("psl2z", None, 8),
    ("psl2z", "Sstar_st", 6),
    ("s3", None, 5),       # runs out of spheres at radius 3
    ("genus2", None, 4),
])
def test_neighbour_table_holds_every_product(group, genset, radius):
    spec = parse_group_file(f"groups/{group}.grp")
    T = spec.resolve(genset)
    tree = ball_tree(T, radius)
    nt = len(T)
    expanded = tree.layer_bounds[tree.radius()]
    assert len(tree.nbr) == nt * expanded
    mult = spec.engine.mult
    index = {k: i for i, k in enumerate(tree.keys)}
    for i in range(expanded):
        for li, x in enumerate(T.elements):
            assert tree.nbr[i * nt + li] == index[mult(tree.keys[i], x.key)]
    for c in range(1, len(tree.keys)):
        assert tree.nbr[tree.parent[c] * nt + tree.letter[c]] == c


@pytest.fixture(scope="module")
def f1():
    return free_group(1)


@pytest.fixture(scope="module")
def f3():
    return free_group(3)


def foreign(letters, words):
    """A generating set of base words and their inverses: ``letters`` maps
    each name to its base word, and the inverse of name x is named x^-1."""
    names, inverses, spelled = [], {}, {}
    inv = {"a": "a^-1", "b": "b^-1", "c": "c^-1"}
    inv.update({v: k for k, v in inv.items()})
    for x, word in zip(letters, words):
        names += [x, x + "^-1"]
        inverses[x] = x + "^-1"
        spelled[x] = tuple(word)
        spelled[x + "^-1"] = tuple(inv[c] for c in reversed(word))
    return GeneratingSet(tuple(names), inverses, spelled, name="+".join(letters))


# free foreign sets, spelled over the base letters a, b, c and inverses
FOREIGN = {
    # F1 on {t, t^2}
    "f1.t_t2": ("f1", foreign(["t", "tt"], [["a"], ["a", "a"]])),
    # F3 with letters of base length 3 and 4
    "f3.aba_abAB": ("f3", foreign(
        ["a", "b", "c", "aba", "abAB"],
        [["a"], ["b"], ["c"], ["a", "b", "a"],
         ["a", "b", "a^-1", "b^-1"]])),
    # F2 on a set without the base letters b and b^-1
    "f2.a_ab": ("f2", foreign(["a", "ab"], [["a"], ["a", "b"]])),
    # a letter of base length 13 or 14: F2's codes in base 5 reach 5^26 <
    # 2^63 within radius 2 for the first, 5^28 > 2^63 for the second
    "f2.a_w13": ("f2", foreign(["a", "w"], [["a"], ["a", "b"] * 6 + ["a"]])),
    "f2.a_w14": ("f2", foreign(["a", "w"], [["a"], ["a", "b"] * 7])),
    # F1's codes are in base 3, and 3^39 < 2^63 <= 3^40 < 2^64
    "f1.t_t13": ("f1", foreign(["t", "u"], [["a"], ["a"] * 13])),
    "f1.t_t20": ("f1", foreign(["t", "u"], [["a"], ["a"] * 20])),
}


def resolved(name, request):
    """The generating set a test names: a group fixture with its base set,
    a group fixture and one of its named sets as "f2.Sstar_ab", or a key
    of FOREIGN."""
    if name in FOREIGN:
        group, genset = FOREIGN[name]
    else:
        group, _, genset = name.partition(".")
    return request.getfixturevalue(group).resolve(genset or None)


def assert_same_tree(tree, reference):
    keys, parent, letter, nbr, bounds = reference
    assert tree.keys == keys
    assert tree.parent.tolist() == parent
    assert tree.letter.tolist() == letter
    assert tree.nbr.tolist() == nbr
    assert tree.layer_bounds == bounds


@pytest.mark.parametrize("group,genset,radius", [
    ("f2", None, 0),
    ("f2", None, 1),
    ("f2", None, 6),
    ("f1", None, 1),
    ("f1", None, 8),
    ("f3", None, 2),
    ("f3", None, 5),
    ("f2", "Sstar_ab", 0),
    ("f2", "Sstar_ab", 1),
    ("f2", "Sstar_ab", 4),
    ("f2", "Sstar_ab", 7),
    ("f2", "Sstar_a2", 0),
    ("f2", "Sstar_a2", 1),
    ("f2", "Sstar_a2", 4),
    ("f2", "Sstar_a2", 7),
    ("f1", "t_t2", 9),
    ("f3", "aba_abAB", 2),
    ("f3", "aba_abAB", 4),
    ("f2", "a_ab", 7),
    ("f2", "a_w13", 2),
    ("f2", "a_w14", 2),    # codes past 63 bits: the dictionary loop
    ("psl2z", None, 9),
    ("psl2z", "Sstar_st", 6),
    ("s3", None, 5),
    ("genus2", None, 3),
    ("z2_z4", None, 8),
    ("z5_z2", None, 8),
])
def test_ball_tree_matches_a_plain_breadth_first_search(group, genset, radius,
                                                        request):
    name = group if genset is None else f"{group}.{genset}"
    T = resolved(name, request)
    assert_same_tree(ball_tree(T, radius), reference_ball_tree(T, radius))


@pytest.mark.parametrize("group,radius,budget", [
    ("f2", 6, 100),     # spheres end at 1, 5, 17, 53 and 161 elements
    ("f2", 4, 160),
    ("f2", 4, 161),     # exactly the ball: no limit is hit
    ("f2", 1, 4),
    ("f3", 5, 500),     # spheres end at 1, 7, 37, 187 and 937 elements
    ("f3", 3, 187),
    ("genus2", 4, 300),
    # F2 over Sstar_ab: spheres end at 1, 7, 31, 127, 511 and 2,047
    ("f2.Sstar_ab", 5, 300),
    ("f2.Sstar_ab", 5, 2046),
    ("f2.Sstar_ab", 5, 2047),   # exactly the ball
    ("f2.Sstar_ab", 1, 6),
    ("f2.Sstar_ab", 0, 0),      # radius 0 checks no budget
    # over Sstar_a2: 1, 7, 29, 115, 441 and 1,695
    ("f2.Sstar_a2", 5, 1000),
    ("f2.Sstar_a2", 5, 1695),
    ("f2.a_ab", 6, 200),
    ("f3.aba_abAB", 3, 500),
    ("f2.a_w14", 2, 10),
])
def test_ball_budget_matches_a_plain_breadth_first_search(group, radius,
                                                          budget, request):
    T = resolved(group, request)
    try:
        want = reference_ball_tree(T, radius, budget)
    except ResourceLimit as err:
        with pytest.raises(ResourceLimit) as got:
            ball_tree(T, radius, budget=budget)
        assert str(got.value) == str(err)
        return
    assert_same_tree(ball_tree(T, radius, budget=budget), want)


@pytest.mark.parametrize("group,radius", [("f2", 6), ("psl2z", 9),
                                          ("genus2", 3)])
def test_ball_tree_skips_the_back_edge_product(group, radius, request,
                                               monkeypatch):
    # every expanded position but the identity reaches its parent by the
    # inverse of its own letter, which takes no product
    spec = request.getfixturevalue(group)
    T = spec.resolve(None)
    calls = []
    mult = spec.engine.mult

    def counted(a, b):
        calls.append(1)
        return mult(a, b)

    monkeypatch.setattr(spec.engine, "mult", counted)
    tree = ball_tree(T, radius)
    tree.keys[0]  # a free basis spells its keys on first read
    expanded = tree.layer_bounds[tree.radius()]
    assert len(calls) == len(T) * expanded - (expanded - 1)


@pytest.mark.parametrize("group,radius", [("f1", 8), ("f2", 0), ("f2", 1),
                                          ("f2", 6), ("f3", 5)])
def test_free_basis_keys_are_spelled_on_first_read(group, radius, request,
                                                   monkeypatch):
    spec = request.getfixturevalue(group)
    T = spec.resolve(None)
    keys = reference_ball_tree(T, radius)[0]
    calls = []
    mult = spec.engine.mult

    def counted(a, b):
        calls.append(1)
        return mult(a, b)

    monkeypatch.setattr(spec.engine, "mult", counted)
    tree = ball_tree(T, radius)
    assert len(tree.keys) == tree.layer_bounds[-1]
    assert calls == []
    expanded = tree.layer_bounds[tree.radius()]
    # every position but the identity costs one product: the identity, when
    # it is expanded, has no back edge
    spelled = len(T) * expanded - (expanded - 1) if expanded else 0
    assert tree.keys == keys
    assert len(calls) == spelled == len(keys) - 1
    assert list(tree.keys) == keys and tree.keys[1:] == keys[1:]
    assert len(calls) == spelled


def test_ball_radius_must_be_nonnegative(f2):
    S = f2.resolve(None)
    assert ball_tree(S, 0).keys == [f2.engine.identity]
    with pytest.raises(ValueError, match="radius"):
        ball_tree(S, -1)


def test_ball_budget_enforced(f2):
    with pytest.raises(ResourceLimit):
        ball_tree(f2.resolve(None), 20, budget=1000)


def test_ball_budget_names_the_radius():
    # genus 2 has 457 elements within radius 3, so a budget of 1,000 runs out
    # while radius 4 is being built
    genus2 = parse_group_file("groups/genus2.grp")
    with pytest.raises(ResourceLimit) as err:
        ball_tree(genus2.resolve(None), 8, budget=1000)
    assert str(err.value) == ("ball enumeration exceeded budget 1000 at "
                              "radius 4 of 8")


def test_ball_budget_stops_within_a_layer(f2, monkeypatch):
    # the radius-6 ball of F2 has 1,457 elements: the budget must stop the
    # enumeration inside that layer, not after it
    S = f2.resolve(None)
    products = set()
    mult = f2.engine.mult

    def counted(a, b):
        h = mult(a, b)
        products.add(h)
        return h

    monkeypatch.setattr(f2.engine, "mult", counted)
    with pytest.raises(ResourceLimit, match="exceeded budget 1000"):
        ball_tree(S, 12, budget=1000)
    assert len(products) <= 1000 + len(S)


@pytest.mark.parametrize("group,genset,radius", [("psl2z", "Sstar_st", 9)])
def test_ball_budget_stops_within_a_layer_of_the_dictionary_loop(
        group, genset, radius, request, monkeypatch):
    # this ball takes a product per element and passes 1,000 elements inside
    # a sphere: PSL2Z over Sstar_st has 610 elements within radius 8 and
    # 1,075 within 9
    spec = request.getfixturevalue(group)
    T = spec.resolve(genset)
    products = set()
    mult = spec.engine.mult

    def counted(a, b):
        h = mult(a, b)
        products.add(h)
        return h

    monkeypatch.setattr(spec.engine, "mult", counted)
    with pytest.raises(ResourceLimit, match=f"exceeded budget 1000 at radius "
                                            f"{radius} of 12"):
        ball_tree(T, 12, budget=1000)
    assert 1000 <= len(products) <= 1000 + len(T)


@pytest.mark.parametrize("name,radius,budget", [
    ("f2.Sstar_ab", 5, 10 ** 7),
    ("f2.Sstar_ab", 12, 1000),   # 511 elements within radius 4, 2,047 in 5
    ("f2.Sstar_a2", 6, 10 ** 7),
    ("f1.t_t2", 8, 10 ** 7),
    ("f3.aba_abAB", 3, 10 ** 7),
])
def test_coded_layout_multiplies_only_to_spell_its_keys(name, radius, budget,
                                                       request, monkeypatch):
    T = resolved(name, request)
    try:
        want = reference_ball_tree(T, radius, budget)
    except ResourceLimit as err:
        want = err
    eng = T.group.engine
    calls = []
    mult = eng.mult

    def counted(a, b):
        calls.append(1)
        return mult(a, b)

    monkeypatch.setattr(eng, "mult", counted)
    if isinstance(want, ResourceLimit):
        with pytest.raises(ResourceLimit) as got:
            ball_tree(T, radius, budget=budget)
        assert str(got.value) == str(want)
        assert calls == []
        return
    tree = ball_tree(T, radius, budget=budget)
    assert len(tree.keys) == tree.layer_bounds[-1]
    assert calls == []
    assert tree.keys == want[0]
    assert len(calls) == len(want[0]) - 1
    # a second read spells nothing again
    assert list(tree.keys) == want[0]
    assert len(calls) == len(want[0]) - 1


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("name,radius,budget", [
    ("f2.Sstar_ab", 5, 10 ** 7),
    ("f2.Sstar_ab", 5, 1000),
    ("f2.Sstar_ab", 5, 2047),
    ("f2.a_ab", 6, 10 ** 7),
    ("f3.aba_abAB", 3, 10 ** 7),
])
def test_coded_layout_blocks_match_the_dictionary_loop(
        name, radius, budget, block, request, monkeypatch):
    # blocks of one row, of fewer products than one row and of several rows:
    # a product may first be found in an earlier block of its sphere
    T = resolved(name, request)
    try:
        want = fields(_dictionary_ball(T, radius, budget))
    except ResourceLimit as err:
        want = err
    monkeypatch.setattr(geometry, "_CODED_BLOCK", block)
    if isinstance(want, ResourceLimit):
        with pytest.raises(ResourceLimit) as got:
            _coded_ball(T, radius, budget)
        assert str(got.value) == str(want)
    else:
        assert_same_tree(_coded_ball(T, radius, budget), want)


def test_coded_layout_declines_codes_past_63_bits(f2_star_ab, psl2z, request):
    # F2's codes are in base 5: a letter of base length 14 reaches 5^28 >
    # 2^63 within radius 2, one of length 13 only 5^26
    w13, w14 = resolved("f2.a_w13", request), resolved("f2.a_w14", request)
    assert _coded_ball(w13, 2, 100) is not None
    assert _coded_ball(w14, 1, 100) is not None
    assert _coded_ball(w14, 2, 100) is None
    tree = ball_tree(w14, 2)
    assert isinstance(tree.keys, list)
    assert_same_tree(tree, fields(_dictionary_ball(w14, 2, budget=100)))
    # the bound is 2^63 itself: F1's codes are in base 3, t^13 at radius 3
    # keeps them below 3^39 < 2^63, and t^20 at radius 2 below 3^40 >= 2^63
    assert _coded_ball(resolved("f1.t_t13", request), 3, 100) is not None
    t20 = resolved("f1.t_t20", request)
    assert _coded_ball(t20, 2, 100) is None
    assert_same_tree(ball_tree(t20, 2),
                     fields(_dictionary_ball(t20, 2, budget=100)))
    # Sstar_ab's letters have base length 2: its codes fit to radius 13, so
    # the layout starts and meets the budget, and at radius 14 it declines
    # before the first sphere
    with pytest.raises(ResourceLimit):
        _coded_ball(f2_star_ab, 13, 0)
    assert _coded_ball(f2_star_ab, 14, 0) is None
    assert _coded_ball(psl2z.resolve("Sstar_st"), 2, 100) is None


def one_relator(relator: str):
    """A Dehn group on a, A = a^-1, b, B = b^-1 with one relator."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # most fail C'(1/6)
        return dehn_group([tuple(relator)], ("a", "A", "b", "B"),
                          {"a": "A", "b": "B"})


def z4():
    # <a | a^4>: a finite Dehn group, whose spheres run out after radius 2
    return dehn_group([("a",) * 4], ("a", "A"), {"a": "A"})


def fields(tree):
    """A ball tree in the form of :func:`reference_ball_tree`'s result."""
    return (list(tree.keys), tree.parent.tolist(), tree.letter.tolist(),
            tree.nbr.tolist(), tree.layer_bounds)


RELATORS = ("abAB", "aabab", "aaa", "abab", "aabb", "ababab", "aabAb",
            "abbaBB", "aaaabbb")


@pytest.mark.parametrize("group,radius", [
    *(("genus2", r) for r in range(6)),
    *(("f2", r) for r in range(9)),
    *((rel, 5) for rel in RELATORS),
    ("z4", 5),
])
def test_word_layout_matches_the_dictionary_loop(group, radius, request):
    if group in RELATORS:
        spec = one_relator(group)
    elif group == "z4":
        spec = z4()
    else:
        spec = request.getfixturevalue(group)
    T = spec.resolve(None)
    tree = _word_ball(T, radius, budget=10 ** 7)
    assert tree is not None
    want = _dictionary_ball(T, radius, budget=10 ** 7)
    assert_same_tree(tree, fields(want))
    if group == "z4":
        assert want.layer_bounds == [0, 1, 3, 4, 4]


def test_word_layout_declines_other_groups_and_sets(f2, psl2z, s3):
    assert _word_ball(f2.resolve("Sstar_ab"), 3, 100) is None
    assert _word_ball(psl2z.resolve(None), 3, 100) is None
    assert _word_ball(s3.resolve(None), 3, 100) is None


def lex_greatest(spec):
    # Z/4 names a^2 by the lex-greater of its two geodesics, A A
    mult = spec.engine.mult
    return lambda a, b: (b"\x01\x01" if mult(a, b) == b"\x00\x00"
                         else mult(a, b))


def not_a_key(spec):
    # a rewritten product comes back as long as it is, but ending in a a^-1,
    # which no key does
    mult = spec.engine.mult
    return lambda a, b: (mult(a, b) if mult(a, b) == a + b
                         else mult(a, b)[:-2] + b"\x00\x01")


def longer(spec):
    # a rewritten product comes back longer than a + b
    mult = spec.engine.mult
    return lambda a, b: (mult(a, b) if mult(a, b) == a + b
                         else a + b + b"\x00")


@pytest.mark.parametrize("group,radius,answer", [
    ("z4", 4, lex_greatest),
    ("genus2", 5, not_a_key),
    ("genus2", 5, longer),
])
def test_word_layout_falls_back_when_the_engine_breaks_it(
        group, radius, answer, request, monkeypatch):
    spec = z4() if group == "z4" else request.getfixturevalue(group)
    T = spec.resolve(None)
    monkeypatch.setattr(spec.engine, "mult", answer(spec))
    assert _word_ball(T, radius, budget=10 ** 7) is None
    tree = ball_tree(T, radius)
    assert isinstance(tree.keys, list)
    assert_same_tree(tree, fields(_dictionary_ball(T, radius,
                                                   budget=10 ** 7)))


@pytest.mark.parametrize("budget,products", [
    (22_192, 0),     # below the rows of sphere 5 that need no product
    (22_193, 152),   # the 152 rewrite rows go to the engine first
    (22_288, 152),
    (22_289, 152),   # exactly the radius-5 ball: no limit is hit
])
def test_word_layout_budget_matches_the_dictionary_loop(
        genus2, budget, products, monkeypatch):
    # genus 2 has 3,193 elements within radius 4 and 22,289 within 5; 19,000
    # of the 19,152 products of sphere 4 contain no rewrite word
    T = genus2.resolve(None)
    try:
        want = reference_ball_tree(T, 5, budget)
    except ResourceLimit as err:
        want = err
    mult = genus2.engine.mult
    step = []

    def counted(a, b):
        step.append(len(a) == 4)
        return mult(a, b)

    monkeypatch.setattr(genus2.engine, "mult", counted)
    if isinstance(want, ResourceLimit):
        with pytest.raises(ResourceLimit) as got:
            ball_tree(T, 5, budget=budget)
        assert str(got.value) == str(want)
    else:
        tree = ball_tree(T, 5, budget=budget)
        assert tree.layer_bounds == want[4]
    assert sum(step) == products


def test_genus2_default_ball_stops_before_the_radius_8_products(
        genus2, monkeypatch):
    # 1,085,905 elements lie within radius 7, and sphere 8 has 6,493,536, so
    # the rows of sphere 8 that need no product already pass the budget
    mult = genus2.engine.mult
    lengths = []

    def counted(a, b):
        lengths.append(len(a))
        return mult(a, b)

    monkeypatch.setattr(genus2.engine, "mult", counted)
    with pytest.raises(ResourceLimit) as err:
        ball_tree(genus2.resolve(None), 8)
    assert str(err.value) == ("ball enumeration exceeded budget 5000000 at "
                              "radius 8 of 8")
    assert lengths and max(lengths) == 6


@pytest.mark.parametrize("word,expected", [
    (["a"], 1),
    (["a", "b"], 1),          # one composite letter
    (["b", "a"], 2),          # composite letters do not help here
    (["a", "b", "a"], 2),
    (["a", "b", "a", "b"], 2),
    (["a", "a", "b"], 2),
    # base length 24; each block of eight is ab b a b^-1 a ab in S*
    (["a", "b", "b", "a", "b^-1", "a", "a", "b"] * 3, 18),
])
def test_foreign_word_length(f2, f2_star_ab, word, expected):
    assert word_length(f2.element(word), f2_star_ab) == expected


@pytest.mark.parametrize("group,genset,radius", [
    ("psl2z", "Sstar_st", 8),
    ("f2", "Sstar_ab", 5),
    ("f2", "Sstar_a2", 5),
])
def test_length_search_matches_the_ball(group, genset, radius, request):
    # Breadth-first distances in the S*-ball are an independent oracle.
    spec = request.getfixturevalue(group)
    star = spec.resolve(genset)
    tree = ball_tree(star, radius)
    mismatches = [k for k, d in zip(tree.keys, ball_depths(tree))
                  if word_length(GroupElement(spec, k), star) != d]
    assert mismatches == []


def test_foreign_length_symmetry(f2, f2_star_ab):
    x = f2.element(["a", "b", "b", "a"])
    assert word_length(x, f2_star_ab) == word_length(x.inverse(), f2_star_ab)


def test_cross_lipschitz(f2, f2_star_ab):
    S = f2.resolve(None)
    assert cross_lipschitz(S, f2_star_ab) == 2
    assert cross_lipschitz(f2_star_ab, S) == 2

