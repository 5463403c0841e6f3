"""Balls and word metrics for alternative generating sets."""

import pytest

from conftest import ball_depths, reference_ball_tree
from geoshift import parse_group_file
from geoshift.distortion import cross_lipschitz
from geoshift.errors import ResourceLimit
from geoshift.geometry import ball_tree, word_length
from geoshift.groups import GroupElement, free_group


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
    ("f2", "Sstar_ab", 4),
    ("f2", "Sstar_a2", 4),
    ("psl2z", None, 9),
    ("psl2z", "Sstar_st", 6),
    ("s3", None, 5),
    ("genus2", None, 3),
    ("z2_z4", None, 8),
    ("z5_z2", None, 8),
])
def test_ball_tree_matches_a_plain_breadth_first_search(group, genset, radius,
                                                        request):
    T = request.getfixturevalue(group).resolve(genset)
    assert_same_tree(ball_tree(T, radius), reference_ball_tree(T, radius))


@pytest.mark.parametrize("group,radius,budget", [
    ("f2", 6, 100),     # spheres end at 1, 5, 17, 53 and 161 elements
    ("f2", 4, 160),
    ("f2", 4, 161),     # exactly the ball: no limit is hit
    ("f2", 1, 4),
    ("f3", 5, 500),     # spheres end at 1, 7, 37, 187 and 937 elements
    ("f3", 3, 187),
    ("genus2", 4, 300),
])
def test_ball_budget_matches_a_plain_breadth_first_search(group, radius,
                                                          budget, request):
    T = request.getfixturevalue(group).resolve(None)
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


@pytest.mark.parametrize("group,genset,radius", [("genus2", None, 4),
                                                 ("f2", "Sstar_ab", 5)])
def test_ball_budget_stops_within_a_layer_of_the_dictionary_loop(
        group, genset, radius, request, monkeypatch):
    # these balls take a product per element and pass 1,000 elements inside
    # a sphere: genus 2 has 457 elements within radius 3 and 3,193 within 4,
    # F2 over Sstar_ab 511 within radius 4 and 2,047 within 5
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

