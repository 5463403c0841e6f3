import warnings

import numpy as np
import pytest

from geoshift import build_geodesic_automaton, parse_group_file
from geoshift.automaton import GeodesicAutomaton
from geoshift.errors import ResourceLimit
from geoshift.groups import GroupElement, dehn_group, free_product_group


@pytest.fixture(scope="session")
def f2():
    return parse_group_file("groups/f2.grp")


@pytest.fixture(scope="session")
def f2_aut(f2):
    return build_geodesic_automaton(f2, n_check=10)


@pytest.fixture(scope="session")
def f2_star_ab(f2):
    return f2.resolve("Sstar_ab")


@pytest.fixture(scope="session")
def f2_star_a2(f2):
    return f2.resolve("Sstar_a2")


@pytest.fixture(scope="session")
def psl2z():
    return parse_group_file("groups/psl2z.grp")


@pytest.fixture(scope="session")
def psl_aut(psl2z):
    return build_geodesic_automaton(psl2z, n_check=10)


@pytest.fixture(scope="session")
def s3():
    return parse_group_file("groups/s3.grp")


@pytest.fixture(scope="session")
def genus2():
    return parse_group_file("groups/genus2.grp")


@pytest.fixture(scope="session")
def genus2_aut(genus2):
    # the relator has length 8, so the training ball must see past radius 4
    return build_geodesic_automaton(genus2, n_check=6)


@pytest.fixture(scope="session")
def z2_z4():
    # every nontrivial factor element is a letter: a tree of complete pieces
    z2 = ((0, 1), (1, 0))
    z4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    return free_product_group(
        (z2, z4), letters=("s", "u", "u^-1", "v"),
        letter_syllables={"s": (0, 1), "u": (1, 1), "u^-1": (1, 3),
                          "v": (1, 2)},
        inverses={"s": "s", "u": "u^-1", "v": "v"})


@pytest.fixture(scope="session")
def z5_z2():
    # t^2 and t^3 are no letters: walks merge letters into longer syllables
    z5 = tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5))
    return free_product_group(
        (z5, ((0, 1), (1, 0))), letters=("t", "t^-1", "s"),
        letter_syllables={"t": (0, 1), "t^-1": (0, 4), "s": (1, 1)},
        inverses={"t": "t^-1", "t^-1": "t", "s": "s"})


def ball_depths(tree):
    """The distance of each position of a ball tree, from its layer bounds."""
    bounds = tree.layer_bounds
    return [d for d in range(len(bounds) - 1)
            for _ in range(bounds[d], bounds[d + 1])]


def reference_ball_tree(T, radius, budget=None):
    """Plain breadth-first ball: every product multiplied and looked up,
    the back edge included.  Raises ResourceLimit once more than `budget`
    elements are found, checked after each element's products."""
    eng = T.group.engine
    keys, parent, letter = [eng.identity], [-1], [-1]
    index = {eng.identity: 0}
    nbr, bounds = [], [0, 1]
    for depth in range(radius):
        for i in range(bounds[-2], bounds[-1]):
            for li, x in enumerate(T.elements):
                h = eng.mult(keys[i], x.key)
                if h not in index:
                    index[h] = len(keys)
                    keys.append(h)
                    parent.append(i)
                    letter.append(li)
                nbr.append(index[h])
            if budget is not None and len(keys) > budget:
                raise ResourceLimit(
                    f"ball enumeration exceeded budget {budget} at radius "
                    f"{depth + 1} of {radius}")
        bounds.append(len(keys))
        if bounds[-1] == bounds[-2]:
            break
    return keys, parent, letter, nbr, bounds


# one-relator presentations on a, A = a^-1, b, B = b^-1
RELATORS = ("abAB", "aabab", "aaa", "abab", "aabb", "ababab", "aabAb",
            "abbaBB", "aaaabbb")


def dehn_on_ab(*relators: str):
    """A Dehn group on a, A = a^-1, b, B = b^-1 with the given relators."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # most fail C'(1/6)
        return dehn_group([tuple(r) for r in relators], ("a", "A", "b", "B"),
                          {"a": "A", "b": "B"})


def automaton_from_edges(group, genset, n_states, edges, initial=0,
                         level_used=1, tail_used=1, validated_to=0,
                         conflicts=0):
    """An automaton on `n_states` states whose edges are the items of a
    {(state, letter index): target} dict, as its target table."""
    table = np.full((n_states, len(genset)), -1, dtype=np.intc)
    for (s, li), t in edges.items():
        table[s, li] = t
    return GeodesicAutomaton(group=group, genset=genset, table=table,
                             initial=initial, level_used=level_used,
                             tail_used=tail_used, validated_to=validated_to,
                             conflicts=conflicts)


def successors(aut, state):
    """The (letter index, target) pairs of the edges out of a state, in
    letter order, read from its row of the target table."""
    return [(li, t) for li, t in enumerate(aut.table[state].tolist())
            if t >= 0]


def reference_enumerate_sphere(aut, n):
    """The sphere of radius n in shortlex order of accepted words, by a
    depth-first walk that multiplies keys with the engine at each node;
    the edges out of a state are pushed last letter first, to pop in
    order."""
    spec = aut.group
    eng = spec.engine
    tkeys = [e.key for e in aut.genset.elements]
    stack = [(aut.initial, eng.identity, 0)]
    while stack:
        state, gk, depth = stack.pop()
        if depth == n:
            yield GroupElement(spec, gk)
            continue
        for li, t in reversed(successors(aut, state)):
            stack.append((t, eng.mult(gk, tkeys[li]), depth + 1))
