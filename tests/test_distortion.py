"""Comparing word metrics: exact sphere averages, sampling, LLN, scans."""

import time
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import automaton_from_edges, reference_ball_tree
from geoshift import (
    build_geodesic_automaton,
    check_growth_inequality,
    enumerate_sphere,
    lln_check,
    mean_distortion_exact,
    mean_distortion_mc,
    rough_similarity_scan,
    sphere_count,
)
from geoshift.distortion import _BandProduct, _ForeignLength
from geoshift.errors import ResourceLimit
from geoshift.geometry import BallTree, ball_tree, word_length
from geoshift.grammar import parse_group_text
from geoshift.groups import (GeneratingSet, GroupElement, free_group,
                             free_product_group)

# per-sphere averages of the composite-letter length, small enough to check
# against a full enumeration by hand
EXACT_AB = [Fraction(0), Fraction(1), Fraction(11, 6), Fraction(8, 3),
            Fraction(7, 2), Fraction(13, 3), Fraction(31, 6)]


def test_exact_sphere_averages(f2_aut, f2_star_ab):
    assert mean_distortion_exact(f2_aut, f2_star_ab, 6) == EXACT_AB


# PSL2Z against its base letters plus st and its inverse
EXACT_ST = [Fraction(v) for v in
            ("0", "1", "3/2", "13/6", "11/4", "41/12", "4", "14/3", "21/4")]


def test_exact_sphere_averages_modular(psl2z, psl_aut):
    assert mean_distortion_exact(psl_aut, psl2z.resolve("Sstar_st"), 8) == EXACT_ST


def test_exact_averages_by_brute_force(f2, f2_aut, f2_star_ab):
    from geoshift import enumerate_sphere

    for n in (1, 2, 3):
        total = sum(word_length(x, f2_star_ab) for x in enumerate_sphere(f2_aut, n))
        count = 4 * 3 ** (n - 1)
        assert Fraction(total, count) == EXACT_AB[n]


def test_identity_pair_has_no_distortion(f2, f2_aut):
    S = f2.resolve(None)
    est = mean_distortion_mc(f2_aut, S, (5, 10), samples=200, seed=0)
    assert est.tau_hat == 1.0
    assert est.half_width == 0.0
    for row in est.rows:
        assert row.mean == 1.0
        assert row.stderr == 0.0


def test_mc_is_seeded(f2_aut, f2_star_ab):
    a = mean_distortion_mc(f2_aut, f2_star_ab, (6, 12), samples=150, seed=9)
    b = mean_distortion_mc(f2_aut, f2_star_ab, (6, 12), samples=150, seed=9)
    assert a.tau_hat == b.tau_hat
    assert [(r.mean, r.stderr) for r in a.rows] == [(r.mean, r.stderr) for r in b.rows]
    c = mean_distortion_mc(f2_aut, f2_star_ab, (6, 12), samples=150, seed=10)
    assert c.tau_hat != a.tau_hat


def test_mc_agrees_with_exact_on_small_spheres(f2_aut, f2_star_ab):
    est = mean_distortion_mc(f2_aut, f2_star_ab, (4, 6), samples=2000, seed=0)
    for row in est.rows:
        exact = float(EXACT_AB[row.n]) / row.n
        assert abs(row.mean - exact) <= 4 * row.stderr + 1e-12


def test_growth_inequality_verdict(f2_aut, f2_star_ab):
    import math

    est = mean_distortion_mc(f2_aut, f2_star_ab, (8, 16), samples=1000, seed=0)
    verdict = check_growth_inequality(est, math.log(3.0), math.log(4.0))
    assert verdict.ratio == pytest.approx(math.log(3.0) / math.log(4.0), abs=1e-12)
    assert verdict.passed
    assert verdict.margin == pytest.approx(est.tau_hat - verdict.ratio, abs=1e-15)
    assert verdict.tau_hat + verdict.half_width >= verdict.ratio - 1e-6


def test_lln_outliers_thin_out(f2_aut, f2_star_ab):
    est = mean_distortion_mc(f2_aut, f2_star_ab, (8, 16), samples=800, seed=0)
    rep = lln_check(f2_aut, f2_star_ab, est.tau_hat, n_list=(10, 20, 40),
                    eps_list=(0.05, 0.1), samples=1500, seed=0)
    assert set(rep.monotone) == {0.05, 0.1}
    assert rep.monotone[0.1]
    for eps in (0.05, 0.1):
        fr = [rep.fractions[(n, eps)] for n in (10, 20, 40)]
        assert all(0.0 <= f <= 1.0 for f in fr)
        # wider tolerance catches fewer outliers at every radius
        assert rep.fractions[(40, 0.1)] <= rep.fractions[(40, 0.05)]


@pytest.mark.parametrize("n_list, samples",
                         [((0, 10), 100), ((-4, 10), 100), ((), 100),
                          ((4,), 0)],
                         ids=["n_list0", "n_list1", "n_list2", "samples0"])
def test_lln_rejects_radii_below_one(f2_aut, f2_star_ab, n_list, samples):
    with pytest.raises(ValueError, match="radii must be positive|at least "
                                         "one sample per radius"):
        lln_check(f2_aut, f2_star_ab, 0.85, n_list=n_list, samples=samples)


def test_scan_is_flat_for_the_same_metric(f2):
    S = f2.resolve(None)
    scan = rough_similarity_scan(S, S, 1.0, 6)
    assert scan.deviations == [0.0] * len(scan.deviations)
    assert scan.witnesses == [""] * 6  # no element deviates
    assert scan.verdict == "BOUNDED-LOOKING"


def test_scan_stops_at_the_last_sphere_of_a_finite_group(s3):
    # S3 has diameter 2, so there is no sphere of radius 3 to report
    S = s3.resolve(None)
    scan = rough_similarity_scan(S, S, 0.5, 12)
    assert scan.radii == [1, 2]
    assert scan.deviations == [0.5, 1.0]
    assert scan.witnesses == ["r", "r f"]


def test_scan_detects_genuine_distortion(f2, f2_star_a2):
    # against tau < 1, powers of a single letter drift away linearly
    S = f2.resolve(None)
    tau = 0.8775
    scan = rough_similarity_scan(S, f2_star_a2, tau, 8)
    assert scan.verdict == "GROWING"
    assert scan.deviations[-1] > scan.tolerance
    # the worst offender at radius r is a^r (length ceil(r/2)) or b^r
    # (length r); the maximum deviation therefore zigzags but its even
    # subsequence climbs linearly
    for r, dev in zip(scan.radii, scan.deviations):
        if r == 0:
            continue
        expected = max(abs(-(r // 2) - (r % 2) + tau * r), r * abs(1 - tau))
        assert dev == pytest.approx(expected, abs=1e-12)
    assert all(w for w in scan.witnesses[1:])


# --- structural facts the estimates rely on ---

F2_WORDS = st.lists(st.sampled_from(("a", "a^-1", "b", "b^-1")), max_size=10)


@given(F2_WORDS)
@settings(max_examples=60, deadline=None)
def test_composite_letters_only_help(f2_cached, word):
    f2, star = f2_cached
    x = f2.element(word)
    ls = x.length()
    lstar = word_length(x, star)
    # S is contained in S*, and each S*-letter costs at most two S-letters
    assert lstar <= ls <= 2 * lstar or ls == 0


@given(F2_WORDS, F2_WORDS)
@settings(max_examples=60, deadline=None)
def test_foreign_length_is_subadditive(f2_cached, u, v):
    f2, star = f2_cached
    x, y = f2.element(u), f2.element(v)
    assert word_length(x * y, star) <= word_length(x, star) + word_length(y, star)


@pytest.fixture(scope="module")
def f2_cached():
    from geoshift import parse_group_file

    f2 = parse_group_file("groups/f2.grp")
    return f2, f2.resolve("Sstar_ab")


# --- the tiling length kernel ---

def dp_tiling_length(pieces, key):
    """Fewest pieces (reduced words as bytes) that tile `key`, by the
    dynamic program over prefixes."""
    m = len(key)
    dp = [0] + [m + 1] * m
    for i in range(1, m + 1):
        if key[i - 1: i] in pieces:
            dp[i] = dp[i - 1] + 1
        if i >= 2 and key[i - 2: i] in pieces:
            dp[i] = min(dp[i], dp[i - 2] + 1)
    return dp[m]


@pytest.mark.parametrize("star", ["Sstar_ab", "Sstar_a2"])
def test_tiling_length_is_the_word_length_on_a_ball(f2, star):
    S, Sstar = f2.resolve(None), f2.resolve(star)
    length = _ForeignLength(S, Sstar)
    assert length.mode == "band"
    keys = ball_tree(S, 6).keys
    assert len(keys) == 1457
    for key in keys:
        x = GroupElement(f2, key)
        assert length(key) == word_length(x, Sstar)


OVERLAPPING = """\
name: F2
family: free
rank: 2
generators:
  letters: [a, A, b, B]
  inverses: {a: A, A: a, b: B, B: b}
gensets:
  T:
    letters: [a, A, b, B, aa, AA, ab, BA, ba, AB]
    inverses: {a: A, A: a, b: B, B: b, aa: AA, AA: aa, ab: BA, BA: ab,
               ba: AB, AB: ba}
    words: {aa: [a, a], AA: [A, A], ab: [a, b], BA: [B, A], ba: [b, a],
            AB: [A, B]}
"""


@pytest.fixture(scope="module")
def overlapping():
    return parse_group_text(OVERLAPPING)


@given(st.lists(st.sampled_from("aAbB"), max_size=40))
@settings(max_examples=300, deadline=None)
def test_tiling_length_matches_the_dynamic_program(overlapping, word):
    # two-letter pieces that overlap (aa, ab, ba) are where a greedy scan
    # could go wrong; the leftmost-first schedule never does
    T = overlapping.resolve("T")
    length = _ForeignLength(overlapping.resolve(None), T)
    assert length.mode == "band"
    x = overlapping.element(list(word))
    pieces = {e.key for e in T.elements}
    assert length(x.key) == dp_tiling_length(pieces, x.key)


# --- the banded length transducer against A* ---

@pytest.mark.parametrize("group, star, radius, size", [
    ("psl2z", "Sstar_st", 16, 1786),
    ("psl2z", None, 16, 1786),
    ("f2", "Sstar_ab", 7, 4373),
    ("f2", "Sstar_a2", 7, 4373),
])
def test_band_length_is_the_word_length_on_a_ball(request, group, star,
                                                  radius, size):
    G = request.getfixturevalue(group)
    S, Sstar = G.resolve(None), G.resolve(star)
    length = _ForeignLength(S, Sstar)
    assert length.mode == "band"
    keys = ball_tree(S, radius).keys
    assert len(keys) == size
    for key in keys:
        assert length(key) == word_length(GroupElement(G, key), Sstar)


def test_band_length_is_the_word_length_on_long_modular_words(psl2z, psl_aut):
    from geoshift import sample_uniform_sphere
    from geoshift.randomness import make_rng

    Sstar = psl2z.resolve("Sstar_st")
    length = _ForeignLength(psl2z.resolve(None), Sstar)
    assert length.mode == "band"
    xs = sample_uniform_sphere(psl_aut, 24, make_rng(5), count=200)
    assert len({x.key for x in xs}) > 150
    for x in xs:
        assert length(x.key) == word_length(x, Sstar)


Z2 = ((0, 1), (1, 0))
Z5 = tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5))


def _with_word(G, x, y):
    """G's base letters plus the two-letter word xy and its inverse."""
    S = G.base
    inv = S.inverses
    return G.resolve(GeneratingSet(
        S.letters + ("w", "w^-1"), {**inv, "w": "w^-1"},
        {"w": (x, y), "w^-1": (inv[y], inv[x])}, name="T"))


@pytest.mark.parametrize("x, y", [("s", "u"), ("u", "s"), ("s", "v"),
                                  ("v", "s"), ("s", "u^-1"), ("u^-1", "s")])
def test_band_length_on_a_free_product_of_complete_pieces(z2_z4, x, y):
    S, T = z2_z4.resolve(None), _with_word(z2_z4, x, y)
    length = _ForeignLength(S, T)
    assert length.mode == "band"
    for key in ball_tree(S, 8).keys:
        assert length(key) == word_length(GroupElement(z2_z4, key), T)


def _refused(G, S, Sstar):
    length = _ForeignLength(S, Sstar)
    x = G.element(G.base.letters[:1] * 3 + G.base.letters[-1:])
    assert length(x.key) == word_length(x, Sstar)
    return length.mode == "search"


def test_band_refuses_a_foreign_source_set(f2):
    assert _refused(f2, f2.resolve("Sstar_ab"), f2.resolve(None))


def test_band_refuses_a_letter_of_base_length_three(f2):
    assert _refused(f2, f2.resolve(None), _with_word(f2, "a", "a")) is False
    T = f2.resolve(GeneratingSet(
        f2.base.letters + ("w", "w^-1"), {**f2.base.inverses, "w": "w^-1"},
        {"w": ("a", "a", "b"), "w^-1": ("b^-1", "a^-1", "a^-1")}, name="T"))
    assert _refused(f2, f2.resolve(None), T)


def test_band_refuses_a_factor_element_that_is_no_letter():
    # t^2 and t^3 have base length 2: the pieces are not complete graphs
    G = free_product_group(
        (Z5, Z2), letters=("t", "t^-1", "s"),
        letter_syllables={"t": (0, 1), "t^-1": (0, 4), "s": (1, 1)},
        inverses={"t": "t^-1", "t^-1": "t", "s": "s"})
    assert _refused(G, G.resolve(None), _with_word(G, "s", "t"))


def test_band_refuses_genus_two():
    from geoshift import parse_group_file

    G = parse_group_file("groups/genus2.grp")
    assert _refused(G, G.resolve(None), _with_word(G, "a", "b"))


# --- band pairs walk the product; the enumerations they replaced as oracles ---

def reference_scan(S, tree, lengths, tau):
    """The scan that band pairs ran before the product walk: over a ball
    tree and the S*-length of each of its keys, the largest deviation per
    radius and the first element of the sphere that attains it."""
    last = tree.radius()
    if tree.sphere_size(last) == 0:  # a finite group ran out of spheres
        last -= 1
    deviations = [0.0] * (last + 1)
    witnesses = [""] * (last + 1)
    for r in range(1, last + 1):
        for i in range(tree.layer_bounds[r], tree.layer_bounds[r + 1]):
            dev = abs(lengths[i] - tau * r)
            if dev > deviations[r]:
                deviations[r] = dev
                witnesses[r] = " ".join(S.letters[li]
                                        for li in tree.tree_word(i))
    return deviations[1:], witnesses[1:]


def reference_exact_means(aut, Sstar, n_max):
    """Exact sphere means by enumerating every sphere and summing lengths."""
    length = _ForeignLength(aut.genset, Sstar)
    out = [Fraction(0)]
    for n in range(1, n_max + 1):
        total = count = 0
        for x in enumerate_sphere(aut, n):
            total += length(x.key)
            count += 1
        out.append(Fraction(total, count))
    return out


@pytest.fixture(scope="module")
def z2_z2():
    return free_product_group((Z2, Z2), letters=("s", "t"),
                              letter_syllables={"s": (0, 1), "t": (1, 1)},
                              inverses={"s": "s", "t": "t"})


def _pair(request, group, star):
    """(group, S, S*) for a fixture group; star None is S, a pair of base
    letters is S plus their product."""
    G = request.getfixturevalue(group)
    if isinstance(star, tuple):
        return G, G.resolve(None), _with_word(G, *star)
    return G, G.resolve(None), G.resolve(star)


F2_TAUS = (0.5, 2 / 3, 0.75, 5 / 6, 0.878, 1.0)
WALK_CASES = (
    [("f2", star, 10, F2_TAUS) for star in (None, "Sstar_ab", "Sstar_a2")]
    + [("psl2z", "Sstar_st", 16, (0.5, 0.625, 2 / 3, 1.0)),
       ("z2_z4", ("s", "u"), 8, (0.5, 0.6, 0.75)),
       ("z2_z4", ("u^-1", "s"), 8, (0.5, 0.6, 0.75)),
       ("z2_z2", ("s", "t"), 12, (0.5, 0.75, 1.0))])
PAIR_IDS = {None: "S", ("s", "u"): "su", ("u^-1", "s"): "Us",
            ("v", "s"): "vs", ("s", "t"): "st"}


@pytest.mark.parametrize("group, star, radius, taus", WALK_CASES,
                         ids=[f"{g}-{PAIR_IDS.get(s, s)}"
                              for g, s, _, _ in WALK_CASES])
def test_band_scan_is_the_ball_scan(request, group, star, radius, taus):
    G, S, Sstar = _pair(request, group, star)
    length = _ForeignLength(S, Sstar)
    assert length.mode == "band"
    tree = ball_tree(S, radius)
    lengths = [length(key) for key in tree.keys]
    if group == "z2_z4":  # keys spell syllables, which the map indexes
        assert length.band.index == {(0, 1): 0, (1, 1): 1, (1, 3): 2,
                                     (1, 2): 3}
    for tau in taus:
        want = reference_scan(S, tree, lengths, tau)
        assert len(want[0]) == radius
        for R in range(1, radius + 1):
            scan = rough_similarity_scan(S, Sstar, tau, R)
            assert scan.radii == list(range(1, R + 1))
            assert scan.deviations == want[0][:R]
            assert scan.witnesses == want[1][:R]


def test_band_scan_breaks_a_tie_by_the_first_word(f2, f2_star_a2):
    # at tau = 3/4 and even r, b^r (length r) and a^r (length r/2) lie
    # r/4 above and below tau r; the witness is the lex-first word of both
    # extremes, which is a^r, the smallest
    S = f2.resolve(None)
    scan = rough_similarity_scan(S, f2_star_a2, 0.75, 10)
    for r, dev, word in zip(scan.radii, scan.deviations, scan.witnesses):
        if r % 2 == 0:
            assert dev == r / 4
            assert word == " ".join(["a"] * r)


@pytest.fixture(scope="module")
def walk_automata(request):
    """Automata of the base sets of the two generated free products."""
    return {g: build_geodesic_automaton(request.getfixturevalue(g),
                                        n_check=8)
            for g in ("z2_z4", "z2_z2")}


MEAN_CASES = [
    ("f2", None, 10), ("f2", "Sstar_ab", 10), ("f2", "Sstar_a2", 10),
    ("psl2z", "Sstar_st", 16), ("z2_z4", ("s", "u"), 8),
    ("z2_z4", ("v", "s"), 8), ("z2_z2", ("s", "t"), 12)]


@pytest.mark.parametrize("group, star, n_max", MEAN_CASES,
                         ids=[f"{g}-{PAIR_IDS.get(s, s)}"
                              for g, s, _ in MEAN_CASES])
def test_band_means_are_the_enumerated_means(request, walk_automata,
                                             monkeypatch, group, star, n_max):
    from geoshift import distortion

    G, S, Sstar = _pair(request, group, star)
    aut = (request.getfixturevalue({"f2": "f2_aut", "psl2z": "psl_aut"}[group])
           if group in ("f2", "psl2z") else walk_automata[group])
    want = reference_exact_means(aut, Sstar, n_max)
    # the product walk builds no ball
    monkeypatch.setattr(distortion, "ball_tree", None)
    assert mean_distortion_exact(aut, Sstar, n_max) == want


BAND_WORD_CASES = [("f2", "Sstar_ab"), ("f2", "Sstar_a2"),
                   ("psl2z", "Sstar_st"), ("z2_z4", ("s", "u")),
                   ("z2_z4", ("u^-1", "s")), ("z2_z2", ("s", "t"))]


@pytest.mark.parametrize("group, star", BAND_WORD_CASES,
                         ids=[f"{g}-{PAIR_IDS.get(s, s)}"
                              for g, s in BAND_WORD_CASES])
def test_band_lengths_of_a_word_matrix_are_the_key_lengths(
        request, walk_automata, group, star):
    # every accepted word of each sphere up to radius 8, one row each,
    # against the per-key walk of the key its letters spell
    G, S, Sstar = _pair(request, group, star)
    aut = (request.getfixturevalue({"f2": "f2_aut", "psl2z": "psl_aut"}[group])
           if group in ("f2", "psl2z") else walk_automata[group])
    band = _BandProduct.of(S, Sstar)
    eng = G.engine
    for n in range(9):
        rows = [eng.to_word(x.key) for x in enumerate_sphere(aut, n)]
        words = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
        got = band.lengths(words)
        assert got == [band.length(eng.from_word(row)) for row in rows]
        assert {type(L) for L in got} == {int}


def test_search_pair_lengths_read_each_key(f2, f2_aut):
    # a letter of base length three: the pair is no band pair, and the
    # lengths of a sample's rows are A* lengths of its keys
    from geoshift import sample_uniform_sphere
    from geoshift.randomness import make_rng

    T = f2.resolve(GeneratingSet(
        f2.base.letters + ("w", "w^-1"), {**f2.base.inverses, "w": "w^-1"},
        {"w": ("a", "a", "b"), "w^-1": ("b^-1", "a^-1", "a^-1")}, name="T"))
    length = _ForeignLength(f2_aut.genset, T)
    assert length.mode == "search"
    xs = sample_uniform_sphere(f2_aut, 7, make_rng(2), count=40)
    assert length.lengths(f2_aut, xs.letters) == [word_length(x, T)
                                                  for x in xs]


def test_band_means_ignore_the_machine(f2, f2_aut):
    # a machine that accepts a a a^-1 a^-1, whose key is empty: the band
    # means walk the group's keys, so they are the means of F2's spheres
    S = f2.resolve(None)
    aut = automaton_from_edges(f2, S, 5,
                               {(0, 0): 1, (1, 0): 2, (2, 1): 3, (3, 1): 4})
    star = f2.resolve("Sstar_ab")
    assert (mean_distortion_exact(aut, star, 4)
            == reference_exact_means(f2_aut, star, 4))


def test_band_means_cost_no_sphere_enumeration(f2_aut, f2_star_ab):
    t0 = time.perf_counter()
    means = mean_distortion_exact(f2_aut, f2_star_ab, 200)
    assert time.perf_counter() - t0 < 1.0
    assert means[:len(EXACT_AB)] == EXACT_AB
    assert abs(float(means[200]) / 200 - 5 / 6) < 0.01


def test_mc_row_agrees_with_the_exact_mean_at_forty(f2_aut, f2_star_ab):
    exact = mean_distortion_exact(f2_aut, f2_star_ab, 40)[40] / 40
    est = mean_distortion_mc(f2_aut, f2_star_ab, (40,), samples=2000, seed=3)
    row = est.row(40)
    assert row.stderr > 0
    assert abs(row.mean - float(exact)) <= 4 * row.stderr


def test_exact_means_check_the_budget_before_enumerating(f2, monkeypatch):
    # from S* to S the lengths come from the search mode, which reads the
    # breadth-first ball
    from geoshift import distortion

    star = f2.resolve("Sstar_ab")
    aut = build_geodesic_automaton(f2, star, n_check=6)
    S = f2.resolve(None)
    assert _ForeignLength(star, S).mode == "search"
    first = next(n for n in range(1, 17)
                 if sphere_count(aut, n) > distortion.EXACT_BUDGET)
    assert first < 16
    monkeypatch.setattr(distortion, "ball_tree", None)
    with pytest.raises(ResourceLimit,
                       match=f"sphere of radius {first} exceeds budget "
                             f"{distortion.EXACT_BUDGET}$"):
        mean_distortion_exact(aut, S, 16)


def test_band_pairs_build_no_ball(f2, f2_aut, f2_star_a2, monkeypatch):
    from geoshift import distortion

    monkeypatch.setattr(distortion, "ball_tree", None)
    scan = rough_similarity_scan(f2.resolve(None), f2_star_a2, 0.75, 10)
    assert scan.deviations[1] == 0.5  # at r = 2: a^2 and b^2
    assert mean_distortion_exact(f2_aut, f2_star_a2, 10)[1] == 1


# --- search pairs read the breadth-first ball ---

def _foreign_copy(G):
    """G's base letters resolved as a foreign set: it is not the base set,
    so every pair from it takes the search path."""
    return G.resolve(GeneratingSet(G.base.letters, G.base.inverses,
                                   name="T"))


def _over(aut, T, transitions=None):
    """`aut` read over T, whose letters it spells in the same order, with
    its own transitions or these."""
    return automaton_from_edges(
        aut.group, T, aut.n_states, transitions or aut.transitions,
        initial=aut.initial, level_used=aut.level_used,
        tail_used=aut.tail_used)


@pytest.mark.parametrize("group, star", [
    ("f2", "Sstar_ab"), ("f2", "Sstar_a2"), ("psl2z", "Sstar_st")])
def test_search_stream_is_the_band_stream(request, group, star):
    G = request.getfixturevalue(group)
    aut = request.getfixturevalue({"f2": "f2_aut", "psl2z": "psl_aut"}[group])
    S, T, Sstar = G.resolve(None), _foreign_copy(G), G.resolve(star)
    assert _ForeignLength(S, Sstar).mode == "band"
    assert _ForeignLength(T, Sstar).mode == "search"
    assert (mean_distortion_exact(_over(aut, T), Sstar, 6)
            == mean_distortion_exact(aut, Sstar, 6))
    # the band's tau, and round values where extremes tie (a^r and b^r at
    # 3/4 against Sstar_a2)
    for tau in (_BandProduct.of(S, Sstar).tau, 0.5, 0.75, 1.0):
        band, search = (rough_similarity_scan(U, Sstar, tau, 6)
                        for U in (S, T))
        assert search.deviations == band.deviations
        assert search.witnesses == band.witnesses
        assert search.verdict == band.verdict


def test_search_means_ignore_the_machine_words(f2, f2_aut):
    # the redirected-transition mutant of the validation tests: its sphere
    # counts are right, but some of its words are no geodesics
    T, star = _foreign_copy(f2), f2.resolve("Sstar_ab")
    edges = dict(f2_aut.transitions)
    (s, li), t = next((k, v) for k, v in sorted(edges.items()) if k[0] > 0)
    other = next(u for u in range(1, f2_aut.n_states) if u != t)
    good = _over(f2_aut, T)
    mutant = _over(f2_aut, T, {**edges, (s, li): other})
    assert ([sphere_count(mutant, n) for n in range(7)]
            == [sphere_count(good, n) for n in range(7)])
    assert [x.key for x in enumerate_sphere(mutant, 6)] != [
        x.key for x in enumerate_sphere(good, 6)]
    # enumerating the mutant's words would give other means
    assert reference_exact_means(mutant, star, 6) != EXACT_AB
    assert mean_distortion_exact(mutant, star, 6) == EXACT_AB
    assert mean_distortion_exact(good, star, 6) == EXACT_AB


def test_search_pair_from_a_free_basis_reads_the_spelled_keys(f2, f2_aut):
    # aab has base length 3, so S -> S + {aab} is no band pair, and the ball
    # of S is laid out on its free basis, whose keys are spelled when read.
    # aab is no palindrome, so keys spelled in reverse (letter times parent)
    # would move the scan's witnesses.
    S, base = f2.resolve(None), f2.base
    T = f2.resolve(GeneratingSet(
        base.letters + ("w", "w^-1"), {**base.inverses, "w": "w^-1"},
        {"w": ("a", "a", "b"), "w^-1": ("b^-1", "a^-1", "a^-1")}, name="T"))
    assert _ForeignLength(S, T).mode == "search"
    keys, parent, letter, nbr, bounds = reference_ball_tree(S, 5)
    tree = BallTree(keys, array("i", parent), array("i", letter), bounds,
                    array("i", nbr))
    lengths = [word_length(GroupElement(f2, key), T) for key in keys]
    means = [Fraction(sum(lengths[lo:hi]), hi - lo)
             for lo, hi in zip(bounds, bounds[1:])]
    assert mean_distortion_exact(f2_aut, T, 5) == means
    assert means[3] != 3  # aab and its inverse have length 1
    for tau in (0.5, 0.75, 1.0):
        scan = rough_similarity_scan(S, T, tau, 5)
        assert (scan.deviations, scan.witnesses) == reference_scan(
            S, tree, lengths, tau)


def test_band_table_is_built_once_per_pair(f2):
    from geoshift import distortion

    a = _ForeignLength(f2.resolve(None), f2.resolve("Sstar_a2"))
    b = _ForeignLength(f2.resolve(None), f2.resolve("Sstar_a2"))
    assert isinstance(a.band, _BandProduct)
    assert a.band is b.band
    assert _BandProduct.of(f2.resolve(None), f2.resolve("Sstar_a2")) is a.band
    c = _ForeignLength(f2.resolve(None), f2.resolve("Sstar_ab"))
    assert c.band is not a.band
    assert distortion._band_product.cache_info().hits >= 2


# --- the exact mean distortion of a band product ---

@pytest.mark.parametrize("group, star, tau", [
    ("f2", None, Fraction(1)), ("f2", "Sstar_ab", Fraction(5, 6)),
    ("f2", "Sstar_a2", Fraction(7, 8)), ("psl2z", "Sstar_st", Fraction(5, 8))])
def test_band_product_tau_is_exact(request, group, star, tau):
    G = request.getfixturevalue(group)
    band = _BandProduct.of(G.resolve(None), G.resolve(star))
    assert abs(band.tau - tau) <= 1e-12


@pytest.mark.parametrize("group, star", [
    ("f2", "Sstar_ab"), ("f2", "Sstar_a2"), ("psl2z", "Sstar_st")])
def test_band_product_tau_is_the_slope_of_the_exact_means(request, group,
                                                          star):
    # the sphere means settle to E_n = tau n + c (PSL2Z alternates with
    # period 2), so their difference over two radii is tau
    G = request.getfixturevalue(group)
    aut = request.getfixturevalue({"f2": "f2_aut", "psl2z": "psl_aut"}[group])
    Sstar = G.resolve(star)
    means = mean_distortion_exact(aut, Sstar, 40)
    tau = _BandProduct.of(G.resolve(None), Sstar).tau
    assert abs(float(means[40] - means[38]) / 2 - tau) <= 1e-9


def test_band_product_tau_refuses_two_maximal_components():
    # in Z the a-ray and the A-ray are two components of pressure 0
    Z = free_group(1)
    band = _BandProduct.of(Z.resolve(None), Z.resolve(None))
    with pytest.raises(ValueError, match="2 maximal components"):
        band.tau


def test_band_product_refuses_a_search_pair(f2):
    S, Sstar = f2.resolve("Sstar_ab"), f2.resolve("Sstar_a2")
    assert _ForeignLength(S, Sstar).mode == "search"
    with pytest.raises(ValueError, match="no band product"):
        _BandProduct.of(S, Sstar)
