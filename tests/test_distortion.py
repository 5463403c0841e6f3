"""Comparing word metrics: exact sphere averages, sampling, LLN, scans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geoshift import (
    check_growth_inequality,
    lln_check,
    mean_distortion_exact,
    mean_distortion_mc,
    rough_similarity_scan,
)
from geoshift.distortion import _ForeignLength
from geoshift.geometry import ball_tree, word_length
from geoshift.grammar import parse_group_text
from geoshift.groups import GroupElement

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


@pytest.mark.parametrize("n_list", [(0, 10), (-4, 10), ()])
def test_lln_rejects_radii_below_one(f2_aut, f2_star_ab, n_list):
    with pytest.raises(ValueError, match="sphere radii must be positive"):
        lln_check(f2_aut, f2_star_ab, 0.85, n_list=n_list, samples=100)


def test_scan_is_flat_for_the_same_metric(f2):
    S = f2.resolve(None)
    scan = rough_similarity_scan(S, S, 1.0, 6)
    assert scan.deviations == [0.0] * len(scan.deviations)
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
    length = _ForeignLength(S, Sstar, 6)
    assert length.mode == "tiling"
    keys = ball_tree(S, 6).keys
    assert len(keys) == 1457
    for key in keys:
        x = GroupElement(f2, key)
        assert length(x) == word_length(x, Sstar)


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
    length = _ForeignLength(overlapping.resolve(None), T, 40)
    assert length.mode == "tiling"
    x = overlapping.element(list(word))
    pieces = {e.key for e in T.elements}
    assert length(x) == dp_tiling_length(pieces, x.key)
