"""Drift along typical rays, regular growth, and the dimension estimate."""

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest

from geoshift import (
    components,
    drift,
    maximal_components,
    parry_gibbs_measure,
    ps_dimension_estimate,
    regular_growth_check,
    sft_from_automaton,
    word_length_potential,
)
from geoshift.automaton import _prefix_key
from geoshift.dimension import _ray_chain, _walk
from geoshift.distortion import _BandProduct
from geoshift.errors import EmptySphere
from geoshift.randomness import make_rng
from dense_thermo import step_matrix
from test_randomness import state


@pytest.fixture(scope="module")
def f2_measure(f2_aut):
    dec = components(sft_from_automaton(f2_aut))
    psi = word_length_potential(math.log(3.0))
    C = dec.components[maximal_components(dec, psi).maximal[0]]
    return parry_gibbs_measure(C, psi)


@pytest.fixture(scope="module")
def psl_measure(psl_aut):
    dec = components(sft_from_automaton(psl_aut))
    mp = maximal_components(dec)
    return parry_gibbs_measure(dec.components[mp.maximal[0]],
                               word_length_potential(mp.max_pressure))


def _walk_per_step(m, aut, entry, n, rng):
    """The ray walk with one scalar draw and one cumulative sum per step,
    and one group product per step: the elements o = x_0, ..., x_n."""
    sft = m.component.sft
    T = aut.genset
    cum_entry = np.cumsum(entry)
    P = step_matrix(m)
    trail = [aut.group.identity()]
    if n == 0:
        return trail
    j = int(np.searchsorted(cum_entry, rng.random(), side="right"))
    j = min(j, len(entry) - 1)
    for _ in range(n):
        li = sft.edges[m.nodes[j]][1]
        trail.append(trail[-1] * T.elements[li])
        row = P[j]
        cum = np.cumsum(row)
        if cum[-1] <= 0.0:
            raise EmptySphere("the chain reached an absorbing defect")
        r = rng.random() * cum[-1]
        j = int(np.searchsorted(cum, r, side="right"))
        j = min(j, len(row) - 1)
    return trail


def reference_walk(m, aut, entry, n, rng):
    """The ray walk one ray at a time, as it stood before the block walk:
    n + 1 uniforms from one ``rng.random(n + 1)``, then a bisection of the
    current row's cumulative sums per step; the letter indices of the
    ray's n edges."""
    if n == 0:
        return []
    edges, nodes = m.component.sft.edges, m.nodes
    u = rng.random(n + 1).tolist()
    j = min(bisect_right(np.cumsum(entry).tolist(), u[0]), len(entry) - 1)
    cum_rows = np.cumsum(step_matrix(m), axis=1).tolist()
    letters = []
    for k in range(1, n + 1):
        letters.append(edges[nodes[j]][1])
        cum = cum_rows[j]
        if cum[-1] <= 0.0:
            raise EmptySphere("the chain reached an absorbing defect")
        j = min(bisect_right(cum, u[k] * cum[-1]), len(cum) - 1)
    return letters


@pytest.mark.parametrize("which", ["f2_measure", "psl_measure"])
@pytest.mark.parametrize("n, count", [(0, 3), (1, 40), (7, 1), (13, 300),
                                      (40, 50)])
def test_block_walk_is_the_per_ray_walk(request, which, n, count):
    m = request.getfixturevalue(which)
    aut, entry = _ray_chain(m)
    rng, ref_rng = make_rng(3, stream=n), make_rng(3, stream=n)
    rng.integers(3)  # start from a held-back half
    ref_rng.integers(3)
    words = _walk(m, aut, entry, n, rng, count)
    assert words.shape == (count, n)
    assert words.tolist() == [reference_walk(m, aut, entry, n, ref_rng)
                              for _ in range(count)]
    assert state(rng) == state(ref_rng)


@pytest.mark.parametrize("which", ["f2_measure", "psl_measure"])
def test_block_walk_raises_at_an_absorbing_defect_like_the_per_ray_walk(
        request, which):
    m = request.getfixturevalue(which)
    aut, entry = _ray_chain(m)
    p = m.p.copy()
    # the state the likeliest node ends in absorbs: its step law is zero
    p[m.src == m.dst[int(np.argmax(m.pi))]] = 0.0
    broken = dataclasses.replace(m, p=p)
    with pytest.raises(EmptySphere):
        _walk(broken, aut, entry, 20, make_rng(4), 30)
    ref_rng = make_rng(4)
    with pytest.raises(EmptySphere):
        for _ in range(30):
            reference_walk(broken, aut, entry, 20, ref_rng)


@pytest.mark.parametrize("which, star", [("f2_measure", "Sstar_ab"),
                                         ("f2_measure", "Sstar_a2"),
                                         ("psl_measure", "Sstar_st")])
def test_band_lengths_of_a_ray_block_are_the_key_lengths(request, which,
                                                         star):
    m = request.getfixturevalue(which)
    aut, entry = _ray_chain(m)
    G = aut.group
    band = _BandProduct.of(aut.genset, G.resolve(star))
    words = _walk(m, aut, entry, 40, make_rng(1), 200)
    rows = words.tolist()
    assert band.lengths(words) == [band.length(G.engine.from_word(row))
                                   for row in rows]
    assert band.lengths(words[:, :17]) == [
        band.length(G.engine.from_word(row[:17])) for row in rows]


@pytest.mark.parametrize("which", ["f2_measure", "psl_measure"])
def test_walk_replays_the_per_step_walk(request, which):
    m = request.getfixturevalue(which)
    aut, entry = _ray_chain(m)
    key = _prefix_key(aut)
    for seed in range(5):
        for n in (0, 1, 7, 40):
            rng, ref_rng = make_rng(seed, stream=317), make_rng(seed, stream=317)
            # two rays in one walk: the second starts where the first left
            # off
            words = _walk(m, aut, entry, n, rng, 2)
            assert words.shape == (2, n)
            for letters in words.tolist():
                ref = _walk_per_step(m, aut, entry, n, ref_rng)
                # one normal form per prefix against the per-step products
                assert [key(letters[:k]) for k in range(n + 1)] == [
                    x.key for x in ref]
            assert state(rng) == state(ref_rng)


def test_ray_chain_is_uniform_on_the_first_spheres(f2, f2_measure):
    # so the drift at n has the exact sphere mean E_n / n as expectation,
    # which battery criterion 10 measures it against
    m = f2_measure
    aut, entry = _ray_chain(m)
    eng = f2.engine
    steps = [aut.genset.elements[m.component.sft.edges[e][1]].key
             for e in m.nodes]
    # the law of (chain node j_k, x_k), from the first edge on
    law = {(j, steps[j]): p for j, p in enumerate(entry.tolist()) if p > 0}
    P = step_matrix(m)
    for k in range(1, 6):
        if k > 1:
            nxt = {}
            for (j, key), p in law.items():
                for i, q in enumerate(P[j].tolist()):
                    if q > 0:
                        y = (i, eng.mult(key, steps[i]))
                        nxt[y] = nxt.get(y, 0.0) + p * q
            law = nxt
        masses = {}
        for (_, key), p in law.items():
            masses[key] = masses.get(key, 0.0) + p
        assert len(masses) == 4 * 3 ** (k - 1)
        assert {eng.length(key) for key in masses} == {k}
        assert max(abs(p * len(masses) - 1) for p in masses.values()) < 1e-12


def test_drift_of_the_native_metric_is_one(f2, f2_measure):
    est = drift(f2_measure, f2.resolve(None), 20, samples=50, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_drift_seeded_and_concentrated(f2_measure, f2_star_ab):
    a = drift(f2_measure, f2_star_ab, 24, samples=200, seed=3)
    b = drift(f2_measure, f2_star_ab, 24, samples=200, seed=3)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    assert 0.75 < a.mean < 0.95
    assert a.stderr < 0.01


def test_regular_growth_constants(f2_aut):
    rep = regular_growth_check(f2_aut, 20)
    assert rep.rate == pytest.approx(math.log(3.0), abs=1e-12)
    # |S_n| = (4/3) 3^n exactly, for every n >= 1
    assert rep.c1 == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert rep.c2 == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert len(rep.values) == 20


def test_regular_growth_modular(psl_aut):
    rep = regular_growth_check(psl_aut, 25)
    assert rep.c2 / rep.c1 < 10


def test_dimension_estimate_native_metric(f2, f2_aut, f2_measure):
    est = ps_dimension_estimate(f2_aut, f2.resolve(None), f2_measure,
                                n=24, samples=100, seed=0, diag_rays=2)
    # measuring with the automaton's own metric: dimension = growth rate
    assert est.drift.mean == 1.0
    assert est.dim_hat == pytest.approx(math.log(3.0), abs=1e-12)
    assert est.width < 1e-9


def test_dimension_estimate_composite_metric(f2_aut, f2_star_ab, f2_measure):
    est = ps_dimension_estimate(f2_aut, f2_star_ab, f2_measure,
                                n=24, samples=150, seed=0, diag_rays=3)
    # growth log 3 over drift ~0.84 lands near log 4 = growth of the
    # composite set, since the pair is roughly similar
    assert 1.2 < est.dim_hat < 1.4
    assert est.width > 0
    assert est.dim_hat - est.width <= math.log(3.0) / est.drift.mean <= est.dim_hat + est.width
    # diagnostic rows: (ray, checkpoint, composite length, local exponent)
    assert {row[0] for row in est.diagnostics} == {0, 1, 2}
    for _, k, length, local in est.diagnostics:
        assert 0 < k <= 24
        assert 1 <= length <= k
        assert 0.9 < local < 1.7


@pytest.mark.parametrize("call", [
    lambda m, star, aut: drift(m, star, 4, 0),
    lambda m, star, aut: drift(m, star, 0, 5),
    lambda m, star, aut: ps_dimension_estimate(aut, star, m, n=0),
], ids=["no-rays", "drift-length-0", "estimate-length-0"])
def test_empty_rays_are_rejected(f2_aut, f2_star_ab, f2_measure, call):
    with pytest.raises(ValueError, match="positive ray length"):
        call(f2_measure, f2_star_ab, f2_aut)
