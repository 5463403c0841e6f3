"""Drift along typical rays, regular growth, and the dimension estimate."""

import math

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
from geoshift.dimension import _prefix_key, _ray_chain, _walk
from geoshift.errors import EmptySphere
from geoshift.randomness import make_rng
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
    trail = [aut.group.identity()]
    if n == 0:
        return trail
    j = int(np.searchsorted(cum_entry, rng.random(), side="right"))
    j = min(j, len(entry) - 1)
    for _ in range(n):
        li = sft.edges[m.nodes[j]][1]
        trail.append(trail[-1] * T.elements[li])
        row = m.P[j]
        cum = np.cumsum(row)
        if cum[-1] <= 0.0:
            raise EmptySphere("the chain reached an absorbing defect")
        r = rng.random() * cum[-1]
        j = int(np.searchsorted(cum, r, side="right"))
        j = min(j, len(row) - 1)
    return trail


@pytest.mark.parametrize("which", ["f2_measure", "psl_measure"])
def test_walk_replays_the_per_step_walk(request, which):
    m = request.getfixturevalue(which)
    aut, entry = _ray_chain(m)
    key = _prefix_key(aut)
    for seed in range(5):
        for n in (0, 1, 7, 40):
            rng, ref_rng = make_rng(seed, stream=317), make_rng(seed, stream=317)
            # two rays in a row: the second starts where the first left off
            for _ in range(2):
                letters = _walk(m, aut, entry, n, rng)
                ref = _walk_per_step(m, aut, entry, n, ref_rng)
                assert len(letters) == n
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
    for k in range(1, 6):
        if k > 1:
            nxt = {}
            for (j, key), p in law.items():
                for i, q in enumerate(m.P[j].tolist()):
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
