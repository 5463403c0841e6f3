"""Drift along typical rays, regular growth, and the dimension estimate."""

import math

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


@pytest.fixture(scope="module")
def f2_measure(f2_aut):
    dec = components(sft_from_automaton(f2_aut))
    psi = word_length_potential(math.log(3.0))
    C = dec.components[maximal_components(dec, psi).maximal[0]]
    return parry_gibbs_measure(C, psi)


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

