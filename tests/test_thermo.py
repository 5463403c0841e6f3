"""Pressure, equilibrium Markov measures, and cylinder-ratio bounds.

The free-group machine makes everything exactly computable by hand: the
recurrent part is a 12-symbol shift where every symbol has three followers,
so the equilibrium chain is uniform and each cylinder ratio collapses to a
single constant.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from geoshift import (
    build_geodesic_automaton,
    check_variational,
    components,
    entropy,
    gibbs_ratio_scan,
    growth_rate,
    maximal_components,
    parry_gibbs_measure,
    sft_from_automaton,
    word_length_potential,
)
from geoshift import dimension
from geoshift.randomness import make_rng
from geoshift.sft import Sft
from geoshift.thermo import Potential, mean_potential, pressure

LOG3 = math.log(3.0)


def cylinder_measure(m, block):
    """Reference measure of the cylinder fixing the given consecutive edges:
    the stationary weight of the first edge times the chain's transition
    probabilities.  The empty block describes the whole space."""
    block = tuple(block)
    if not block:
        return float(sum(m.pi))
    node = {e: i for i, e in enumerate(m.nodes)}
    cur = node.get(block[0])
    if cur is None:
        return 0.0
    prob = float(m.pi[cur])
    for e in block[1:]:
        nxt = node.get(e)
        if nxt is None:
            return 0.0
        prob *= float(m.P[cur, nxt])
        if prob == 0.0:
            return 0.0
        cur = nxt
    return prob


def follows(sft, e, f):
    """May edge f follow edge e: e ends where f starts."""
    return sft.edges[e][2] == sft.edges[f][0]


@pytest.fixture(scope="module")
def f2_measure(f2_aut):
    dec = components(sft_from_automaton(f2_aut))
    psi = word_length_potential(LOG3)
    mp = maximal_components(dec, psi)
    C = dec.components[mp.maximal[0]]
    return parry_gibbs_measure(C, psi)


@pytest.fixture(scope="module")
def psl_measure(psl_aut):
    dec = components(sft_from_automaton(psl_aut))
    v = growth_rate(psl_aut, dec)
    psi = word_length_potential(v)
    C = dec.components[maximal_components(dec, psi).maximal[0]]
    return parry_gibbs_measure(C, psi)


def test_growth_rates(f2_aut, psl_aut):
    assert growth_rate(f2_aut) == pytest.approx(LOG3, abs=1e-12)
    assert growth_rate(psl_aut) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_finite_group_grows_at_rate_zero_without_warning(s3):
    aut = build_geodesic_automaton(s3, n_check=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert growth_rate(aut) == 0.0


def test_free_group_chain_is_uniform(f2_measure):
    m = f2_measure
    assert len(m.nodes) == 12
    assert np.allclose(m.pi, 1.0 / 12.0, atol=1e-12)
    assert ((m.P > 0).sum(axis=1) == 3).all()
    assert np.allclose(m.P[m.P > 0], 1.0 / 3.0, atol=1e-12)


def test_pressure_vanishes_at_the_growth_rate(f2_measure):
    assert abs(f2_measure.pressure) < 1e-12


def test_entropy_equals_growth(f2_measure, psl_measure):
    assert entropy(f2_measure) == pytest.approx(LOG3, abs=1e-12)
    assert entropy(psl_measure) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_mean_potential(f2_measure):
    # the potential is the constant -log 3, so its mean is -log 3
    assert mean_potential(f2_measure) == pytest.approx(-LOG3, abs=1e-12)


def test_variational_identity(f2_measure):
    h = entropy(f2_measure)
    assert h + mean_potential(f2_measure) == pytest.approx(
        f2_measure.pressure, abs=1e-12)


def test_modular_chain_alternates(psl_measure):
    C = psl_measure.component
    assert C.period == 2
    assert sorted(len(p) for p in C.cyclic_parts()) == [1, 2]
    assert np.allclose(psl_measure.pi, 0.25, atol=1e-12)
    assert set(np.round(psl_measure.P[psl_measure.P > 0], 12)) == {0.5, 1.0}


# --- cylinder sets ---

def test_single_symbol_cylinders(f2_measure):
    for e in f2_measure.nodes:
        assert cylinder_measure(f2_measure, (e,)) == pytest.approx(
            1.0 / 12.0, abs=1e-12)


def test_cylinder_additivity(f2_measure):
    m = f2_measure
    sft = m.component.sft
    e0 = m.nodes[0]
    followers = [f for f in m.component.edge_ids if follows(sft, e0, f)]
    total = sum(cylinder_measure(m, (e0, f)) for f in followers)
    assert total == pytest.approx(cylinder_measure(m, (e0,)), abs=1e-12)


def test_empty_cylinder_is_everything(f2_measure):
    assert cylinder_measure(f2_measure, ()) == pytest.approx(1.0, abs=1e-12)


def test_forbidden_block_has_measure_zero(f2_measure):
    m = f2_measure
    sft = m.component.sft
    e0 = m.nodes[0]
    blocked = next(f for f in m.component.edge_ids if not follows(sft, e0, f))
    assert cylinder_measure(m, (e0, blocked)) == 0.0


# --- Gibbs ratios ---

def test_free_group_cylinder_ratios_are_constant(f2_measure):
    # mu[w] = (1/12) 3^{1-k} against weight 3^{-k}: the ratio is 1/4 always
    rep = gibbs_ratio_scan(f2_measure, n_max=8)
    assert rep.c_lower == pytest.approx(0.25, abs=1e-9)
    assert rep.c_upper == pytest.approx(0.25, abs=1e-9)
    assert not rep.truncated
    assert rep.n_cylinders == 12 * (3 ** 8 - 1) // 2


def test_modular_cylinder_ratios(psl_measure):
    # forced steps double the conditional weight, so the band is [1/4, 1/2]
    rep = gibbs_ratio_scan(psl_measure, n_max=8)
    assert rep.c_lower == pytest.approx(0.25, abs=1e-9)
    assert rep.c_upper == pytest.approx(0.50, abs=1e-9)
    assert rep.c_upper / rep.c_lower < 100


def two_shift_measure():
    sft = Sft([(0, 0, 0), (0, 1, 0)], 1)
    C = components(sft).components[0]
    return parry_gibbs_measure(C, word_length_potential(math.log(2.0)))


def edge_varying(m, step=0.0):
    C = m.component
    return parry_gibbs_measure(C, Potential.on_edges(
        {e: -0.3 - 0.17 * (i % 3) - step * i
         for i, e in enumerate(C.edge_ids)}))


def successor_lists(m):
    value = [m.potential.value(e) for e in m.nodes]
    successors = [[(int(j), float(m.P[i, j]))
                   for j in np.flatnonzero(m.support[i])]
                  for i in range(len(m.nodes))]
    return value, successors


def period_two_measure():
    # states 0 and 1 alternate: two parallel edges 0 -> 1, one edge back
    sft = Sft([(0, 0, 1), (0, 1, 1), (1, 2, 0)], 2)
    C = components(sft).components[0]
    assert C.period == 2
    return parry_gibbs_measure(C, Potential.on_edges(
        {0: -0.3, 1: -0.5, 2: -0.1}))


def reference_depth_first_scan(m, n_max):
    """Every cylinder of positive measure up to length n_max, walked depth
    first off a stack: the least and greatest ratio of its measure to its
    Gibbs weight, and the number of cylinders."""
    lo, hi = math.inf, -math.inf
    count = 0
    pr = m.pressure
    value, successors = successor_lists(m)
    stack = [(i, 1, 0.0 + value[i], float(m.pi[i])) for i in
             range(len(m.nodes) - 1, -1, -1)]
    while stack:
        i, n, s, prob = stack.pop()
        if prob <= 0.0:
            continue
        r = prob / math.exp(-n * pr + s)
        lo, hi = min(lo, r), max(hi, r)
        count += 1
        if n >= n_max:
            continue
        for j, p in successors[i]:
            stack.append((j, n + 1, s + value[j], prob * p))
    return lo, hi, count


def assert_matches_reference(rep, m, n_max):
    # the reference multiplies transitions where the closed form reads the
    # Perron vectors, so the bounds agree in all but the last digits
    lo, hi, count = reference_depth_first_scan(m, n_max)
    assert rep.n_cylinders == count
    assert rep.c_lower == pytest.approx(lo, rel=1e-12)
    assert rep.c_upper == pytest.approx(hi, rel=1e-12)


@pytest.mark.parametrize("measure", [
    "f2", "f2 edge-varying", "f2 edge-varying 0.05", "psl2z edge-varying",
    "psl2z edge-varying 0.05", "two-shift", "period 2"])
def test_scan_matches_the_depth_first_reference(measure, f2_measure,
                                                psl_measure):
    m = {"f2": f2_measure, "f2 edge-varying": edge_varying(f2_measure),
         "f2 edge-varying 0.05": edge_varying(f2_measure, 0.05),
         "psl2z edge-varying": edge_varying(psl_measure),
         "psl2z edge-varying 0.05": edge_varying(psl_measure, 0.05),
         "two-shift": two_shift_measure(),
         "period 2": period_two_measure()}[measure]
    for n_max in range(1, 9):
        rep = gibbs_ratio_scan(m, n_max=n_max)
        assert not rep.truncated
        assert rep.n_max == n_max and rep.pressure == m.pressure
        assert_matches_reference(rep, m, n_max)


def test_scan_matches_the_reference_at_a_million_cylinders(f2_measure):
    # 12 (3^11 - 1) / 2 = 1,062,876 cylinders up to length 11
    m = edge_varying(f2_measure, step=0.02)
    rep = gibbs_ratio_scan(m, n_max=11)
    assert rep.n_cylinders == 1_062_876
    assert_matches_reference(rep, m, 11)


@pytest.mark.parametrize("n_max", [0, -2])
def test_scan_rejects_an_empty_range(f2_measure, n_max):
    with pytest.raises(ValueError, match="n_max"):
        gibbs_ratio_scan(f2_measure, n_max=n_max)


def test_scan_matches_every_cylinder_ratio(psl_measure):
    # a potential that differs from edge to edge, so that a Birkhoff sum
    # built from the wrong edge values shows in the bounds
    C = psl_measure.component
    psi = Potential.on_edges({e: -0.3 - 0.17 * (i % 3)
                              for i, e in enumerate(C.edge_ids)})
    m = parry_gibbs_measure(C, psi)
    ratios = []
    for n in range(1, 7):
        for block in itertools.product(C.edge_ids, repeat=n):
            mu = cylinder_measure(m, block)
            if mu <= 0.0:
                continue
            s = 0.0
            for e in block:
                s += psi.value(e)
            ratios.append(mu / math.exp(-n * m.pressure + s))
    rep = gibbs_ratio_scan(m, n_max=6)
    assert not rep.truncated
    assert rep.n_cylinders == len(ratios) == 70
    assert rep.c_lower == pytest.approx(min(ratios), rel=1e-12)
    assert rep.c_upper == pytest.approx(max(ratios), rel=1e-12)
    assert (rep.c_lower, rep.c_upper) == pytest.approx((0.193031378685, 0.5),
                                                       abs=1e-11)


# --- a weighted full shift, solvable in closed form ---

@pytest.mark.parametrize("beta", [0.0, 0.7, -1.3])
def test_bernoulli_pressure(beta):
    sft = Sft([(0, 0, 0), (0, 1, 0)], 1)
    C = components(sft).components[0]
    psi = Potential.on_edges({0: 0.0, 1: beta})
    assert pressure(C, psi) == pytest.approx(math.log(1 + math.exp(beta)),
                                             abs=1e-10)


def test_bernoulli_equilibrium_weights():
    beta = 0.7
    sft = Sft([(0, 0, 0), (0, 1, 0)], 1)
    C = components(sft).components[0]
    m = parry_gibbs_measure(C, Potential.on_edges({0: 0.0, 1: beta}))
    p = math.exp(beta) / (1 + math.exp(beta))
    assert cylinder_measure(m, (1,)) == pytest.approx(p, abs=1e-10)
    assert cylinder_measure(m, (1, 1, 0)) == pytest.approx(p * p * (1 - p),
                                                           abs=1e-10)
    # entropy + mean potential = pressure, and nothing does better
    rep = check_variational(C, Potential.on_edges({0: 0.0, 1: beta}),
                            trials=300, seed=1)
    assert rep.ok
    assert rep.parry_gap < 1e-9
    assert rep.max_violation <= 1e-9


# --- periodic components with edge-varying potentials ---

# A 3-cycle 0 -> 1 -> 2 -> 0 with two parallel edges 0 -> 1; edge 0 leaves
# state 1, so the edge phases are not counted from the smallest state.
CYCLE3_PARALLEL = Sft([(1, 0, 2), (0, 1, 1), (0, 2, 1), (2, 3, 0)], 3)


@pytest.mark.parametrize("shift, period", [
    ("full2", 1), ("psl2z", 2), ("cycle3", 3)])
def test_periodic_perron_with_edge_potentials(shift, period, psl_aut):
    sft = {"full2": Sft([(0, 0, 0), (0, 1, 0)], 1),
           "psl2z": sft_from_automaton(psl_aut),
           "cycle3": CYCLE3_PARALLEL}[shift]
    (C,) = components(sft).components
    assert C.period == period
    values = {e: 0.3 - 0.45 * i for i, e in enumerate(C.edge_ids)}
    psi = Potential.on_edges(values)
    # dense edge matrix: e -> f weighted by exp(psi(e)) when f follows e
    dense = np.array([[math.exp(values[e]) if follows(sft, e, f) else 0.0
                       for f in C.edge_ids] for e in C.edge_ids])
    rho = max(abs(np.linalg.eigvals(dense)))
    assert pressure(C, psi) == pytest.approx(math.log(rho), abs=1e-10)
    m = parry_gibbs_measure(C, psi)
    assert m.pressure == pytest.approx(math.log(rho), abs=1e-10)
    assert (m.P >= 0).all() and (m.P[dense == 0] == 0).all()
    assert np.abs(m.P.sum(axis=1) - 1.0).max() < 1e-12
    assert m.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(m.pi @ m.P - m.pi).max() < 1e-12


def test_random_markov_measures_never_beat_the_pressure(f2_measure):
    rep = check_variational(f2_measure.component, f2_measure.potential,
                            trials=200, seed=0)
    assert rep.ok
    assert rep.n_trials == 200
    assert rep.max_violation <= 1e-9
    assert rep.parry_gap < 1e-9


def test_sampled_rays_are_geodesics(f2_aut, f2_measure):
    aut, entry = dimension._ray_chain(f2_measure)

    def walk(seed):
        return dimension._walk(f2_measure, aut, entry, 30, make_rng(seed))

    trail = walk(5)
    # consecutive elements differ by one letter, and every prefix sits one
    # step further out, so the trail is a geodesic
    letters = set(f2_aut.genset.elements)
    assert all(x.inverse() * y in letters for x, y in zip(trail, trail[1:]))
    assert [y.length() for y in trail] == list(range(31))
    assert walk(5) == trail
    assert walk(6) != trail


@pytest.mark.parametrize("group", ["f2", "psl2z", "s3"])
def test_every_automaton_state_is_reachable_from_the_start(request, group):
    # the ray sampler draws its first edge from the whole stationary law,
    # which is right only because construction drops unreachable states
    aut = build_geodesic_automaton(request.getfixturevalue(group), n_check=6)
    seen, todo = {aut.initial}, [aut.initial]
    while todo:
        for _, t in aut.successors(todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    assert seen == set(range(aut.n_states))


def test_ray_entry_law_is_the_normalised_stationary_law(psl_measure):
    aut, entry = dimension._ray_chain(psl_measure)
    assert aut is psl_measure.component.sft.automaton
    assert entry.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(entry > 0.0, psl_measure.pi > 0.0)


def test_rays_need_a_shift_backed_by_an_automaton():
    sft = Sft([(0, 0, 0), (0, 1, 0)], 1)
    C = components(sft).components[0]
    m = parry_gibbs_measure(C, word_length_potential(math.log(2.0)))
    with pytest.raises(ValueError, match="automaton"):
        dimension._ray_chain(m)
