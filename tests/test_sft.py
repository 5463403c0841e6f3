"""Component structure of edge shifts on small hand-built graphs."""

import numpy as np
import pytest

from geoshift import (build_geodesic_automaton, check_variational,
                      components, maximal_components, parry_gibbs_measure,
                      sft_from_automaton)
from geoshift.thermo import pressure
from geoshift.sft import Sft, digraph_period, strongly_connected
from dense_thermo import on_edges

# edges are (source state, symbol, target state)
FULL2 = Sft([(0, 0, 0), (0, 1, 0)], 1)
CYCLE3 = Sft([(0, 0, 1), (1, 1, 2), (2, 2, 0)], 3)
GOLDEN = Sft([(0, 0, 0), (0, 1, 1), (1, 2, 0)], 2)


def test_tarjan_on_a_line():
    # 0 -> 1 -> 2, no cycles: three singleton components
    sccs = strongly_connected(3, [[1], [2], []])
    assert sccs == [[0], [1], [2]]


def test_tarjan_finds_a_big_component():
    # 0 <-> 1, 2 hangs off
    sccs = strongly_connected(3, [[1], [0, 2], []])
    assert [0, 1] in sccs and [2] in sccs


def test_period_of_cycles():
    assert digraph_period([0, 1, 2], [(0, 1), (1, 2), (2, 0)])[0] == 3
    per, phase = digraph_period([0, 1], [(0, 1), (1, 0)])
    assert per == 2
    assert phase[0] != phase[1]
    # a chord of coprime length kills the period
    assert digraph_period([0, 1, 2], [(0, 1), (1, 2), (2, 0), (0, 0)])[0] == 1


@pytest.mark.parametrize("vertices,arrows", [
    ([0, 1, 2], [(0, 1), (1, 2), (2, 0)]),
    ([0, 1], [(0, 1), (1, 0)]),
    ([0, 1, 2], [(0, 1), (1, 2), (2, 0), (0, 0)]),
    ([0, 1, 2, 3], [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)]),
    # a 6-cycle with a 3-cycle chord: period 3
    ([0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                          (2, 0)]),
    # two 4-cycles through vertex 0: period 4
    ([0, 1, 2, 3, 4, 5, 6], [(0, 1), (1, 2), (2, 3), (3, 0),
                             (0, 4), (4, 5), (5, 6), (6, 0)]),
])
def test_reversed_arrows_negate_the_phases(vertices, arrows):
    per, phase = digraph_period(vertices, arrows)
    per_t, phase_t = digraph_period(vertices, [(v, u) for u, v in arrows])
    assert per_t == per
    assert phase_t == {v: (-phase[v]) % per for v in vertices}


@pytest.mark.parametrize("sft", ["cycle3", "psl2z"])
def test_component_phases_reverse_with_the_arrows(sft, psl_aut):
    shift = CYCLE3 if sft == "cycle3" else sft_from_automaton(psl_aut)
    for C in components(shift).components:
        arrows = [(shift.edges[e][0], shift.edges[e][2]) for e in C.edge_ids]
        states = sorted(C.states)
        per_t, phase_t = digraph_period(states, [(v, u) for u, v in arrows])
        assert per_t == C.period
        assert phase_t == {v: (-int(p)) % C.period
                           for v, p in zip(states, C.phase)}


def test_full_shift_on_two_symbols():
    dec = components(FULL2)
    assert len(dec.components) == 1
    C = dec.components[0]
    assert C.period == 1
    assert len(C.edge_ids) == 2
    mp = maximal_components(dec)
    assert mp.maximal == (0,)
    assert mp.semisimple
    assert mp.max_pressure == pytest.approx(0.6931471805599453, abs=1e-12)


def test_golden_mean_entropy():
    import math

    dec = components(GOLDEN)
    mp = maximal_components(dec)
    phi = (1 + math.sqrt(5)) / 2
    assert mp.max_pressure == pytest.approx(math.log(phi), abs=1e-10)


def test_pure_cycle_has_period_three_and_zero_entropy():
    dec = components(CYCLE3)
    C = dec.components[0]
    assert C.period == 3
    assert C.cyclic_parts() == [[0], [1], [2]]
    mp = maximal_components(dec)
    assert mp.max_pressure == pytest.approx(0.0, abs=1e-12)


def test_bridge_between_equal_loops_is_not_semisimple():
    # two unit loops, one feeding the other: equal pressures in a chain
    sft = Sft([(0, 0, 0), (0, 1, 1), (1, 2, 1)], 2)
    dec = components(sft)
    assert len(dec.components) == 2
    mp = maximal_components(dec)
    assert mp.pressures == (0.0, 0.0)
    assert mp.maximal == (0, 1)
    assert not mp.semisimple
    assert dec.reaches(0, 1)
    assert not dec.reaches(1, 0)


def test_dominant_component_is_semisimple():
    # a two-loop state feeding a one-loop state: only the first is maximal
    sft = Sft([(0, 0, 0), (0, 1, 0), (0, 2, 1), (1, 3, 1)], 2)
    mp = maximal_components(components(sft))
    assert mp.maximal == (0,)
    assert mp.semisimple
    assert mp.pressures[0] > mp.pressures[1]


def test_disjoint_equal_loops_are_semisimple():
    mp = maximal_components(components(Sft([(0, 0, 0), (1, 1, 1)], 2)))
    assert mp.maximal == (0, 1)
    assert mp.semisimple


def test_weights_can_reorder_maximality():
    # with a potential favouring the single loop, it wins despite lower entropy
    sft = Sft([(0, 0, 0), (0, 1, 0), (0, 2, 1), (1, 3, 1)], 2)
    dec = components(sft)
    favour = on_edges(sft, {0: 0.0, 1: 0.0, 2: 0.0, 3: 2.0})
    mp = maximal_components(dec, favour)
    assert mp.maximal == (1,)


def test_transient_edges_belong_to_no_component(f2_aut):
    sft = sft_from_automaton(f2_aut)
    dec = components(sft)
    assert len(dec.components) == 1
    recurrent = set(dec.components[0].edge_ids)
    assert len(sft) == 16
    assert len(recurrent) == 12
    # the four transient edges all leave the initial state
    for e in set(range(len(sft))) - recurrent:
        assert sft.edges[e][0] == f2_aut.initial


@pytest.mark.parametrize("group", ["f2", "psl2z", "s3", "genus2"])
def test_automaton_edges_run_in_sorted_state_letter_order(request, group):
    # every Perron float sums over the edges in this order
    aut = (build_geodesic_automaton(request.getfixturevalue(group), n_check=6)
           if group == "s3" else request.getfixturevalue(
               {"f2": "f2_aut", "psl2z": "psl_aut",
                "genus2": "genus2_aut"}[group]))
    want = [(s, li, t) for (s, li), t in sorted(aut.transitions.items())]
    assert sft_from_automaton(aut).edges.tolist() == [list(e) for e in want]


@pytest.mark.parametrize("length", [1, 3, 5])
@pytest.mark.parametrize("use", ["pressure", "parry", "variational"])
def test_a_potential_of_the_wrong_length_is_refused(use, length):
    C = components(FULL2).components[0]
    run = {"pressure": pressure, "parry": parry_gibbs_measure,
           "variational": check_variational}[use]
    with pytest.raises(ValueError,
                       match=f"{length} values; the shift has 2 edges"):
        run(C, np.zeros(length))
