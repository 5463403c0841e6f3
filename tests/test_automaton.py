"""Geodesic machines: construction, counting, validation, serialization."""

import pytest

from geoshift import (
    EmptySphere,
    FormatError,
    build_geodesic_automaton,
    enumerate_sphere,
    make_rng,
    sample_uniform_sphere,
    serialize_automaton,
    sphere_count,
    validate_automaton,
)
from geoshift.automaton import deserialize_automaton
from geoshift.geometry import ball_tree


def test_free_group_machine_shape(f2_aut):
    assert f2_aut.n_states == 5
    assert len(f2_aut.transitions) == 16
    assert f2_aut.conflicts == 0
    assert f2_aut.validated_to == 10


def test_free_group_sphere_counts(f2_aut):
    assert sphere_count(f2_aut, 0) == 1
    for n in range(1, 16):
        assert sphere_count(f2_aut, n) == 4 * 3 ** (n - 1)


def test_counts_agree_with_breadth_first_search(f2, f2_aut):
    # the ball tree is an independent walk of the group itself
    t = ball_tree(f2.resolve(None), 7)
    for n in range(8):
        assert sphere_count(f2_aut, n) == t.layer_bounds[n + 1] - t.layer_bounds[n]


def test_validation_report(f2_aut):
    rep = validate_automaton(f2_aut, 9)
    assert rep.ok
    assert rep.checked_to == 9
    assert rep.first_mismatch is None
    assert all(count == bfs for (_, count, bfs) in rep.rows)


def test_enumerate_sphere_lists_distinct_geodesics(f2, f2_aut):
    seen = set(enumerate_sphere(f2_aut, 4))
    assert len(seen) == sphere_count(f2_aut, 4) == 108
    assert all(x.length() == 4 for x in seen)


def test_enumerate_identity_sphere(f2, f2_aut):
    assert list(enumerate_sphere(f2_aut, 0)) == [f2.identity()]


def test_uniform_sampler_stays_on_the_sphere(f2_aut):
    rng = make_rng(7)
    for x in sample_uniform_sphere(f2_aut, 9, rng, count=50):
        assert x.length() == 9


def test_uniform_sampler_is_seeded(f2_aut):
    a = sample_uniform_sphere(f2_aut, 6, make_rng(3), count=20)
    b = sample_uniform_sphere(f2_aut, 6, make_rng(3), count=20)
    assert a == b
    c = sample_uniform_sphere(f2_aut, 6, make_rng(4), count=20)
    assert a != c


def test_sampling_an_empty_sphere_fails(s3):
    aut = build_geodesic_automaton(s3, n_check=5)
    with pytest.raises(EmptySphere):
        sample_uniform_sphere(aut, 4, make_rng(0))


def test_sampling_a_negative_radius_fails(f2_aut):
    # a negative radius used to read path_counts from the end of the list
    with pytest.raises(ValueError, match="nonnegative"):
        sample_uniform_sphere(f2_aut, -4, make_rng(0))


def test_serialization_round_trip(f2, f2_aut):
    text = serialize_automaton(f2_aut)
    back = deserialize_automaton(text, f2)
    assert back.n_states == f2_aut.n_states
    assert back.transitions == f2_aut.transitions
    assert back.initial == f2_aut.initial
    for n in range(12):
        assert sphere_count(back, n) == sphere_count(f2_aut, n)


@pytest.mark.parametrize("old,new", [
    ("end", "edge 1 9 2\nend"),       # letter 9 of a 4-letter set
    ("end", "edge 0 1 99\nend"),      # target outside the 5 states
    ("end", "edge -1 1 2\nend"),      # negative source
    ("initial 0", "initial 7"),
    ("states 5", "states x"),
    ("level 1", "level one"),
    ("end", "edge 1 2\nend"),         # no target
    ("end", "edge 1 b 2\nend"),
    ("end", "edge 0 0 2\nend"),       # a second target for state 0, letter 0
])
def test_malformed_serialized_automaton(f2, old, new):
    text = serialize_automaton(build_geodesic_automaton(f2, n_check=4))
    assert deserialize_automaton(text, f2).n_states == 5
    assert old in text
    with pytest.raises(FormatError):
        deserialize_automaton(text.replace(old, new, 1), f2)


def test_modular_group_machine(psl_aut):
    assert psl_aut.n_states == 4
    assert len(psl_aut.transitions) == 7
    counts = [sphere_count(psl_aut, n) for n in range(9)]
    assert counts == [1, 3, 4, 6, 8, 12, 16, 24, 32]
    # doubling every two steps, once past the seam
    for n in range(2, 7):
        assert sphere_count(psl_aut, n + 2) == 2 * sphere_count(psl_aut, n)


def test_finite_group_spheres_die_out(s3):
    aut = build_geodesic_automaton(s3, n_check=5)
    counts = [sphere_count(aut, n) for n in range(6)]
    assert counts == [1, 3, 2, 0, 0, 0]
    assert sum(counts) == 6


def test_surface_group_machine():
    from geoshift import parse_group_file

    spec = parse_group_file("groups/genus2.grp")
    # the relator has length 8, so the training ball must see past radius 4
    aut = build_geodesic_automaton(spec, n_check=6)
    assert aut.tail_used == 4
    assert aut.n_states == 3193
    assert [sphere_count(aut, n) for n in range(7)] == [
        1, 8, 56, 392, 2736, 19096, 133288]
    assert validate_automaton(aut, 5).ok


def test_alternative_generators_get_their_own_machine(f2, f2_star_ab):
    aut = build_geodesic_automaton(f2, f2_star_ab, n_check=6)
    # six letters now, and bigger spheres
    assert sphere_count(aut, 1) == 6
    ball = ball_tree(f2_star_ab, 5)
    for n in range(6):
        assert sphere_count(aut, n) == ball.layer_bounds[n + 1] - ball.layer_bounds[n]
