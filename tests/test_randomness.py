"""Replayed draws: the sampler must give what numpy's own calls give.

`ReferenceSampler` is the sampler as it stood before the replay, one
`Generator.integers` call per draw; it is the oracle for the integers the
replay returns and for the generator state it leaves behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_enumerate_sphere, successors
from geoshift import (EmptySphere, build_geodesic_automaton,
                      enumerate_sphere, make_rng, sample_uniform_sphere,
                      sphere_count)
from geoshift.automaton import SAMPLE_BLOCK
from geoshift.randomness import ExactSampler, scalar_draws


class ReferenceSampler:
    """Exact uniform integers, one numpy call per machine-word draw."""

    _WORD = 1 << 62

    def __init__(self, rng):
        self.rng = rng
        self._buf = []

    def _chunk(self):
        if not self._buf:
            self._buf = [int(v) for v in self.rng.integers(0, 1 << 32, size=256,
                                                           dtype=np.int64)]
        return self._buf.pop()

    def randbelow(self, bound):
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound < self._WORD:
            return int(self.rng.integers(bound))
        bits = bound.bit_length()
        words = -(-bits // 32)
        shift = 32 * words - bits
        while True:
            r = 0
            for _ in range(words):
                r = (r << 32) | self._chunk()
            r >>= shift
            if r < bound:
                return r


def reference_sphere_sample(aut, n, rng, count):
    """The sphere sampler's unranking, drawing from the reference sampler:
    one draw below the sphere's size per sample, walked down the
    successors by subtracting the path counts it passes."""
    eng = aut.group.engine
    tkeys = [e.key for e in aut.genset.elements]
    counts = aut.path_counts(n)
    if counts[n][aut.initial] == 0:
        raise EmptySphere(f"no elements at distance {n}")
    sampler = ReferenceSampler(rng)
    out = []
    for _ in range(count):
        s, gk = aut.initial, eng.identity
        r = sampler.randbelow(counts[n][s])
        for k in range(n, 0, -1):
            for li, t in successors(aut, s):
                w = counts[k - 1][t]
                if r < w:
                    s, gk = t, eng.mult(gk, tkeys[li])
                    break
                r -= w
        out.append(gk)
    return out


def state(rng):
    """The whole Philox state as plain, comparable values."""
    st_ = rng.bit_generator.state
    return (tuple(int(v) for v in st_["state"]["counter"]),
            tuple(int(v) for v in st_["state"]["key"]),
            tuple(int(v) for v in st_["buffer"]),
            st_["buffer_pos"], st_["has_uint32"], st_["uinteger"])


def replayed(bounds, rng, sampler=ExactSampler):
    with sampler(rng) as s:
        return [s.randbelow(b) for b in bounds]


def referenced(bounds, rng):
    s = ReferenceSampler(rng)
    return [s.randbelow(b) for b in bounds]


# 2^31 + 1 and 3 * 2^60 + 1 reject about half and a sixteenth of the first
# draws, the worst cases of the 32-bit and the 64-bit rule
EDGE_BOUNDS = [1, 2, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
               3 * 2 ** 60 + 1, 2 ** 62 - 1, 2 ** 62, 4 * 3 ** 39]


@pytest.mark.parametrize("skip", [0, 1, 2, 3])
@pytest.mark.parametrize("bound", EDGE_BOUNDS)
def test_edge_bounds_match_the_reference(bound, skip):
    # `skip` odd 32-bit draws first leave a held-back half in the generator
    bounds = [7] * skip + [bound] * 40 + [5, bound, 3]
    a, b = make_rng(11, stream=skip), make_rng(11, stream=skip)
    assert replayed(bounds, a) == referenced(bounds, b)
    assert state(a) == state(b)


BOUNDS = st.one_of(st.integers(1, 40), st.integers(1, 2 ** 33),
                   st.integers(1, 2 ** 62 - 1), st.integers(2 ** 62, 2 ** 130),
                   st.sampled_from(EDGE_BOUNDS))


@given(st.lists(BOUNDS, max_size=60), st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_mixed_bounds_match_the_reference(bounds, seed):
    a, b = make_rng(seed), make_rng(seed)
    assert replayed(bounds, a) == referenced(bounds, b)
    assert state(a) == state(b)
    # the generator goes on exactly as the reference's does
    assert a.integers(1 << 40, size=3).tolist() == b.integers(
        1 << 40, size=3).tolist()


def blocked(calls, rng):
    """Each (bound, count) of `calls` as one ExactSampler.draws call."""
    with ExactSampler(rng) as s:
        return [s.draws(bound, count).tolist() for bound, count in calls]


def referenced_blocks(calls, rng):
    s = ReferenceSampler(rng)
    return [[s.randbelow(bound) for _ in range(count)] for bound, count in calls]


F2_40 = 4 * 3 ** 39  # F2's sphere of radius 40: two halves per draw


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("calls", [
    pytest.param([(1000, 1), (1000, 1), (1 << 40, 1), (1000, 3)], id="mixed"),
    # past one 1,024-word fetch
    pytest.param([(7, 2500)], id="fetch-32"),
    pytest.param([(2 ** 32, 2100)], id="fetch-raw-half"),
    pytest.param([(2 ** 40 + 3, 1500)], id="fetch-64"),
    # past a 256-half group of the assembled draws, and past SAMPLE_BLOCK
    pytest.param([(2 ** 63 + 5, 200)], id="group-refill"),
    pytest.param([(F2_40, SAMPLE_BLOCK + 150)], id="block-two-halves"),
    pytest.param([(3 ** 30, SAMPLE_BLOCK + 1), (9, SAMPLE_BLOCK + 1)],
                 id="block-64-then-32"),
    # about half and a sixteenth rejected: windows fetched again and again
    pytest.param([(2 ** 31 + 1, 5000)], id="reject-32"),
    pytest.param([(3 * 2 ** 60 + 1, 5000)], id="reject-64"),
    # the leftover halves of a group carry over 32- and 64-bit draws
    pytest.param([(2 ** 63 + 5, 3), (F2_40, 2), (1000, 5), (2 ** 100 + 1, 4),
                  (2 ** 40, 3), (2 ** 63 + 5, 130), (3, 1)], id="leftover"),
    # bounds from 2^64 on assemble Python integers
    pytest.param([(2 ** 64, 50)], id="big-2^64"),
    pytest.param([(2 ** 64 + 1, 300)], id="big-group-refill"),
    pytest.param([(3 ** 200, 40), (5, 3)], id="big-many-halves"),
    pytest.param([(1, 5), (5, 0), (2 ** 70, 0), (1, 0)], id="empty"),
])
def test_block_draws_match_the_reference(calls, held):
    # `held` starts from a held-back half
    a, b = make_rng(21), make_rng(21)
    if held:
        a.integers(3)
        b.integers(3)
    assert blocked(calls, a) == referenced_blocks(calls, b)
    assert state(a) == state(b)


def test_an_even_run_of_halves_leaves_its_last_high_half_in_the_state():
    # numpy keeps `uinteger` at the high half of the last word it split,
    # also when that half was drawn and none is held
    a, b = make_rng(4), make_rng(4)
    blocked([(1000, 2)], a)
    referenced_blocks([(1000, 2)], b)
    assert state(a) == state(b)
    assert state(a)[4] == 0 and state(a)[5] != 0


@given(st.lists(st.tuples(BOUNDS, st.integers(0, 300)), max_size=8),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_mixed_block_draws_match_the_reference(calls, seed):
    a, b = make_rng(seed), make_rng(seed)
    assert blocked(calls, a) == referenced_blocks(calls, b)
    assert state(a) == state(b)


def test_a_sampler_that_skips_the_held_half_is_caught():
    class SkipsHeldHalf(ExactSampler):
        def _next32(self):
            self._has_half = False
            return super()._next32()

    bounds = [1000, 1000, 1 << 40, 1000]
    want = referenced(bounds, make_rng(2))
    assert replayed(bounds, make_rng(2)) == want
    assert replayed(bounds, make_rng(2), SkipsHeldHalf) != want


SPHERE_AUTOMATA = {"f2": "f2_aut", "psl2z": "psl_aut", "s3": "s3_aut",
                   "genus2": "genus2_aut", "f2_star_ab": "f2_star_ab_aut",
                   "z2_z4": "z2_z4_aut", "z5_z2": "z5_z2_aut"}


@pytest.mark.parametrize("group,n,count", [
    ("f2", 0, 5), ("f2", 1, 50), ("f2", 8, 200), ("f2", 40, 300),
    ("psl2z", 24, 300), ("s3", 2, 50), ("s3", 3, 50),
    ("genus2", 3, 100), ("genus2", 6, 100), ("f2_star_ab", 8, 300),
    ("z2_z4", 12, 300), ("z5_z2", 12, 300),
    # F2's sphere of radius 39 holds 4 * 3^38 < 2^63 elements and every
    # step unranks in int64; radius 41 takes two steps in Python integers
    # first, radius 200 takes 161, and PSL2Z's radius 130 takes 7
    ("f2", 39, 200), ("f2", 41, 200), ("f2", 200, 60), ("psl2z", 130, 200),
    # draws carry from one block to the next
    ("f2", 40, SAMPLE_BLOCK + 150),
])
def test_sphere_samples_and_final_state_match_the_reference(
        request, group, n, count):
    aut = request.getfixturevalue(SPHERE_AUTOMATA[group])
    a, b = make_rng(5, stream=n), make_rng(5, stream=n)
    a.integers(3)  # start from a held-back half
    b.integers(3)
    if aut.path_counts(n)[n][aut.initial] == 0:
        with pytest.raises(EmptySphere):
            sample_uniform_sphere(aut, n, a, count=count)
        with pytest.raises(EmptySphere):
            reference_sphere_sample(aut, n, b, count)
    else:
        got = [x.key for x in sample_uniform_sphere(aut, n, a, count=count)]
        assert got == reference_sphere_sample(aut, n, b, count)
    assert state(a) == state(b)


@pytest.fixture(scope="module")
def s3_aut(s3):
    return build_geodesic_automaton(s3, n_check=8)


@pytest.fixture(scope="module")
def f2_star_ab_aut(f2, f2_star_ab):
    # its letters are elements of length 1 and 2: the sampler spells them
    return build_geodesic_automaton(f2, f2_star_ab, n_check=6)


@pytest.fixture(scope="module")
def z2_z4_aut(z2_z4):
    return build_geodesic_automaton(z2_z4, n_check=8)


@pytest.fixture(scope="module")
def z5_z2_aut(z5_z2):
    return build_geodesic_automaton(z5_z2, n_check=8)


@pytest.mark.parametrize("group,n", [("f2", 40), ("s3", 0)])
def test_each_sphere_sample_draws_once(request, monkeypatch, group, n):
    # the sampler's draws all go through ExactSampler.draws, one draw per
    # sample below the sphere's size, not even one skipped below the bound
    # 1 of a sphere of one element
    aut = request.getfixturevalue(SPHERE_AUTOMATA[group])
    calls = []
    draws = ExactSampler.draws

    def counted(self, bound, count):
        calls.append((bound, count))
        return draws(self, bound, count)

    monkeypatch.setattr(ExactSampler, "draws", counted)
    sample_uniform_sphere(aut, n, make_rng(9), count=100)
    assert calls == [(sphere_count(aut, n), 100)]
    assert (calls[0][0] == 1) == (group == "s3")


@pytest.mark.parametrize("group,top", [
    ("f2", 5), ("psl2z", 10), ("s3", 4), ("genus2", 3), ("f2_star_ab", 3),
    ("z2_z4", 8), ("z5_z2", 8),
])
def test_draws_unrank_the_sphere_in_shortlex_order(request, monkeypatch,
                                                   group, top):
    # at each radius up to `top`, draws 0, 1, ..., N - 1 in turn must spell
    # the whole sphere, each element once, in the order the engine-product
    # walk lists it; s3's spheres are empty from radius 3 on
    aut = request.getfixturevalue(SPHERE_AUTOMATA[group])
    turn = iter(())

    def in_turn(self, bound, count):
        r = np.fromiter(turn, dtype=np.uint64, count=count)
        assert (r < bound).all()
        return r

    monkeypatch.setattr(ExactSampler, "draws", in_turn)
    for n in range(top + 1):
        size = sphere_count(aut, n)
        if size == 0:
            with pytest.raises(EmptySphere):
                sample_uniform_sphere(aut, n, make_rng(0))
            continue
        turn = iter(range(size))
        got = [x.key for x in sample_uniform_sphere(aut, n, make_rng(0),
                                                    count=size)]
        assert got == [x.key for x in reference_enumerate_sphere(aut, n)]


@pytest.mark.parametrize("group,top", [
    ("f2", 8), ("psl2z", 12), ("s3", 4), ("genus2", 4), ("f2_star_ab", 5),
])
def test_enumerate_sphere_is_the_engine_product_walk(request, monkeypatch,
                                                     group, top):
    # the unranked ranks 0, 1, ..., N - 1 list each sphere as the
    # depth-first walk that multiplies keys at each node does, and take no
    # product themselves; F2's sphere of radius 8 spans two blocks of
    # SAMPLE_BLOCK ranks
    aut = request.getfixturevalue(SPHERE_AUTOMATA[group])
    want = [[x.key for x in reference_enumerate_sphere(aut, n)]
            for n in range(top + 1)]
    assert any(len(keys) > 1 for keys in want)

    def no_product(*args):
        raise AssertionError("enumerate_sphere multiplied")

    monkeypatch.setattr(aut.group.engine, "mult", no_product)
    for n in range(top + 1):
        assert [x.key for x in enumerate_sphere(aut, n)] == want[n]


@pytest.mark.parametrize("n", [39, 40])
def test_ranks_next_to_block_edges_unrank_exactly(f2_aut, monkeypatch, n):
    # F2's sphere of radius 39 holds 4 * 3^38 < 2^63 elements, radius 40's
    # 4 * 3^39 > 2^63; the draws come as uint64, which numpy compares with
    # the int64 totals in float64, so a rank one below a block's edge must
    # be cast exactly to tell it from the edge
    counts = f2_aut.path_counts(n)
    edge = 3 ** (n - 1)  # each first letter's block
    ranks = [0, 1, edge - 1, edge, edge + 1, 2 * edge - 1, 3 * edge,
             4 * edge - 2, 4 * edge - 1]
    assert counts[n][f2_aut.initial] == 4 * edge
    monkeypatch.setattr(ExactSampler, "draws", lambda self, bound, count:
                        np.array(ranks, dtype=np.uint64))
    got = sample_uniform_sphere(f2_aut, n, make_rng(0), count=len(ranks))
    want = []
    for r in ranks:  # unranked in Python integers
        s, row = f2_aut.initial, []
        for k in range(n, 0, -1):
            for li, t in successors(f2_aut, s):
                if r < counts[k - 1][t]:
                    s = t
                    row.append(li)
                    break
                r -= counts[k - 1][t]
        want.append(row)
    assert got.letters.tolist() == want


def test_other_bit_generators_are_refused(f2_aut):
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError, match="Philox"):
        ExactSampler(rng)
    with pytest.raises(ValueError, match="Philox"):
        sample_uniform_sphere(f2_aut, 4, rng, count=3)


SCALAR_BOUNDS = [1, 2, 7, 3193, 2 ** 31 + 1, 2 ** 32 - 1]


@pytest.mark.parametrize("segment", range(5))
def test_scalar_draws_replay_one_integers_call_each(segment):
    # each segment starts on a held half and words of zeros, which 2^32 - 1
    # and 2^31 + 1 reject: on even segments the held half is 0 too, and the
    # first draw below 2^32 - 1 rejects eight halves and takes the high
    # half of the fourth word; on odd ones it takes the held half
    a, b = make_rng(segment, stream=977), make_rng(segment, stream=977)
    held = 0x9ABCDEF0 * (segment % 2)
    forced = a.bit_generator.state
    forced["buffer"] = np.array([0, 0, 0, 0x12345678 << 32], dtype=np.uint64)
    forced["buffer_pos"], forced["has_uint32"], forced["uinteger"] = 0, 1, held
    a.bit_generator.state = b.bit_generator.state = forced
    picks = make_rng(segment, stream=5).integers(len(SCALAR_BOUNDS), size=998)
    bounds = [2 ** 32 - 1, 2 ** 31 + 1] + [SCALAR_BOUNDS[i] for i in picks]
    draw = scalar_draws(a)
    got = [draw(bound) for bound in bounds]
    assert got == [int(b.integers(bound)) for bound in bounds]
    assert got[0] == (held or 0x12345678) - 1
    # the same draws, with 1 + a draw below h for integers(1, h + 1)
    c = make_rng(segment, stream=977)
    draw = scalar_draws(make_rng(segment, stream=977))
    assert [1 + draw(bound) for bound in bounds[:300]] == [
        int(c.integers(1, bound + 1)) for bound in bounds[:300]]


def test_scalar_draws_refuse_what_they_cannot_replay():
    with pytest.raises(ValueError, match="Philox"):
        scalar_draws(np.random.Generator(np.random.PCG64(0)))
    draw = scalar_draws(make_rng(0))
    for bound in (0, 2 ** 32 + 1):
        with pytest.raises(ValueError, match="bound"):
            draw(bound)
    assert draw(2 ** 32) == int(make_rng(0).integers(2 ** 32))
