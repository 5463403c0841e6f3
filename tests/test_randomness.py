"""Replayed draws: the sampler must give what numpy's own calls give.

`ReferenceSampler` is the sampler as it stood before the replay, one
`Generator.integers` call per draw; it is the oracle for the integers the
replay returns and for the generator state it leaves behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoshift import (EmptySphere, build_geodesic_automaton, make_rng,
                      sample_uniform_sphere)
from geoshift.randomness import ExactSampler


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
    """The sphere sampler's walk, drawing from the reference sampler."""
    eng = aut.group.engine
    tkeys = [e.key for e in aut.genset.elements]
    counts = aut.path_counts(n)
    if counts[n][aut.initial] == 0:
        raise EmptySphere(f"no elements at distance {n}")
    sampler = ReferenceSampler(rng)
    out = []
    for _ in range(count):
        s, gk = aut.initial, eng.identity
        for k in range(n, 0, -1):
            r = sampler.randbelow(counts[k][s])
            for li, t in aut.successors(s):
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


def test_a_sampler_that_skips_the_held_half_is_caught():
    class SkipsHeldHalf(ExactSampler):
        def _next32(self):
            self._has_half = False
            return super()._next32()

    bounds = [1000, 1000, 1 << 40, 1000]
    want = referenced(bounds, make_rng(2))
    assert replayed(bounds, make_rng(2)) == want
    assert replayed(bounds, make_rng(2), SkipsHeldHalf) != want


@pytest.mark.parametrize("group,n,count", [
    ("f2", 0, 5), ("f2", 1, 50), ("f2", 8, 200), ("f2", 40, 300),
    ("psl2z", 24, 300), ("s3", 2, 50), ("s3", 3, 50),
])
def test_sphere_samples_and_final_state_match_the_reference(
        request, group, n, count):
    aut = request.getfixturevalue({"f2": "f2_aut", "psl2z": "psl_aut",
                                   "s3": "s3_aut"}[group])
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


def test_other_bit_generators_are_refused(f2_aut):
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError, match="Philox"):
        ExactSampler(rng)
    with pytest.raises(ValueError, match="Philox"):
        sample_uniform_sphere(f2_aut, 4, rng, count=3)
