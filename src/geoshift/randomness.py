"""Deterministic random number utilities.

All sampling in the toolkit flows through a named, seedable, splittable
counter-based generator (numpy's Philox) so that runs are reproducible and
parallel streams never overlap.  Reports record the seed; each sampler
draws from its own fixed stream.

:class:`ExactSampler` replays, in plain Python integers, the draws that
``Generator.integers`` makes on a Philox generator: the same raw words,
split and rejected by the same rules, give the same integers bit for bit
and leave the generator in the same state, at a fraction of the cost of
one numpy call per draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "ExactSampler"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream); distinct streams are independent."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(seq))


class ExactSampler:
    """Exact uniform integers below arbitrary-precision bounds.

    Bounds below 2^62 give what ``rng.integers(bound)`` gives: Lemire's
    multiply-and-reject rule on one 32-bit half for bounds below 2^32, a
    raw half at 2^32, and the same rule on one 64-bit word above.  Philox hands out 32-bit halves low half first
    and holds the high half back for the next 32-bit draw; 64-bit draws
    take whole words and leave a held half where it is.  Larger bounds are
    assembled from 32-bit halves with rejection, so the result is exactly
    uniform regardless of size.

    Raw words are fetched in blocks, so the generator runs ahead of the
    draws; use the sampler as a context manager, whose exit puts the
    generator in the state the draws one by one would have left.  Nothing
    else may draw from the generator in between.  Only the Philox generator
    of :func:`make_rng` is replayed; any other is refused.
    """

    _WORD = 1 << 62
    _BLOCK = 1024    # raw words per fetch

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.Philox):
            raise ValueError("ExactSampler replays Philox draws only, not "
                             f"{type(bitgen).__name__}")
        self._bitgen = bitgen
        self._start = bitgen.state
        self._has_half = bool(self._start["has_uint32"])
        self._half_value = int(self._start["uinteger"])
        self._words: list[int] = []
        self._pos = 0
        self._fetched = 0
        self._buf: list[int] = []

    def __enter__(self) -> "ExactSampler":
        return self

    def __exit__(self, *exc):
        bitgen = self._bitgen
        bitgen.state = self._start
        used = self._fetched - (len(self._words) - self._pos)
        if used:
            bitgen.random_raw(used, output=False)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half_value
        bitgen.state = state
        return False

    def _next64(self) -> int:
        if self._pos == len(self._words):
            self._words = self._bitgen.random_raw(self._BLOCK).tolist()
            self._fetched += self._BLOCK
            self._pos = 0
        word = self._words[self._pos]
        self._pos += 1
        return word

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half_value
        word = self._next64()
        self._has_half = True
        self._half_value = word >> 32
        return word & _MASK32

    def _chunk(self) -> int:
        if not self._buf:
            self._buf = [self._next32() for _ in range(256)]
        return self._buf.pop()

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        if bound < 1 << 32:
            m = self._next32() * bound
            if m & _MASK32 < bound:
                threshold = (1 << 32) % bound
                while m & _MASK32 < threshold:
                    m = self._next32() * bound
            return m >> 32
        if bound == 1 << 32:
            return self._next32()
        if bound < self._WORD:
            m = self._next64() * bound
            if m & _MASK64 < bound:
                threshold = (1 << 64) % bound
                while m & _MASK64 < threshold:
                    m = self._next64() * bound
            return m >> 64
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
