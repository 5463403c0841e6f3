"""Deterministic random number utilities.

All sampling in the toolkit flows through a named, seedable, splittable
counter-based generator (numpy's Philox) so that runs are reproducible and
parallel streams never overlap.  Reports record the seed; each sampler
draws from its own fixed stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "ExactSampler"]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream); distinct streams are independent."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(seq))


class ExactSampler:
    """Exact uniform integers below arbitrary-precision bounds.

    Bounds that fit a machine word use the generator's unbiased integer
    path; larger bounds are assembled from 32-bit draws with rejection, so
    the result is exactly uniform regardless of size.
    """

    _WORD = 1 << 62

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._buf: list[int] = []

    def _chunk(self) -> int:
        if not self._buf:
            self._buf = [int(v) for v in self.rng.integers(0, 1 << 32, size=256,
                                                           dtype=np.int64)]
        return self._buf.pop()

    def randbelow(self, bound: int) -> int:
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
