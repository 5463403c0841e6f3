"""Deterministic random number utilities.

All sampling in the toolkit flows through a named, seedable, splittable
counter-based generator (numpy's Philox) so that runs are reproducible and
parallel streams never overlap.  Reports record the seed; each sampler
draws from its own fixed stream.

:class:`ExactSampler` replays, a block at a time in numpy arrays, the draws
that ``Generator.integers`` makes on a Philox generator: the same raw
words, split and rejected by the same rules, give the same integers bit for
bit and leave the generator in the same state, at a small fraction of the
cost of one numpy call per draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "ExactSampler", "scalar_draws"]

_MASK32 = np.uint64((1 << 32) - 1)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream); distinct streams are independent."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(seq))


class ExactSampler:
    """Exact uniform integers below arbitrary-precision bounds.

    Bounds below 2^62 give what ``rng.integers(bound)`` gives: Lemire's
    multiply-and-reject rule on one 32-bit half for bounds up to 2^32 and
    on one 64-bit word above.  Philox hands out 32-bit halves low half
    first and holds the high half back for the next 32-bit draw; 64-bit
    draws leave a held half where it is.  Larger bounds are assembled from
    32-bit halves with rejection, so the result is exactly uniform
    regardless of size; the halves come in groups of 256, last half first.

    :meth:`draws` applies a rule to a window of raw words at once and takes
    only the words its first ``count`` acceptances used.  The generator
    runs ahead; use the sampler as a context manager, whose exit leaves it
    in the state the draws one by one would have, and let nothing else draw
    from it in between.  Only :func:`make_rng`'s Philox is replayed.
    """

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
        self._words = np.empty(0, dtype=np.uint64)
        self._pos = self._fetched = 0
        self._buf = self._words  # the halves of a group left, popped last first

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

    def _peek(self, k: int) -> np.ndarray:
        """The next k raw words, fetched if need be but not taken."""
        if self._pos + k > len(self._words):
            more = self._bitgen.random_raw(-(-k // self._BLOCK) * self._BLOCK)
            self._words = np.concatenate([self._words[self._pos:], more])
            self._fetched, self._pos = self._fetched + len(more), 0
        return self._words[self._pos:self._pos + k]

    def _next32(self):
        """The held half, given up; None when no half is held."""
        held, self._has_half = self._has_half, False
        return self._half_value if held else None

    def _halves(self, k: int) -> tuple[np.ndarray, bool]:
        """The next k halves, a held one first, and whether one was held."""
        head = self._next32()
        held = head is not None
        words = self._peek(-(-(k - held) // 2))
        halves = np.stack([words & _MASK32, words >> 32], axis=1).ravel()
        return (np.insert(halves, 0, head) if held else halves)[:k], held

    def _take_halves(self, used: int, held: bool) -> None:
        # `uinteger` keeps the high half of the last word split, held or not
        words = -(-(used - held) // 2)
        if words > 0:
            self._half_value = int(self._words[self._pos + words - 1] >> 32)
            self._has_half = (used - held) % 2 == 1
            self._pos += words

    def _lemire32(self, bound: int, count: int, size: int) -> np.ndarray:
        halves, held = self._halves(size)
        m = halves * np.uint64(bound)
        keep = np.flatnonzero((m & _MASK32) >= (1 << 32) % bound)[:count]
        self._take_halves(keep[-1] + 1 if len(keep) == count else len(m), held)
        return m[keep] >> 32

    def _lemire64(self, bound: int, count: int, size: int) -> np.ndarray:
        x = self._peek(size)
        keep = np.flatnonzero(x * np.uint64(bound) >= (1 << 64) % bound)[:count]
        self._pos += int(keep[-1]) + 1 if len(keep) == count else len(x)
        # the high words of x * bound from 32-bit limbs: no sum overflows
        xl, xh = x[keep] & _MASK32, x[keep] >> 32
        bl, bh = np.uint64(bound & 0xFFFFFFFF), np.uint64(bound >> 32)
        low, mid1, mid2 = xl * bl, xh * bl, xl * bh
        carry = ((low >> 32) + (mid1 & _MASK32) + (mid2 & _MASK32)) >> 32
        return xh * bh + (mid1 >> 32) + (mid2 >> 32) + carry

    def _assemble(self, bound: int, count: int, size: int) -> np.ndarray:
        bits = bound.bit_length()
        per, buf, held = -(-bits // 32), self._buf, False  # halves per draw
        chunks = buf[::-1]
        if count * per > len(buf):  # so some half of the new groups is used
            groups = -(-(size * per - len(buf)) // 256)
            halves, held = self._halves(256 * groups)
            chunks = np.concatenate(
                [chunks, halves.reshape(groups, 256)[:, ::-1].ravel()])
        c = chunks[:len(chunks) // per * per].reshape(-1, per).astype(
            np.uint64 if bits <= 64 else object)
        r = c[:, 0]
        for j in range(1, per):
            r = (r << 32) | c[:, j]
        r = r >> 32 * per - bits
        keep = np.flatnonzero(r < bound)[:count]
        past = per * (keep[-1] + 1 if len(keep) == count else len(c)) - len(buf)
        self._buf = buf[:max(-past, 0)]  # the first -past are left
        if past > 0:
            taken = 256 * -(-past // 256)  # whole groups
            self._take_halves(taken, held)
            self._buf = halves[taken - 256:2 * taken - 256 - past]
        return r[keep]

    def draws(self, bound: int, count: int) -> np.ndarray:
        """The next `count` draws below `bound`, in order: uint64 for
        bounds below 2^64, Python integers in an object array from there."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        rule, bits = ((self._lemire32, 32) if bound <= 1 << 32 else
                      (self._lemire64, 64) if bound < 1 << 62 else
                      (self._assemble, bound.bit_length()))
        accept = 1 - ((1 << bits) % bound) / (1 << bits)
        parts = [np.zeros(count if bound == 1 else 0, dtype=np.uint64)]
        count -= len(parts[0])
        while count:  # each window sized to hold `count` acceptances
            parts.append(rule(bound, count, int(count / accept * 1.02) + 16))
            count -= len(parts[-1])
        return np.concatenate(parts)

    def randbelow(self, bound: int) -> int:
        """One draw below `bound`, as a Python integer."""
        return int(self.draws(bound, 1)[0])


def scalar_draws(rng: np.random.Generator):
    """A function drawing below a bound in [1, 2^32] what one
    ``rng.integers(bound)`` call would, by :class:`ExactSampler`'s rule on
    raw words fetched 1,024 at a time; draw nothing else from `rng`."""
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        raise ValueError("scalar draws replay Philox only, not "
                         f"{type(bitgen).__name__}")
    state = bitgen.state

    def halves():  # a held half first, then each low half before its high
        if state["has_uint32"]:
            yield int(state["uinteger"])
        while True:
            for word in bitgen.random_raw(1024).tolist():
                yield from (word & 0xFFFFFFFF, word >> 32)
    source = halves()

    def randbelow(bound: int) -> int:
        if not 0 < bound <= 1 << 32:
            raise ValueError("bound must lie in [1, 2^32]")
        threshold = (1 << 32) % bound
        for half in source if bound > 1 else (0,):  # 1 takes no draw
            m = half * bound
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
    return randbelow
