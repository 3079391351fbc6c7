"""Minimal deterministic PRNG.

Shuffles and synthetic data must be bit-reproducible across runs,
platforms and language runtimes, so we pin the generator (splitmix64)
and the shuffle (Fisher-Yates) instead of relying on a runtime's
default random module.
"""

import math

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; state advances by the 64-bit golden ratio."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        """Float in [0, 1)."""
        u = self.next_u64() / 2.0**64
        # The top 1,024 draws round to 2**64 before the division.
        return u if u < 1.0 else math.nextafter(1.0, 0.0)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        return self.next_u64() % n


def permutation(n: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates permutation of range(n), one draw per swap."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order
