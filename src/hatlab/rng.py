"""Counter-based deterministic randomness.

Every draw is a pure function of ``(seed, *indices)``: the same key always
yields the same value, independent of call order, interleaving, or thread
count.  This is what makes randomized constructions replayable from their
recorded seeds alone.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0xBF58476D1CE4E5B9


def _mix(z: int) -> int:
    # splitmix64 finalizer
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def u64(seed: int, *indices: int) -> int:
    """Uniform 64-bit value keyed by ``seed`` and an index path."""
    h = _mix((seed & _M64) ^ _GOLDEN)
    for x in indices:
        h = _mix(h ^ ((x * _MULT) & _M64))
    return h


def coin(seed: int, *indices: int) -> bool:
    """Fair coin keyed by ``(seed, *indices)``."""
    return u64(seed, *indices) < (1 << 63)


def coin_mask(n: int, seed: int, *indices: int) -> int:
    """n fair coins as a mask: bit v is ``coin(seed, *indices, v)``.

    The shared prefix is hashed once, so each bit costs one mix.
    """
    h = u64(seed, *indices)
    mask = 0
    for v in range(n):
        if _mix(h ^ ((v * _MULT) & _M64)) < (1 << 63):
            mask |= 1 << v
    return mask


def chance(p: float, seed: int, *indices: int) -> bool:
    """Event of probability ``p`` (up to 2^-64 rounding) keyed as above."""
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return u64(seed, *indices) < round(p * 2.0**64)


def randrange(n: int, seed: int, *indices: int) -> int:
    """Uniform value in [0, n).  Modulo bias is negligible for n << 2^64."""
    if n <= 0:
        raise ValueError("randrange needs n >= 1")
    return u64(seed, *indices) % n
